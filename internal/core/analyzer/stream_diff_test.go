package analyzer

// Chunk-size/duty-cycle determinism contract for the streaming
// analyzer, in the style of cluster/parallel_diff_test.go: the final
// report — and the event sequence — must be bit-identical no matter how
// the record stream is chunked, because downstream consumers (fleet
// sessions resumed from logs, watch over archives) all see the same
// records in different groupings.

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/trace"
)

type streamEventLog struct {
	Kind    StreamEventKind
	PhaseID int
	Step    int64
}

// runChunked feeds recs in fixed-size chunks and returns the final
// report plus the observed event sequence.
func runChunked(t *testing.T, recs []*trace.ProfileRecord, chunk, duty int) (*StreamReport, []streamEventLog) {
	t.Helper()
	var events []streamEventLog
	s := NewStream("diff", StreamOptions{
		DutyCycle: duty,
		OnEvent: func(ev StreamEvent) {
			events = append(events, streamEventLog{ev.Kind, ev.Phase.ID, ev.Step})
		},
	})
	for off := 0; off < len(recs); off += chunk {
		end := off + chunk
		if end > len(recs) {
			end = len(recs)
		}
		if err := s.FeedBatch(recs[off:end]); err != nil {
			t.Fatal(err)
		}
	}
	return s.Finish(), events
}

func TestStreamChunkDeterminism(t *testing.T) {
	n := 1500
	if testing.Short() {
		n = 300
	}
	recs := regimeRecords(n, n/6, 10, nil)

	for _, duty := range []int{1, 10} {
		duty := duty
		t.Run(fmt.Sprintf("duty%d", duty), func(t *testing.T) {
			refRep, refEvents := runChunked(t, recs, 1, duty)
			if len(refRep.Phases) < 2 {
				t.Fatalf("reference run found %d phases; generator broken", len(refRep.Phases))
			}
			for _, chunk := range []int{7, 1000} {
				rep, events := runChunked(t, recs, chunk, duty)
				if !reflect.DeepEqual(rep, refRep) {
					t.Fatalf("chunk=%d report differs from record-at-a-time reference:\n got %+v\nwant %+v",
						chunk, rep, refRep)
				}
				if !reflect.DeepEqual(events, refEvents) {
					t.Fatalf("chunk=%d event sequence differs from reference", chunk)
				}
			}
		})
	}
}

func TestStreamDutyCycleSubsetOfFull(t *testing.T) {
	// Duty sampling must not invent boundaries: with clean regimes the
	// sampled run's boundary set lies within one duty interval of the
	// full run's, and every phase keeps its share of the run's time to
	// within 10% (relative), the shares still summing to 1.
	for _, n := range []int{600, 10_000} {
		recs := regimeRecords(n, n/4, 10, nil)
		full, _ := runChunked(t, recs, 1, 1)
		sampled, _ := runChunked(t, recs, 1, 10)
		fb, sb := full.Boundaries(), sampled.Boundaries()
		if len(fb) != len(sb) {
			t.Fatalf("n=%d: full found %d boundaries, sampled %d", n, len(fb), len(sb))
		}
		for i := range fb {
			d := fb[i] - sb[i]
			if d < 0 {
				d = -d
			}
			if d > 10 {
				t.Fatalf("n=%d boundary %d: full at step %d, sampled at %d (>1 duty interval apart)", n, i, fb[i], sb[i])
			}
		}
		var sum float64
		for i, fp := range full.Phases {
			want := fp.TimeShare(full.TotalTime)
			got := sampled.Phases[i].TimeShare(sampled.TotalTime)
			if math.Abs(got-want) > 0.10*want {
				t.Fatalf("n=%d phase %d: time share %.4f at duty 1/10, %.4f at full rate (>10%% apart)", n, i, got, want)
			}
			sum += got
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("n=%d: time shares at duty 1/10 sum to %v, want 1", n, sum)
		}
	}
}
