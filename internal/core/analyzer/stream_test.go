package analyzer

import (
	"strings"
	"testing"

	"repro/internal/simclock"
	"repro/internal/trace"
)

// streamRegimes are four recurring op mixes with empty pairwise
// intersections, so within-regime StepSimilarity is 1 and cross-regime
// is 0 — crisp phase boundaries for the streaming tests.
var streamRegimes = [][]string{
	{"InfeedDequeueTuple", "fusion", "Conv2D"},
	{"AllReduce", "CrossReplicaSum", "fusion.1"},
	{"ArgMax", "Mean", "TopKV2"},
	{"OutfeedEnqueue", "Reshape", "Slice"},
}

// regimeRecords generates 2 records per step (each holding half the
// step's events) so every step straddles a record boundary and
// exercises the cross-window merge path. Each record's OpenStep is the
// profile service's: the step itself after its first half, the next
// step after its second. opDur is the per-event duration; stepDur
// overrides it for the listed steps (degradation tests).
func regimeRecords(n, regimeLen int, opDur simclock.Duration, slow map[int64]simclock.Duration) []*trace.ProfileRecord {
	recs := make([]*trace.ProfileRecord, 0, 2*n)
	var seq int64
	ts := simclock.Time(0)
	for s := 0; s < n; s++ {
		step := int64(s)
		dur := opDur
		if d, ok := slow[step]; ok {
			dur = d
		}
		ops := streamRegimes[(s/regimeLen)%len(streamRegimes)]
		var first, second []trace.Event
		for i, op := range ops {
			ev := trace.Event{Name: op, Device: trace.TPU, Start: ts, Dur: dur, Step: step}
			if i <= len(ops)/2 {
				first = append(first, ev)
			} else {
				second = append(second, ev)
			}
			ts = ts.Add(dur)
		}
		recs = append(recs, trace.Reduce(seq, first[0].Start, first, 0.1, 0.5))
		recs[len(recs)-1].OpenStep = step
		seq++
		recs = append(recs, trace.Reduce(seq, second[0].Start, second, 0.1, 0.5))
		recs[len(recs)-1].OpenStep = step + 1
		seq++
	}
	return recs
}

func TestStreamMatchesBatchOLSBoundaries(t *testing.T) {
	recs := regimeRecords(200, 25, 10, nil)

	s := NewStream("test", StreamOptions{})
	if err := s.FeedBatch(recs); err != nil {
		t.Fatal(err)
	}
	rep := s.Finish()

	steps := trace.AggregateSteps(recs)
	batch := OLS(steps, DefaultThreshold)

	if len(rep.Phases) != len(batch) {
		t.Fatalf("stream found %d phases, batch OLS found %d", len(rep.Phases), len(batch))
	}
	for i, p := range rep.Phases {
		bFirst := batch[i].Steps[0].Step
		bLast := batch[i].Steps[len(batch[i].Steps)-1].Step
		if p.FirstStep != bFirst || p.LastStep != bLast {
			t.Fatalf("phase %d spans [%d,%d], batch says [%d,%d]",
				i, p.FirstStep, p.LastStep, bFirst, bLast)
		}
		if p.Total != batch[i].Total {
			t.Fatalf("phase %d total %d, batch %d", i, p.Total, batch[i].Total)
		}
	}
	if rep.StepsSeen != 200 || rep.Steps != 200 {
		t.Fatalf("StepsSeen=%d Steps=%d, want 200/200", rep.StepsSeen, rep.Steps)
	}
	if rep.Records != int64(len(recs)) {
		t.Fatalf("Records=%d, want %d", rep.Records, len(recs))
	}
}

func TestStreamEventsAndSignatures(t *testing.T) {
	var opens, closes int
	var lastClosed *StreamPhase
	opts := StreamOptions{OnEvent: func(ev StreamEvent) {
		switch ev.Kind {
		case PhaseOpen:
			opens++
		case PhaseClose:
			closes++
			lastClosed = ev.Phase
		}
	}}
	s := NewStream("test", opts)
	if err := s.FeedBatch(regimeRecords(120, 30, 10, nil)); err != nil {
		t.Fatal(err)
	}
	rep := s.Finish()

	if opens != 4 || closes != 4 {
		t.Fatalf("opens=%d closes=%d, want 4/4", opens, closes)
	}
	if len(rep.Phases) != 4 {
		t.Fatalf("phases = %d, want 4", len(rep.Phases))
	}
	if lastClosed == nil || len(lastClosed.Signature) == 0 {
		t.Fatal("PhaseClose event carried no op-mix signature")
	}
	var share float64
	for _, os := range lastClosed.Signature {
		share += os.Share
	}
	if share < 0.99 || share > 1.01 {
		t.Fatalf("signature shares sum to %g, want ~1", share)
	}
	for i := 1; i < len(lastClosed.Signature); i++ {
		if lastClosed.Signature[i].Share > lastClosed.Signature[i-1].Share {
			t.Fatal("signature not sorted by descending share")
		}
	}
	// Phase ops map must be released at close; only the signature stays.
	for _, p := range rep.Phases {
		if p.ops != nil {
			t.Fatal("closed phase retains its op aggregate map")
		}
	}
	if got := rep.Boundaries(); len(got) != 3 || got[0] != 30 || got[1] != 60 || got[2] != 90 {
		t.Fatalf("boundaries = %v, want [30 60 90]", got)
	}
}

func TestStreamDutyCycle(t *testing.T) {
	recs := regimeRecords(400, 100, 10, nil)
	s := NewStream("test", StreamOptions{DutyCycle: 10})
	if err := s.FeedBatch(recs); err != nil {
		t.Fatal(err)
	}
	rep := s.Finish()
	if rep.StepsSeen != 400 {
		t.Fatalf("StepsSeen = %d, want 400", rep.StepsSeen)
	}
	if rep.Steps != 40 {
		t.Fatalf("sampled Steps = %d, want 40 at duty 1/10", rep.Steps)
	}
	// Four clean regimes of 100 steps: sampling every 10th step still
	// sees each regime's op set, so the boundary count survives.
	if len(rep.Phases) != 4 {
		t.Fatalf("phases = %d, want 4 at duty 1/10", len(rep.Phases))
	}
	if rep.DutyCycle != 10 {
		t.Fatalf("report DutyCycle = %d", rep.DutyCycle)
	}
}

// TestStreamFragmentBelowWatermarkIsAnError: once a record's OpenStep
// has sealed a step, a fragment of it breaks the record contract. Feed
// names the step, and the analysis is as if the record never came.
func TestStreamFragmentBelowWatermarkIsAnError(t *testing.T) {
	recs := regimeRecords(20, 20, 10, nil)
	s := NewStream("test", StreamOptions{})
	if err := s.FeedBatch(recs); err != nil {
		t.Fatal(err)
	}
	late := trace.Reduce(999, 0, []trace.Event{
		{Name: "straggler", Device: trace.Host, Start: 0, Dur: 5, Step: 1},
		{Name: "fusion", Device: trace.TPU, Start: 5, Dur: 5, Step: 25},
	}, 0, 0)
	err := s.Feed(late)
	if err == nil || !strings.Contains(err.Error(), "step 1,") {
		t.Fatalf("Feed of a fragment of sealed step 1 returned %v, want an error naming the step", err)
	}
	rep := s.Finish()
	if rep.StepsSeen != 20 || rep.Records != int64(len(recs)) {
		t.Fatalf("StepsSeen = %d, Records = %d; want 20 and %d, the refused record unseen",
			rep.StepsSeen, rep.Records, len(recs))
	}
}

func TestStreamGapRecords(t *testing.T) {
	s := NewStream("test", StreamOptions{})
	if err := s.Feed(&trace.ProfileRecord{Seq: 0, Gap: true}); err != nil {
		t.Fatal(err)
	}
	if err := s.FeedBatch(regimeRecords(10, 10, 10, nil)); err != nil {
		t.Fatal(err)
	}
	rep := s.Finish()
	if rep.Gaps != 1 {
		t.Fatalf("Gaps = %d, want 1", rep.Gaps)
	}
	if len(rep.Phases) != 1 {
		t.Fatalf("phases = %d, want 1", len(rep.Phases))
	}
}

func TestStreamDegradationEvent(t *testing.T) {
	slow := map[int64]simclock.Duration{30: 100} // 10x the usual op time
	var degradedAt int64 = -1
	opts := StreamOptions{OnEvent: func(ev StreamEvent) {
		if ev.Kind == StepDegraded {
			degradedAt = ev.Step
		}
	}}
	s := NewStream("test", opts)
	if err := s.FeedBatch(regimeRecords(40, 40, 10, slow)); err != nil {
		t.Fatal(err)
	}
	rep := s.Finish()
	if degradedAt != 30 {
		t.Fatalf("degradation flagged at step %d, want 30", degradedAt)
	}
	if len(rep.Phases) != 1 || rep.Phases[0].Degraded != 1 {
		t.Fatalf("phases=%d degraded=%v, want one phase with Degraded=1",
			len(rep.Phases), rep.Phases)
	}
}

func TestStreamBoundedState(t *testing.T) {
	// Same phase count (8 regimes) at 10x the run length: resident
	// state must stay flat — O(seal window + closed phases), never
	// O(records).
	state := func(n int) int64 {
		s := NewStream("test", StreamOptions{})
		if err := s.FeedBatch(regimeRecords(n, n/8, 10, nil)); err != nil {
			t.Fatal(err)
		}
		defer s.Finish()
		return s.StateBytes()
	}
	small, large := state(400), state(4000)
	if large > 2*small {
		t.Fatalf("state grew %d -> %d bytes over a 10x longer run; want bounded", small, large)
	}
}

func TestStreamFinishTerminal(t *testing.T) {
	s := NewStream("test", StreamOptions{})
	if err := s.FeedBatch(regimeRecords(10, 10, 10, nil)); err != nil {
		t.Fatal(err)
	}
	r1 := s.Finish()
	r2 := s.Finish()
	if r1 != r2 {
		t.Fatal("second Finish returned a different report")
	}
	if err := s.Feed(&trace.ProfileRecord{Seq: 99}); err == nil {
		t.Fatal("Feed after Finish should error")
	}
}
