package experiments

// The streaming-fidelity benchmark behind `paperbench -stream-bench`:
// the correctness contract for the streaming phase analyzer. It streams
// a synthetic multi-regime run through analyzer.NewStream via
// archive.Iter — exactly the production read path — at duty cycles 1
// and 1/10, scores the result against the batch OLS analyzer on the
// same records (phase-boundary F1, per-phase time-share MAPE), and
// records the analyzer's resident state bytes at every run length. It
// emits a BENCH_stream.json in the same document shape as the other
// harnesses, so cmd/benchdiff gates it across PRs with -min-stream-f1
// and -max-share-mape.

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/archive"
	"repro/internal/core/analyzer"
	"repro/internal/simclock"
	"repro/internal/trace"
)

// StreamBenchSizes is the run-length sweep (records ≈ steps). All
// sizes run in quick mode too; quick only shortens the measurement
// window. The largest size is the acceptance instance: 1e5 records
// through archive.Iter with bounded resident state.
var StreamBenchSizes = []int{1_000, 10_000, 100_000}

// StreamBenchDuties are the profile duty cycles scored: full-rate and
// the 1/10 sampling the fidelity gate targets.
var StreamBenchDuties = []int{1, 10}

// streamStateGrowthLimit bounds how much the analyzer's resident state
// may grow across the full size sweep (100x more records). The state is
// O(seal window + k + phases), so anything near the record-count ratio
// means a retention bug; 8x leaves room for the phase list.
const streamStateGrowthLimit = 8.0

// RunStreamBench scores the streaming analyzer against the batch OLS
// reference and times both paths. quick shortens the measurement window
// for CI smoke runs; fidelity scores are identical either way (the
// streaming path is deterministic).
func RunStreamBench(sizes []int, quick bool) (*AnalyzerBenchReport, error) {
	if len(sizes) == 0 {
		sizes = StreamBenchSizes
	}
	minTime := 500 * time.Millisecond
	if quick {
		minTime = 100 * time.Millisecond
	}
	rep := &AnalyzerBenchReport{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Quick:      quick,
		Speedups:   map[string]float64{},
	}

	stateBytes := map[int]float64{}
	for _, n := range sizes {
		recs := streamBenchRecords(n)
		blob := streamBenchArchive(recs)

		// Batch reference: the post-hoc analyzer on the same records.
		steps := trace.AggregateSteps(recs)
		batch := analyzer.OLS(steps, analyzer.DefaultThreshold)
		if len(batch) < 2 {
			return nil, fmt.Errorf("stream-bench: generator produced %d batch phases at n=%d", len(batch), n)
		}
		batchFn := func() error {
			if got := analyzer.OLS(steps, analyzer.DefaultThreshold); len(got) != len(batch) {
				return fmt.Errorf("unstable batch phase count")
			}
			return nil
		}
		iters, nsPerOp, err := measure(minTime, batchFn)
		if err != nil {
			return nil, fmt.Errorf("stream-bench: batch_ols n=%d: %w", n, err)
		}
		rep.Entries = append(rep.Entries, AnalyzerBenchEntry{
			Kernel: "batch_ols", Mode: "serial", N: n, Workers: 1,
			Iters: iters, NsPerOp: nsPerOp, StepsPerSec: float64(n) * 1e9 / nsPerOp,
		})

		for _, duty := range StreamBenchDuties {
			var last *analyzer.StreamReport
			var lastState int64
			streamFn := func() error {
				s := analyzer.NewStream("stream-bench", analyzer.StreamOptions{DutyCycle: duty})
				a, err := archive.Open(blob)
				if err != nil {
					return err
				}
				it := a.Iter()
				for it.Next() {
					if err := s.Feed(it.Record()); err != nil {
						return err
					}
				}
				if err := it.Err(); err != nil {
					return err
				}
				lastState = s.StateBytes()
				last = s.Finish()
				return nil
			}
			iters, nsPerOp, err := measure(minTime, streamFn)
			if err != nil {
				return nil, fmt.Errorf("stream-bench: stream_analyze duty=%d n=%d: %w", duty, n, err)
			}
			rep.Entries = append(rep.Entries, AnalyzerBenchEntry{
				Kernel: "stream_analyze", Mode: fmt.Sprintf("duty%d", duty), N: n, Workers: 1,
				Iters: iters, NsPerOp: nsPerOp, StepsPerSec: float64(n) * 1e9 / nsPerOp,
			})

			f1 := boundaryF1(streamBoundaries(last), batchBoundaries(batch), int64(duty))
			mape := shareMAPE(last, batch)
			rep.Speedups[fmt.Sprintf("stream_boundary_f1_duty%d_n%d", duty, n)] = f1
			rep.Speedups[fmt.Sprintf("stream_share_mape_duty%d_n%d", duty, n)] = mape
			if duty == 1 {
				stateBytes[n] = float64(lastState)
				rep.Speedups[fmt.Sprintf("stream_state_bytes_n%d", n)] = float64(lastState)
			}
		}
	}

	// Bounded-memory check across the sweep: resident state must not
	// track run length.
	small, okS := stateBytes[sizes[0]]
	large, okL := stateBytes[sizes[len(sizes)-1]]
	if okS && okL && small > 0 {
		growth := large / small
		rep.Speedups["stream_state_growth"] = growth
		if growth > streamStateGrowthLimit {
			return nil, fmt.Errorf("stream-bench: resident state grew %.1fx over a %dx record sweep (limit %gx) — retention bug",
				growth, sizes[len(sizes)-1]/sizes[0], streamStateGrowthLimit)
		}
	}
	return rep, nil
}

// streamBenchArchive encodes the records as one TPAR blob, the form the
// streaming pass iterates.
func streamBenchArchive(recs []*trace.ProfileRecord) []byte {
	w := archive.NewWriter(archive.Meta{RunID: "stream-bench", Workload: "synthetic"})
	for _, r := range recs {
		w.Add(r)
	}
	return w.Finalize(nil)
}

// streamBenchRegimes are four op mixes with empty pairwise
// intersections — the boundary ground truth is exact.
var streamBenchRegimes = [][]string{
	{"InfeedDequeueTuple", "fusion", "Conv2D"},
	{"AllReduce", "CrossReplicaSum", "fusion.1"},
	{"ArgMax", "Mean", "TopKV2"},
	{"OutfeedEnqueue", "Reshape", "Slice"},
}

// streamBenchRecords synthesizes an n-step run with regime changes at
// n/4, n/2, and 3n/4 — one record per step, op durations varying per
// regime and per step so the time-share comparison is non-trivial.
func streamBenchRecords(n int) []*trace.ProfileRecord {
	recs := make([]*trace.ProfileRecord, 0, n)
	var ts simclock.Time
	for i := 0; i < n; i++ {
		step := int64(i)
		regime := i * 4 / n
		if regime > 3 {
			regime = 3
		}
		base := simclock.Duration(200 + 150*regime)
		events := make([]trace.Event, 0, 3)
		for j, op := range streamBenchRegimes[regime] {
			dur := base + simclock.Duration(17*((i+j)%9))
			events = append(events, trace.Event{
				Name: op, Device: trace.TPU, Start: ts, Dur: dur, Step: step,
			})
			ts = ts.Add(dur)
		}
		recs = append(recs, trace.Reduce(int64(i), events[0].Start, events,
			0.1+0.05*float64(regime), 0.6-0.05*float64(regime)))
	}
	return recs
}

// streamBoundaries extracts the phase-boundary step numbers of a
// streaming report (first step of every phase after the first).
func streamBoundaries(rep *analyzer.StreamReport) []int64 { return rep.Boundaries() }

// batchBoundaries extracts the boundary steps of a batch OLS result.
func batchBoundaries(phases []*analyzer.Phase) []int64 {
	var out []int64
	for _, p := range phases[1:] {
		out = append(out, p.Steps[0].Step)
	}
	return out
}

// boundaryF1 scores predicted boundaries against reference ones with a
// matching tolerance in steps (the duty cycle: a sampled run can only
// localize a boundary to the nearest sampled step). Greedy one-to-one
// matching over the sorted lists.
func boundaryF1(pred, ref []int64, tol int64) float64 {
	if len(pred) == 0 && len(ref) == 0 {
		return 1
	}
	if len(pred) == 0 || len(ref) == 0 {
		return 0
	}
	used := make([]bool, len(ref))
	matched := 0
	for _, p := range pred {
		for i, r := range ref {
			if used[i] {
				continue
			}
			d := p - r
			if d < 0 {
				d = -d
			}
			if d <= tol {
				used[i] = true
				matched++
				break
			}
		}
	}
	precision := float64(matched) / float64(len(pred))
	recall := float64(matched) / float64(len(ref))
	if precision+recall == 0 {
		return 0
	}
	return 2 * precision * recall / (precision + recall)
}

// shareMAPE is the mean absolute percentage error of per-phase
// time shares, streaming vs batch. Each batch phase is aligned to the
// streaming phase with maximal step-interval overlap; the share is each
// phase's fraction of its own report's total, so duty-cycled runs
// compare like for like.
func shareMAPE(stream *analyzer.StreamReport, batch []*analyzer.Phase) float64 {
	var batchTotal simclock.Duration
	for _, p := range batch {
		batchTotal += p.Total
	}
	if batchTotal == 0 || stream.TotalTime == 0 || len(stream.Phases) == 0 {
		return 1
	}
	var sum float64
	var terms int
	for _, bp := range batch {
		bFirst, bLast := bp.Steps[0].Step, bp.Steps[len(bp.Steps)-1].Step
		var best *analyzer.StreamPhase
		var bestOverlap int64 = -1
		for _, sp := range stream.Phases {
			lo, hi := maxI64(bFirst, sp.FirstStep), minI64(bLast, sp.LastStep)
			if ov := hi - lo; ov > bestOverlap {
				bestOverlap, best = ov, sp
			}
		}
		bShare := float64(bp.Total) / float64(batchTotal)
		if bShare == 0 || best == nil {
			continue
		}
		sShare := best.TimeShare(stream.TotalTime)
		diff := sShare - bShare
		if diff < 0 {
			diff = -diff
		}
		sum += diff / bShare
		terms++
	}
	if terms == 0 {
		return 1
	}
	return sum / float64(terms)
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func minI64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
