package estimator

import (
	"testing"
	"testing/quick"

	"repro/internal/tpu"
	"repro/internal/workloads"
)

// Run-level invariants that must hold for every workload and generation.

func TestInvariantStepTimingsOrdered(t *testing.T) {
	for _, name := range []string{"bert-squad", "dcgan-cifar10", "retinanet-coco"} {
		r := quickRun(t, name, Options{Steps: 120})
		ts := r.StepTimings()
		if len(ts) == 0 {
			t.Fatalf("%s: no step timings", name)
		}
		for i, st := range ts {
			if st.End <= st.Start {
				t.Fatalf("%s: step %d has non-positive span", name, st.Step)
			}
			if st.Idle < 0 || st.MXUBusy < 0 {
				t.Fatalf("%s: step %d negative accounting", name, st.Step)
			}
			if i > 0 && st.Start < ts[i-1].End {
				t.Fatalf("%s: step %d overlaps predecessor", name, st.Step)
			}
		}
	}
}

func TestInvariantIdentityMetricsAgree(t *testing.T) {
	// The run-level idle fraction must equal the timing-derived one.
	r := quickRun(t, "bert-cola", Options{Steps: 150})
	ts := r.StepTimings()
	var idle, span int64
	first := ts[0].Start
	last := ts[len(ts)-1].End
	for _, st := range ts {
		idle += int64(st.Idle)
	}
	span = int64(last - first)
	derived := float64(idle) / float64(span)
	got := r.IdleFraction()
	if diff := derived - got; diff > 0.02 || diff < -0.02 {
		t.Fatalf("idle metrics disagree: derived %.4f vs reported %.4f", derived, got)
	}
}

func TestInvariantEventsWithinRun(t *testing.T) {
	r := quickRun(t, "dcgan-mnist", Options{Steps: 100})
	end := r.Now()
	for _, e := range runEvents(r) {
		if e.Start < 0 || e.Dur < 0 {
			t.Fatalf("event %q has negative time", e.Name)
		}
		if e.Start > end {
			t.Fatalf("event %q starts after the run ends (%d > %d)", e.Name, e.Start, end)
		}
	}
}

func TestInvariantSeedIsolation(t *testing.T) {
	// Different seeds change jitter but not the structural outputs.
	a := quickRun(t, "bert-mrpc", Options{Steps: 100, Seed: 1})
	b := quickRun(t, "bert-mrpc", Options{Steps: 100, Seed: 2})
	if a.TotalTime() == b.TotalTime() {
		t.Fatal("different seeds produced identical total time (no jitter?)")
	}
	// But the structure matches: same step count, same op-name universe.
	if len(a.StepTimings()) != len(b.StepTimings()) {
		t.Fatal("seed changed step count")
	}
	ratio := float64(a.TotalTime()) / float64(b.TotalTime())
	if ratio < 0.9 || ratio > 1.1 {
		t.Fatalf("seed changed total time by %.2fx; jitter should be small", ratio)
	}
}

// Property: for any (workload, steps) pair, the device is never reported
// >100% busy and MXU occupancy never exceeds the busy span.
func TestPropertyUtilizationBounds(t *testing.T) {
	names := workloads.Names()
	f := func(wRaw, sRaw uint8, v3 bool) bool {
		name := names[int(wRaw)%len(names)]
		steps := 30 + int(sRaw)%90
		version := tpu.V2
		if v3 {
			version = tpu.V3
		}
		w := workloads.MustGet(name)
		r, err := New(w, Options{Steps: steps, Version: version})
		if err != nil {
			return false
		}
		if err := r.Run(); err != nil {
			return false
		}
		idle, mxu := r.IdleFraction(), r.MXUUtilization()
		return idle >= 0 && idle < 1 && mxu > 0 && mxu < 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}
