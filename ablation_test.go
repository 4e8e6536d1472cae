package tpupoint

// Ablation studies for the design choices DESIGN.md calls out: what the
// XLA fusion pass buys, what PCA buys the clustering, and how prefetch
// depth shapes TPU idle time. Each has a correctness test (the direction
// must hold) and a benchmark (the cost of the ablated configuration).

import (
	"testing"

	"repro/internal/core/cluster"
	"repro/internal/estimator"
	"repro/internal/tpu"
	"repro/internal/trace"
	"repro/internal/workloads"
	"repro/internal/xla"
)

// --- Fusion ablation -------------------------------------------------------

// compileBoth compiles a workload's train graph with and without fusion.
func compileBoth(t testing.TB, name string) (fused, unfused *xla.Program) {
	t.Helper()
	w := workloads.MustGet(name)
	var err error
	fused, err = xla.Compile(w.TrainGraph)
	if err != nil {
		t.Fatal(err)
	}
	unfused, err = xla.CompileWithOptions(w.TrainGraph, xla.Options{DisableFusion: true})
	if err != nil {
		t.Fatal(err)
	}
	return fused, unfused
}

func TestAblationFusionReducesTrafficAndTime(t *testing.T) {
	for _, name := range []string{"bert-squad", "resnet-imagenet"} {
		fused, unfused := compileBoth(t, name)
		if fused.TotalFLOPs() != unfused.TotalFLOPs() {
			t.Fatalf("%s: fusion changed FLOPs: %d vs %d",
				name, fused.TotalFLOPs(), unfused.TotalFLOPs())
		}
		if fused.TotalBytes() >= unfused.TotalBytes() {
			t.Fatalf("%s: fusion did not reduce HBM traffic: %d vs %d",
				name, fused.TotalBytes(), unfused.TotalBytes())
		}
		if len(fused.Instructions) >= len(unfused.Instructions) {
			t.Fatalf("%s: fusion did not reduce instruction count", name)
		}
		// Device-level effect: the fused program's step is faster.
		dev := tpu.NewDevice(tpu.NewChipSpec(tpu.V2), 0)
		if err := dev.LoadProgram(fused); err != nil {
			t.Fatal(err)
		}
		tFused := dev.StepBusyTime()
		if err := dev.LoadProgram(unfused); err != nil {
			t.Fatal(err)
		}
		tUnfused := dev.StepBusyTime()
		if tFused >= tUnfused {
			t.Fatalf("%s: fused step %v not faster than unfused %v", name, tFused, tUnfused)
		}
	}
}

func BenchmarkAblationCompileFused(b *testing.B) {
	w := workloads.MustGet("bert-squad")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := xla.Compile(w.TrainGraph); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationCompileUnfused(b *testing.B) {
	w := workloads.MustGet("bert-squad")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := xla.CompileWithOptions(w.TrainGraph, xla.Options{DisableFusion: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- PCA ablation ----------------------------------------------------------

func stepFeatures(t testing.TB) *cluster.Matrix {
	t.Helper()
	w := workloads.MustGet("dcgan-cifar10")
	r, err := estimator.New(w, estimator.Options{Steps: 250})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	rec := trace.Reduce(0, 0, r.Events(), r.IdleFraction(), r.MXUUtilization())
	steps := trace.AggregateSteps([]*trace.ProfileRecord{rec})
	m, _ := cluster.Features(steps, 0)
	cluster.Standardize(m, 0)
	return m
}

func TestAblationPCAPreservesClusteringQuality(t *testing.T) {
	m := stepFeatures(t)
	reduced := cluster.PCA(m, 20, 0)
	full, err := cluster.KMeans(m, 5, 1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	red, err := cluster.KMeans(reduced, 5, 1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Both clusterings must keep the training steps in one dominant
	// cluster (the phase structure survives the projection).
	if maxSize(full.Sizes) < m.Rows/2 {
		t.Fatalf("full-dim clustering lost the training cluster: %v", full.Sizes)
	}
	if maxSize(red.Sizes) < m.Rows/2 {
		t.Fatalf("PCA clustering lost the training cluster: %v", red.Sizes)
	}
	if reduced.Cols >= m.Cols {
		t.Fatalf("PCA did not reduce dims: %d vs %d", reduced.Cols, m.Cols)
	}
}

func maxSize(sizes []int) int {
	max := 0
	for _, s := range sizes {
		if s > max {
			max = s
		}
	}
	return max
}

func BenchmarkAblationKMeansWithPCA(b *testing.B) {
	m := stepFeatures(b)
	reduced := cluster.PCA(m, 20, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cluster.KMeans(reduced, 5, 1, 0, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationKMeansWithoutPCA(b *testing.B) {
	m := stepFeatures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cluster.KMeans(m, 5, 1, 0, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// --- iterations_per_loop ablation --------------------------------------------

// idleAtLoopIters runs QANet with the given iterations_per_loop — the
// TPUEstimator parameter in Table I's DCGAN row. Each loop boundary
// serializes the TPU against a host outfeed dequeue and session
// bookkeeping, so tiny values devastate utilization.
func idleAtLoopIters(t testing.TB, iters int) float64 {
	t.Helper()
	w := workloads.MustGet("qanet-squad")
	w.IterationsPerLoop = iters
	r, err := estimator.New(w, estimator.Options{Steps: 220, DisableEval: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	return r.IdleFraction()
}

func TestAblationIterationsPerLoop(t *testing.T) {
	d1 := idleAtLoopIters(t, 1)
	d10 := idleAtLoopIters(t, 10)
	d100 := idleAtLoopIters(t, 100)
	if d1 <= d10 || d10 <= d100 {
		t.Fatalf("idle not monotone in loop serialization: ipl1=%.3f ipl10=%.3f ipl100=%.3f", d1, d10, d100)
	}
	if d1-d100 < 0.10 {
		t.Fatalf("per-step sync costs only %.3f idle; expected a dominant effect", d1-d100)
	}
}

func BenchmarkAblationIterPerLoop1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		idleAtLoopIters(b, 1)
	}
}

func BenchmarkAblationIterPerLoop100(b *testing.B) {
	for i := 0; i < b.N; i++ {
		idleAtLoopIters(b, 100)
	}
}
