package optimizer

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/host"
	"repro/internal/obs"
	"repro/internal/tpu"
	"repro/internal/workloads"
)

// optimize runs the optimizer on a shortened workload.
func optimize(t testing.TB, name string, naive bool, opts Options) *Result {
	t.Helper()
	w := workloads.MustGet(name)
	if naive {
		w = w.Naive()
	}
	if opts.Steps == 0 {
		opts.Steps = 250
	}
	res, err := Optimize(w, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// optimizeSequentially is Optimize with the baseline run finished before
// the tuned run starts, as it ran before the two ran side by side.
func optimizeSequentially(t testing.TB, w *workloads.Workload, opts Options) *Result {
	t.Helper()
	opts = opts.withDefaults()
	base, err := runOnce(w, opts, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	tn := &tuner{opts: opts, warmup: warmupSteps, axes: adjustableAxes(), cur: w.HostParams,
		spec: w.Spec(), m: newOTMetrics(opts.Obs)}
	opt, err := runOnce(w, opts, tn.onStep, instrumentationUs)
	if err != nil {
		t.Fatal(err)
	}
	return compare(w, opts, base, opt, tn)
}

// TestSideBySideRunsMatchSequential: every field of Optimize's result,
// its two runs side by side, equals the result of the runs one after the
// other, on naive and reference pipelines and both generations. Under
// -race it also shows the runs share nothing they write.
func TestSideBySideRunsMatchSequential(t *testing.T) {
	for _, tc := range []struct {
		name  string
		naive bool
		opts  Options
	}{
		{"qanet-squad", true, Options{Steps: 250}},
		{"bert-mrpc", false, Options{Steps: 150, Version: tpu.V3}},
		{"dcgan-mnist", true, Options{Steps: 120, Seed: 9}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := workloads.MustGet(tc.name)
			if tc.naive {
				w = w.Naive()
			}
			got, err := Optimize(w, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			if want := optimizeSequentially(t, w, tc.opts); !reflect.DeepEqual(got, want) {
				t.Fatalf("side by side:\n%+v\none after the other:\n%+v", got, want)
			}
		})
	}
}

func TestOptimizerImprovesNaiveWorkload(t *testing.T) {
	res := optimize(t, "qanet-squad", true, Options{})
	if res.MeasuredSpeedup < 1.3 {
		t.Fatalf("naive speedup = %.3f, want >= 1.3", res.MeasuredSpeedup)
	}
	if res.OptimizedIdle >= res.BaselineIdle {
		t.Fatalf("idle did not drop: %.3f -> %.3f", res.BaselineIdle, res.OptimizedIdle)
	}
	if res.OptimizedMXU <= res.BaselineMXU {
		t.Fatalf("MXU util did not rise: %.3f -> %.3f", res.BaselineMXU, res.OptimizedMXU)
	}
	if res.FinalParams == res.InitialParams {
		t.Fatal("no parameter was changed")
	}
	if res.FinalParams.DecodeThreads <= res.InitialParams.DecodeThreads {
		t.Fatalf("decode threads not raised: %+v", res.FinalParams)
	}
}

func TestOptimizerModestGainOnTunedWorkload(t *testing.T) {
	// The reference models are already hand-tuned; gains must exist but
	// stay modest (the paper's ~1.12× regime), and tuning must never
	// slow the measured steady state down much.
	res := optimize(t, "retinanet-coco", false, Options{Steps: 300})
	if res.MeasuredSpeedup < 1.0 {
		t.Fatalf("tuned workload regressed: %.3f", res.MeasuredSpeedup)
	}
	if res.MeasuredSpeedup > 1.4 {
		t.Fatalf("gain on hand-tuned workload suspiciously high: %.3f", res.MeasuredSpeedup)
	}
}

func TestOptimizerCriticalPhaseDetection(t *testing.T) {
	res := optimize(t, "dcgan-cifar10", true, Options{})
	if res.CriticalPhaseStep <= 0 {
		t.Fatal("critical phase never detected")
	}
	if res.CriticalPhaseStep > 60 {
		t.Fatalf("critical phase detected only at step %d", res.CriticalPhaseStep)
	}
}

func TestOptimizerCriticalPhaseDefersUntilTrainingDominates(t *testing.T) {
	// QANet's session init spans roughly five of its step periods, so for
	// the first few steps the init phase — not training — holds the
	// majority of aggregated execution time. With a warmup window that
	// ends before training dominates, the >50% gate must keep deferring;
	// the old bookkeeping fed every train step into both sides of the
	// comparison, which made the gate pass the moment warmup ended.
	res, err := optimizeWithWarmup(workloads.MustGet("qanet-squad"), Options{Steps: 250}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.CriticalPhaseStep <= 0 {
		t.Fatal("critical phase never detected")
	}
	if res.CriticalPhaseStep <= 2 {
		t.Fatalf("critical phase at step %d: gate fired the moment warmup ended, before training dominated", res.CriticalPhaseStep)
	}
}

func TestOptimizerHonorsWorkloadHostSpec(t *testing.T) {
	// A smaller host (2 cores → 4 SMT threads) must bound exploration:
	// the tuner used to clamp candidates against the hardcoded default
	// 16-core spec, so a workload on constrained hardware could be pushed
	// past its actual thread budget.
	w := workloads.MustGet("dcgan-cifar10").Naive()
	small := host.DefaultSpec()
	small.Cores = 2
	w.HostSpec = small
	res, err := Optimize(w, Options{Steps: 250})
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalParams.Clamp(small) != res.FinalParams {
		t.Fatalf("final params exceed the workload's host limits: %+v", res.FinalParams)
	}
	if res.FinalParams.DecodeThreads > 4 || res.FinalParams.ReaderThreads > 4 {
		t.Fatalf("thread counts exceed the 2-core host's 4-thread budget: %+v", res.FinalParams)
	}
}

func TestOptimizerMoveMetrics(t *testing.T) {
	// End-to-end through Optimize: the obs registry must agree with the
	// returned move history.
	reg := obs.NewRegistry(128)
	res := optimize(t, "qanet-squad", true, Options{Obs: reg})
	snap := reg.Snapshot()

	accepted, rolledBack := 0, 0
	for _, m := range res.Moves {
		if m.Accepted {
			accepted++
		} else {
			rolledBack++
		}
	}
	if got := snap.C("optimizer.probes.accepted"); got != int64(accepted) {
		t.Fatalf("accepted counter = %d, moves say %d", got, accepted)
	}
	if got := snap.C("optimizer.probes.rolled_back"); got != int64(rolledBack) {
		t.Fatalf("rolled_back counter = %d, moves say %d", got, rolledBack)
	}
	if got := snap.C("optimizer.restore.stalls"); got != int64(rolledBack) {
		t.Fatalf("restore stalls = %d, want one per rollback (%d)", got, rolledBack)
	}
	if got := snap.C("optimizer.probes.started"); got < int64(len(res.Moves)) {
		t.Fatalf("probes started = %d, fewer than %d finished moves", got, len(res.Moves))
	}
	if got := snap.Gauges["optimizer.critical_phase.step"]; got != res.CriticalPhaseStep {
		t.Fatalf("critical-phase gauge = %d, result says %d", got, res.CriticalPhaseStep)
	}
	moveEvents := 0
	for _, ev := range snap.Events {
		if ev.Scope == "optimizer" && ev.Name == "move" {
			moveEvents++
			if !strings.Contains(ev.Detail, "->") {
				t.Fatalf("move event lacks a from->to transition: %q", ev.Detail)
			}
		}
	}
	if moveEvents != len(res.Moves) {
		t.Fatalf("%d move events for %d moves", moveEvents, len(res.Moves))
	}
}

func TestOptimizerMovesRecorded(t *testing.T) {
	res := optimize(t, "qanet-squad", true, Options{})
	if len(res.Moves) == 0 {
		t.Fatal("no moves recorded")
	}
	accepted := 0
	for _, m := range res.Moves {
		if m.Param == "" || m.To == m.From {
			t.Fatalf("degenerate move %+v", m)
		}
		if m.Accepted {
			accepted++
			if m.PeriodAfter >= m.PeriodBefore {
				t.Fatalf("accepted move without improvement: %+v", m)
			}
		}
	}
	if accepted == 0 {
		t.Fatal("no move accepted on a naive workload")
	}
}

func TestOptimizerOutputUnchangedGuard(t *testing.T) {
	// The tuned run must keep validated parameters at every point; the
	// final configuration always validates and is within host limits.
	res := optimize(t, "bert-mrpc", true, Options{})
	if err := res.FinalParams.Validate(); err != nil {
		t.Fatalf("final params invalid: %v", err)
	}
	if res.FinalParams.Clamp(host.DefaultSpec()) != res.FinalParams {
		t.Fatal("final params exceed host limits")
	}
}

func TestProjectedSpeedupPenalizesShortRuns(t *testing.T) {
	// BERT-MRPC's full run is far below the post-processing cost: the
	// paper's "short workloads can take a performance hit".
	short := optimize(t, "bert-mrpc", false, Options{})
	if short.ProjectedSpeedup >= 1.0 {
		t.Fatalf("short workload projected %.3f, want < 1 (post-processing hit)", short.ProjectedSpeedup)
	}
	long := optimize(t, "retinanet-coco", false, Options{Steps: 300})
	if long.ProjectedSpeedup <= 1.0 {
		t.Fatalf("long workload projected %.3f, want > 1", long.ProjectedSpeedup)
	}
}

func TestAdjustableParams(t *testing.T) {
	// From naive settings everything has headroom.
	names := AdjustableParams(host.NaiveParams(), host.DefaultSpec())
	if len(names) != 5 {
		t.Fatalf("adjustable from naive = %v", names)
	}
	// A saturated parameter is excluded.
	p := host.DefaultParams()
	p.InfeedThreads = 8 // host cap
	names = AdjustableParams(p, host.DefaultSpec())
	for _, n := range names {
		if n == "InfeedThreads" {
			t.Fatal("saturated InfeedThreads still adjustable")
		}
	}
}

func TestOptimizeNilWorkload(t *testing.T) {
	if _, err := Optimize(nil, Options{}); err == nil {
		t.Fatal("nil workload accepted")
	}
}

func TestOptimizerV3StillHelps(t *testing.T) {
	// Structure holds on TPUv3 too — gains exist for naive code, and
	// MXU gains are smaller in absolute terms than on v2 (Figure 16's
	// "pronounced change" is a v2 phenomenon).
	v2 := optimize(t, "dcgan-cifar10", true, Options{Version: tpu.V2})
	v3 := optimize(t, "dcgan-cifar10", true, Options{Version: tpu.V3})
	if v3.MeasuredSpeedup < 1.2 {
		t.Fatalf("v3 naive speedup = %.3f", v3.MeasuredSpeedup)
	}
	d2 := v2.OptimizedMXU - v2.BaselineMXU
	d3 := v3.OptimizedMXU - v3.BaselineMXU
	if d3 >= d2 {
		t.Fatalf("MXU gain on v3 (%.3f) not smaller than v2 (%.3f)", d3, d2)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("odd median = %g", m)
	}
	if m := median([]float64{4, 1, 2, 3}); m != 2.5 {
		t.Fatalf("even median = %g", m)
	}
	if m := median(nil); m != 0 {
		t.Fatalf("empty median = %g", m)
	}
	// Robust to one large outlier.
	if m := median([]float64{10, 10, 10, 1000, 10}); m != 10 {
		t.Fatalf("outlier median = %g", m)
	}
}

func BenchmarkOptimizeNaiveDCGAN(b *testing.B) {
	w := workloads.MustGet("dcgan-cifar10").Naive()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Optimize(w, Options{Steps: 200}); err != nil {
			b.Fatal(err)
		}
	}
}

func TestOptimizerTooShortToTune(t *testing.T) {
	// A run shorter than the warmup window: the critical phase is never
	// confirmed, no tuning happens, and the result is still coherent.
	res := optimize(t, "dcgan-mnist", false, Options{Steps: 20})
	if len(res.Moves) != 0 {
		t.Fatalf("moves on a too-short run: %d", len(res.Moves))
	}
	if res.FinalParams != res.InitialParams {
		t.Fatal("params changed without tuning")
	}
	if res.MeasuredSpeedup <= 0 {
		t.Fatalf("speedup = %g", res.MeasuredSpeedup)
	}
}

func TestOptimizerSaturatedStart(t *testing.T) {
	// Starting from host-maximum parameters, every grow move is clamped:
	// the optimizer must terminate with zero accepted moves.
	w := workloads.MustGet("dcgan-cifar10")
	w.HostParams = host.Params{
		ReaderThreads: 32, DecodeThreads: 32, PrefetchDepth: 64,
		InfeedThreads: 8, ShuffleBuffer: 1 << 20,
	}
	res, err := Optimize(w, Options{Steps: 200})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range res.Moves {
		if m.Accepted {
			t.Fatalf("accepted a move from saturated params: %+v", m)
		}
	}
	if res.FinalParams != w.HostParams {
		t.Fatalf("saturated params changed: %+v", res.FinalParams)
	}
}
