// Package optimizer implements TPUPoint-Optimizer (Section VII): the
// online, automatic workload-tuning tool.
//
// The optimizer runs the workload under instrumentation and, once the
// training loop has entered its performance-critical phase, hill-climbs
// the program's *adjustable parameters* — the input-pipeline buffer sizes
// and thread counts — one at a time:
//
//   - Program analysis discovers the adjustable parameters and rejects any
//     whose altered values fail validation (the paper's "if any of these
//     adjustable parameters cause errors when altered, TPUPoint-Optimizer
//     will not treat them as adjustable").
//   - Critical-phase detection fires when the current phase accounts for
//     more than half of aggregated execution time (the paper's second
//     trigger; the first — seeing the infeed/fusion/reshape/outfeed
//     pattern — always coincides with it on these workloads).
//   - Each candidate value is probed for probeSteps steps; an accepted
//     move keeps pushing the same direction, a rejected one restores the
//     checkpointed value and charges a restore stall.
//   - While tuning, every step pays an instrumentation overhead (the
//     checkpoint-before-each-call instrumentation of Section VII-A).
//
// Results report both the measured speedup on the compressed simulation
// and the paper-scale projection (full PaperSteps run plus TPUPoint's
// fixed post-processing), which is what reproduces Figure 14's "only
// workloads over twenty minutes benefit" finding.
package optimizer

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/estimator"
	"repro/internal/host"
	"repro/internal/obs"
	"repro/internal/simclock"
	"repro/internal/tpu"
	"repro/internal/workloads"
)

// Options configure an optimization run.
type Options struct {
	Version tpu.Version
	Steps   int // override the workload's TrainSteps
	Seed    uint64

	// Obs, when set, receives the optimizer's metrics (probes started /
	// accepted / rolled back, restore stalls) and the per-axis move
	// history as structured events.
	Obs *obs.Registry
}

// The tuning policy and its cost model.
const (
	// warmupSteps is the observation window before tuning starts
	// (critical-phase detection needs history).
	warmupSteps = 30

	// probeSteps is how long each candidate parameter value is measured.
	probeSteps = 14

	// settleSteps are excluded from the head of each probe window so the
	// pipeline-restart transient after a parameter rewrite does not bias
	// the measurement.
	settleSteps = 4

	// improveEps is the minimum relative step-period improvement that
	// accepts a move.
	improveEps = 0.02

	// instrumentationUs is the per-step host overhead while the
	// optimizer is instrumenting and tuning.
	instrumentationUs = 250

	// restoreUs is the checkpoint-restore stall charged when a move is
	// rolled back (0.3s).
	restoreUs = 300_000

	// postProcessUs is TPUPoint's fixed post-run processing time, added
	// to the paper-scale projection (90s).
	postProcessUs = 90e6
)

func (o Options) withDefaults() Options {
	if o.Version == 0 {
		o.Version = tpu.V2
	}
	return o
}

// Move records one tuning decision.
type Move struct {
	Param        string
	From, To     int
	PeriodBefore float64 // mean step period µs over the probe window
	PeriodAfter  float64
	Accepted     bool
}

// Result summarizes an optimization run against its baseline.
type Result struct {
	Workload string
	Version  tpu.Version

	BaselineTime  simclock.Duration
	OptimizedTime simclock.Duration

	// MeasuredSpeedup compares the compressed simulation runs directly.
	MeasuredSpeedup float64

	// ProjectedSpeedup extrapolates both runs to the paper's full step
	// count using steady-state step periods and charges the optimizer's
	// fixed post-processing — Figure 14's metric.
	ProjectedSpeedup float64

	BaselineIdle, OptimizedIdle float64
	BaselineMXU, OptimizedMXU   float64

	InitialParams, FinalParams host.Params
	Moves                      []Move

	// CriticalPhaseStep is the step at which tuning engaged.
	CriticalPhaseStep int64
}

// axis is one adjustable parameter: how to read, write, and step it.
type axis struct {
	name string
	get  func(host.Params) int
	set  func(host.Params, int) host.Params
	grow func(int) int // next candidate in the growing direction
}

// adjustableAxes enumerates the tunable pipeline parameters, in the order
// the optimizer explores them.
func adjustableAxes() []axis {
	dbl := func(v int) int { return v * 2 }
	return []axis{
		{
			name: "DecodeThreads",
			get:  func(p host.Params) int { return p.DecodeThreads },
			set:  func(p host.Params, v int) host.Params { p.DecodeThreads = v; return p },
			grow: dbl,
		},
		{
			name: "PrefetchDepth",
			get:  func(p host.Params) int { return p.PrefetchDepth },
			set:  func(p host.Params, v int) host.Params { p.PrefetchDepth = v; return p },
			grow: dbl,
		},
		{
			name: "ReaderThreads",
			get:  func(p host.Params) int { return p.ReaderThreads },
			set:  func(p host.Params, v int) host.Params { p.ReaderThreads = v; return p },
			grow: dbl,
		},
		{
			name: "InfeedThreads",
			get:  func(p host.Params) int { return p.InfeedThreads },
			set:  func(p host.Params, v int) host.Params { p.InfeedThreads = v; return p },
			grow: func(v int) int { return v + 1 },
		},
		{
			name: "ShuffleBuffer",
			get:  func(p host.Params) int { return p.ShuffleBuffer },
			set:  func(p host.Params, v int) host.Params { p.ShuffleBuffer = v; return p },
			grow: dbl,
		},
	}
}

// AdjustableParams reports the parameter names the program analysis found
// tunable for the given starting parameters: a candidate whose first
// altered value fails validation or is clamped back is excluded.
func AdjustableParams(start host.Params, spec host.Spec) []string {
	var out []string
	for _, ax := range adjustableAxes() {
		cand := ax.set(start, ax.grow(ax.get(start)))
		if cand.Validate() != nil {
			continue
		}
		if cand.Clamp(spec) != cand {
			// The altered value is out of the host's supported range;
			// treat the parameter as saturated, not adjustable.
			continue
		}
		out = append(out, ax.name)
	}
	return out
}

// otMetrics are the optimizer's obs instruments (nil-safe).
type otMetrics struct {
	probesStarted *obs.Counter
	accepted      *obs.Counter
	rolledBack    *obs.Counter
	restoreStalls *obs.Counter
	criticalStep  *obs.Gauge
}

func newOTMetrics(r *obs.Registry) otMetrics {
	return otMetrics{
		probesStarted: r.Counter("optimizer.probes.started"),
		accepted:      r.Counter("optimizer.probes.accepted"),
		rolledBack:    r.Counter("optimizer.probes.rolled_back"),
		restoreStalls: r.Counter("optimizer.restore.stalls"),
		criticalStep:  r.Gauge("optimizer.critical_phase.step"),
	}
}

// tuner is the OnTrainStep state machine.
type tuner struct {
	opts   Options
	warmup int // steps observed before the critical-phase check
	axes   []axis
	spec   host.Spec // the workload's host — bounds every candidate value
	m      otMetrics

	state        int // 0 warmup, 1 tuning, 2 done
	lastEnd      simclock.Time
	window       []float64 // step periods in the current window
	baselineMean float64

	axisIdx   int
	probing   bool
	probeLeft int
	saved     host.Params
	cur       host.Params
	bestMean  float64

	criticalAt int64
	moves      []Move

	// Aggregated-time bookkeeping for critical-phase detection.
	totalTime simclock.Duration
	phaseTime simclock.Duration
}

const (
	stWarmup = iota
	stTuning
	stDone
)

func (t *tuner) onStep(r *estimator.Runner, step int64, st tpu.StepTiming) {
	period := float64(st.End.Sub(t.lastEnd))
	if t.lastEnd == 0 {
		period = float64(st.End.Sub(st.Start))
	}
	t.lastEnd = st.End

	stepSpan := st.End.Sub(st.Start) + st.Idle
	t.phaseTime += stepSpan // the training phase: every train step belongs
	// Aggregated execution time spans *all* phases: init, eval blocks,
	// checkpoint and summary writes (from the runner) plus training.
	// Summing only train steps into both sides made the >50% gate
	// vacuously true from the very first step.
	t.totalTime = t.phaseTime + r.NonTrainTime()

	switch t.state {
	case stWarmup:
		t.window = append(t.window, period)
		if len(t.window) < t.warmup {
			return
		}
		// Critical-phase rule: the current phase holds >50% of aggregated
		// execution time. Training dominates by now.
		if float64(t.phaseTime) <= 0.5*float64(t.totalTime) {
			return
		}
		// Median, not mean: checkpoint and summary stalls land on a few
		// steps and would otherwise swamp the comparison.
		t.baselineMean = median(t.window)
		t.bestMean = t.baselineMean
		t.criticalAt = step
		t.m.criticalStep.Set(step)
		t.opts.Obs.Emit("optimizer", "critical-phase",
			fmt.Sprintf("tuning engaged at step %d (train share %.0f%%)",
				step, 100*float64(t.phaseTime)/float64(t.totalTime)))
		t.state = stTuning
		t.startProbe(r, step)
	case stTuning:
		t.probeLeft--
		if t.probeLeft < probeSteps-settleSteps {
			// Past the settle window: this step counts.
			t.window = append(t.window, period)
		}
		if t.probeLeft > 0 {
			return
		}
		t.finishProbe(r, step, median(t.window))
	}
}

// startProbe moves to the next candidate value (or the next axis) and
// begins measuring.
func (t *tuner) startProbe(r *estimator.Runner, step int64) {
	for t.axisIdx < len(t.axes) {
		ax := t.axes[t.axisIdx]
		cand := ax.set(t.cur, ax.grow(ax.get(t.cur)))
		if cand.Validate() != nil || cand.Clamp(t.spec) != cand {
			// Not adjustable (or saturated): next axis.
			t.axisIdx++
			continue
		}
		t.saved = t.cur
		t.cur = cand
		if err := r.SetHostParams(cand); err != nil {
			// The rewrite failed outright; the parameter is not
			// adjustable. Try the next axis.
			t.cur = t.saved
			t.axisIdx++
			continue
		}
		t.window = t.window[:0]
		t.probeLeft = probeSteps
		t.probing = true
		t.m.probesStarted.Inc()
		return
	}
	// All axes explored: tuning complete. Instrumentation comes off.
	t.state = stDone
	r.SetStepOverheadUs(0)
}

// finishProbe accepts or rolls back the probed value, then continues.
func (t *tuner) finishProbe(r *estimator.Runner, step int64, mean float64) {
	ax := t.axes[t.axisIdx]
	mv := Move{
		Param:        ax.name,
		From:         ax.get(t.saved),
		To:           ax.get(t.cur),
		PeriodBefore: t.bestMean,
		PeriodAfter:  mean,
	}
	if mean < t.bestMean*(1-improveEps) {
		// Improved: keep it and push the same direction.
		mv.Accepted = true
		t.bestMean = mean
		t.m.accepted.Inc()
	} else {
		// No better than the incumbent: restore from checkpoint and move
		// to the next parameter.
		if err := r.SetHostParams(t.saved); err == nil {
			t.cur = t.saved
		}
		r.Stall(simclock.Duration(restoreUs), step)
		t.axisIdx++
		t.m.rolledBack.Inc()
		t.m.restoreStalls.Inc()
	}
	verdict := "rolled-back"
	if mv.Accepted {
		verdict = "accepted"
	}
	t.opts.Obs.Emit("optimizer", "move",
		fmt.Sprintf("%s %d->%d %s (period %.0fus -> %.0fus)",
			mv.Param, mv.From, mv.To, verdict, mv.PeriodBefore, mv.PeriodAfter))
	t.moves = append(t.moves, mv)
	t.startProbe(r, step)
}

// Optimize runs the workload twice — baseline and optimizer-instrumented —
// and reports the comparison.
func Optimize(w *workloads.Workload, opts Options) (*Result, error) {
	return optimizeWithWarmup(w, opts, warmupSteps)
}

// optimizeWithWarmup is Optimize with the given observation window.
func optimizeWithWarmup(w *workloads.Workload, opts Options, warmup int) (*Result, error) {
	if w == nil {
		return nil, errors.New("optimizer: nil workload")
	}
	opts = opts.withDefaults()

	// The two runs share only what neither writes: the workload, its
	// compiled programs (each run's device prices them on its own) and
	// the starting parameters, which each run copies. So they run side by
	// side.
	var base *estimator.Runner
	var baseErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		base, baseErr = runOnce(w, opts, nil, 0)
	}()
	tn := &tuner{opts: opts, warmup: warmup, axes: adjustableAxes(), cur: w.HostParams,
		spec: w.Spec(), m: newOTMetrics(opts.Obs)}
	opt, err := runOnce(w, opts, tn.onStep, instrumentationUs)
	<-done
	if baseErr != nil {
		return nil, fmt.Errorf("optimizer: baseline run: %w", baseErr)
	}
	if err != nil {
		return nil, fmt.Errorf("optimizer: tuned run: %w", err)
	}
	return compare(w, opts, base, opt, tn), nil
}

// compare reports the tuned run opt, tuned by tn, against the baseline
// run base.
func compare(w *workloads.Workload, opts Options, base, opt *estimator.Runner, tn *tuner) *Result {
	res := &Result{
		Workload:          w.Name,
		Version:           opts.Version,
		BaselineTime:      base.TotalTime(),
		OptimizedTime:     opt.TotalTime(),
		BaselineIdle:      base.IdleFraction(),
		OptimizedIdle:     opt.IdleFraction(),
		BaselineMXU:       base.MXUUtilization(),
		OptimizedMXU:      opt.MXUUtilization(),
		InitialParams:     w.HostParams,
		FinalParams:       opt.HostParams(),
		Moves:             tn.moves,
		CriticalPhaseStep: tn.criticalAt,
	}
	res.MeasuredSpeedup = float64(res.BaselineTime) / float64(res.OptimizedTime)

	// Paper-scale projection: steady-state period × full paper step
	// count, with the tuned run charged its tuning transient and the
	// fixed post-processing.
	basePeriod := steadyPeriod(base)
	optPeriod := steadyPeriod(opt)
	full := float64(w.PaperSteps)
	tuningCost := float64(opt.TotalTime()) - float64(base.TotalTime())*optPeriod/basePeriod
	if tuningCost < 0 {
		tuningCost = 0
	}
	baseFull := basePeriod * full
	optFull := optPeriod*full + tuningCost + postProcessUs
	if optFull > 0 {
		res.ProjectedSpeedup = baseFull / optFull
	}
	return res
}

// median returns the middle value of xs (mean of the middle pair for even
// lengths). It copies its input.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func runOnce(w *workloads.Workload, opts Options, hook func(*estimator.Runner, int64, tpu.StepTiming), overheadUs float64) (*estimator.Runner, error) {
	r, err := estimator.New(w, estimator.Options{
		Version:        opts.Version,
		Steps:          opts.Steps,
		Seed:           opts.Seed,
		HostParams:     &w.HostParams,
		StepOverheadUs: overheadUs,
		OnTrainStep:    hook,
		DisableEval:    true, // tuning targets the training phase
	})
	if err != nil {
		return nil, err
	}
	if err := r.Run(); err != nil {
		return nil, err
	}
	return r, nil
}

// steadyPeriod estimates the steady-state step period (µs) from the tail
// of the run's step timings.
func steadyPeriod(r *estimator.Runner) float64 {
	ts := r.StepTimings()
	n := len(ts)
	if n < 2 {
		return 1
	}
	k := n / 4
	if k < 2 {
		k = 2
	}
	if k > n-1 {
		k = n - 1
	}
	span := ts[n-1].End.Sub(ts[n-1-k].End)
	return float64(span) / float64(k)
}
