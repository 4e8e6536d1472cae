// Package estimator implements the TPUEstimator-style training loop that
// couples the host input pipeline to the TPU device, mirroring how
// TensorFlow drives Cloud TPU training:
//
//   - the host pipeline runs ahead of the device, bounded by the prefetch
//     depth (batch i cannot start until the device has consumed batch
//     i−depth);
//   - the device idles whenever the next batch has not reached its infeed
//     queue — the idle time the paper measures;
//   - every IterationsPerLoop steps the loop returns to the host for an
//     outfeed dequeue and session bookkeeping, serializing briefly;
//   - eval blocks run a forward-only program on cached data; checkpoints
//     and summaries are written on their Table I cadences.
//
// A Runner implements tpu.EventSource over the merged host+device event
// stream, which is what the profile service hands to TPUPoint-Profiler.
package estimator

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"repro/internal/graph"
	"repro/internal/host"
	"repro/internal/simclock"
	"repro/internal/storage"
	"repro/internal/tpu"
	"repro/internal/trace"
	"repro/internal/workloads"
	"repro/internal/xla"
)

// Options configure a training run beyond the workload's defaults.
type Options struct {
	Version    tpu.Version     // TPU generation (default V2)
	HostParams *host.Params    // override the workload's pipeline parameters
	Steps      int             // override the workload's TrainSteps
	Seed       uint64          // override the workload's seed
	Bucket     *storage.Bucket // checkpoint destination (optional)

	// DisableEval skips eval blocks (used by microbenchmarks).
	DisableEval bool

	// StartStep fast-forwards the run: training begins at this global
	// step instead of zero, restoring model state from RestoreFrom. This
	// is the paper's checkpoint/restart feature (Section IV-C): TPUPoint
	// associates phases with checkpoints so an application can be
	// "executed without starting from step zero".
	StartStep int64

	// RestoreFrom names the checkpoint object (in Bucket) to restore
	// when StartStep > 0. The object must exist.
	RestoreFrom string

	// StepOverheadUs adds fixed host-side work to every training step —
	// how TPUPoint-Optimizer's instrumentation cost is charged.
	StepOverheadUs float64

	// OnTrainStep, when set, runs after every training step. TPUPoint-
	// Optimizer's online tuning hooks in here. It may call SetHostParams.
	OnTrainStep func(r *Runner, step int64, timing tpu.StepTiming)
}

// Checkpoint records one saved model state.
type Checkpoint struct {
	Step   int64
	At     simclock.Time
	Object string
}

// Runner executes one training run.
type Runner struct {
	W    *workloads.Workload
	opts Options

	mu        sync.RWMutex
	dev       *tpu.Device
	hst       *host.Host
	trainProg *xla.Program
	evalProg  *xla.Program

	consumedAt  []simclock.Time // per train-batch consumption time
	now         simclock.Time
	loopStart   simclock.Time     // when the open loop's outfeed dequeue posted
	openStep    int64             // lowest step an event not emitted yet can carry
	nonTrain    simclock.Duration // time in init/eval/checkpoint/summary phases
	done        bool
	ran         bool
	checkpoints []Checkpoint
	totalSteps  int64

	// The event source reads the two streams in place. The device
	// stream is in Start order (tpu.Device); hostByStart is the host
	// stream in Start order, equal Starts oldest first. syncLocked brings
	// it and lastStart up to date from the events emitted since.
	hostByStart []trace.Event
	mergeBuf    []trace.Event   // the suffix of hostByStart a new host tail merges into
	devSeen     int             // device events counted in lastStart
	lastStart   []simclock.Time // lastStart[s+1]: the latest Start of step s
	openCur     int             // OpenStep's cursor: lastStart[i] < openCurT for every i < openCur
	openCurT    simclock.Time
}

// New prepares a runner. The workload's graphs are compiled here, so a
// model that does not fit the chip's HBM fails fast.
func New(w *workloads.Workload, opts Options) (*Runner, error) {
	if w == nil {
		return nil, errors.New("estimator: nil workload")
	}
	if opts.Version == 0 {
		opts.Version = tpu.V2
	}
	seed := w.Seed
	if opts.Seed != 0 {
		seed = opts.Seed
	}
	params := w.HostParams
	if opts.HostParams != nil {
		params = *opts.HostParams
	}

	// The TensorFlow master's optimization pipeline runs before the
	// worker sees the graph: constant folding, then XLA lowering.
	trainProg, err := compileLikeMaster(w.TrainGraph)
	if err != nil {
		return nil, fmt.Errorf("estimator: compiling train graph: %w", err)
	}
	evalProg, err := compileLikeMaster(w.EvalGraph)
	if err != nil {
		return nil, fmt.Errorf("estimator: compiling eval graph: %w", err)
	}
	cspec := tpu.NewChipSpec(opts.Version)
	if err := cspec.Validate(); err != nil {
		return nil, err
	}
	dev := tpu.NewDevice(cspec, seed)
	if err := dev.LoadProgram(trainProg); err != nil {
		return nil, err
	}
	hst, err := host.New(w.Spec(), params, w.Input, seed+1)
	if err != nil {
		return nil, err
	}
	return &Runner{
		W:         w,
		opts:      opts,
		dev:       dev,
		hst:       hst,
		trainProg: trainProg,
		evalProg:  evalProg,
		openStep:  -1, // the init ops
	}, nil
}

// compileLikeMaster applies the master's graph optimizations (constant
// folding; partitioning is a no-op for these single-device step graphs)
// and lowers the result through XLA.
func compileLikeMaster(g *graph.Graph) (*xla.Program, error) {
	folded, _, err := graph.FoldConstants(g)
	if err != nil {
		return nil, err
	}
	return xla.Compile(folded)
}

// stepEvents bounds the device events of one step of p: one per
// instruction, the infeed pair and the outfeed (tpu.Device.RunStep).
func stepEvents(p *xla.Program) int { return len(p.Instructions) + 3 }

// trainSteps returns the effective train-step count.
func (r *Runner) trainSteps() int {
	if r.opts.Steps > 0 {
		return r.opts.Steps
	}
	return r.W.TrainSteps
}

// Run executes the full training schedule. It may be called once.
func (r *Runner) Run() error {
	r.mu.Lock()
	if r.ran {
		r.mu.Unlock()
		return errors.New("estimator: Run called twice")
	}
	r.ran = true
	r.mu.Unlock()

	steps := r.trainSteps()

	// Session init: host brings up the TPU system and restores state;
	// the device spends a moment in program compilation/warmup. A
	// fast-forwarded run restores the named checkpoint instead of the
	// initial weights.
	r.mu.Lock()
	if r.opts.StartStep > 0 {
		if r.opts.RestoreFrom == "" {
			r.mu.Unlock()
			return errors.New("estimator: StartStep without RestoreFrom")
		}
		if r.opts.Bucket == nil || !r.opts.Bucket.Exists(r.opts.RestoreFrom) {
			r.mu.Unlock()
			return fmt.Errorf("estimator: restore checkpoint %q not found", r.opts.RestoreFrom)
		}
	}
	// Both event streams are sized once for the whole schedule: grown by
	// append they are reallocated, copied and rescanned by the collector
	// a few dozen times a run.
	evalSteps := 0
	if !r.opts.DisableEval {
		evalSteps = r.W.EvalSteps // the final block
		if r.W.EvalEvery > 0 {
			evalSteps += (steps - 1) / r.W.EvalEvery * r.W.EvalSteps
		}
	}
	r.dev.ReserveEvents(1 + steps*stepEvents(r.trainProg) + evalSteps*stepEvents(r.evalProg))
	r.hst.ReserveSteps(steps, r.W.NoiseP)
	// So is the event source's host copy, so that a profile window
	// allocates only for the events it returns.
	r.hostByStart = make([]trace.Event, 0, cap(r.hst.Events()))
	initEnd := r.hst.EmitInit(0, r.trainProg.WeightBytes)
	if err := r.dev.InjectEvent("StartProgram", initEnd, 2000, -1); err != nil {
		r.mu.Unlock()
		return err
	}
	r.now = initEnd.Add(2000)
	r.nonTrain += simclock.Duration(r.now) // init phase spans [0, now)
	r.mu.Unlock()

	var loopGate simclock.Time // batches wait for loop-boundary syncs
	globalStep := r.opts.StartStep
	trainDone := 0
	sinceEval := 0

	for trainDone < steps {
		r.mu.Lock()
		// --- one training step ------------------------------------------
		gate := loopGate
		var slotFree simclock.Time
		// Prefetch depth is re-read every step: the optimizer may retune
		// it mid-run.
		if idx := trainDone - r.hst.Params().PrefetchDepth; idx >= 0 {
			slotFree = r.consumedAt[idx]
		}
		if r.opts.StepOverheadUs > 0 {
			r.hst.Instrument(globalStep, r.opts.StepOverheadUs)
		}
		ready := r.hst.ProduceBatch(globalStep, gate, slotFree)
		st, err := r.dev.RunStep(globalStep, ready)
		if err != nil {
			r.mu.Unlock()
			return err
		}
		r.consumedAt = append(r.consumedAt, st.Start)
		r.hst.StepNoise(globalStep, st.End, r.W.NoiseP)
		trainDone++
		globalStep++
		sinceEval++
		r.advance(st.End)

		// --- loop boundary: outfeed sync + bookkeeping ------------------
		// The host posts the loop's outfeed dequeue when the loop starts
		// and blocks until the TPU finishes the last iteration, so the
		// profiled OutfeedDequeueTuple spans most of the loop — which is
		// why it tops host profiles.
		if trainDone%r.W.IterationsPerLoop == 0 || trainDone == steps {
			deqEnd := r.hst.DequeueOutfeed(globalStep-1, r.loopStart, st.End, r.trainProg.OutfeedBytes)
			r.hst.StepBookkeeping(globalStep-1, deqEnd)
			loopGate = deqEnd.Add(200)
			r.loopStart = loopGate
			r.advance(loopGate)
		}
		// --- summaries and checkpoints ----------------------------------
		if r.W.SummaryEvery > 0 && trainDone%r.W.SummaryEvery == 0 {
			before := r.now
			r.advance(r.hst.EmitSummary(globalStep-1, r.now))
			r.nonTrain += r.now.Sub(before)
		}
		if r.W.CheckpointEvery > 0 && trainDone%r.W.CheckpointEvery == 0 {
			before := r.now
			end := r.hst.EmitCheckpoint(globalStep-1, r.now, r.trainProg.WeightBytes)
			ck := Checkpoint{Step: globalStep - 1, At: end,
				Object: fmt.Sprintf("ckpt/model.ckpt-%d", globalStep-1)}
			if r.opts.Bucket != nil {
				blob := []byte(fmt.Sprintf("checkpoint step=%d weights=%d", ck.Step, r.trainProg.WeightBytes))
				if _, err := r.opts.Bucket.Put(ck.Object, blob); err != nil {
					r.mu.Unlock()
					return err
				}
			}
			r.checkpoints = append(r.checkpoints, ck)
			loopGate = end
			r.advance(end)
			r.nonTrain += r.now.Sub(before)
		}
		// The shutdown op, and a hook's pipeline stall, belong to the
		// step just run.
		r.openStep = globalStep - 1
		hook := r.opts.OnTrainStep
		r.mu.Unlock()

		if hook != nil {
			hook(r, globalStep-1, st)
		}

		// --- mid-run eval block (only when the workload asks for it) ----
		if !r.opts.DisableEval && r.W.EvalEvery > 0 && sinceEval >= r.W.EvalEvery && trainDone < steps {
			sinceEval = 0
			if err := r.runEvalBlock(&globalStep); err != nil {
				return err
			}
		}
	}

	// Final evaluation after training, the TPUEstimator train-then-
	// evaluate shape; this is the third phase the analyzer finds.
	if !r.opts.DisableEval && r.W.EvalSteps > 0 {
		if err := r.runEvalBlock(&globalStep); err != nil {
			return err
		}
	}

	r.mu.Lock()
	r.totalSteps = globalStep
	// Shutdown ops belong to the last executed step's phase.
	end := r.hst.EmitShutdown(globalStep-1, r.now)
	r.advance(end)
	r.done = true
	r.openStep = math.MaxInt64
	r.mu.Unlock()
	return nil
}

// runEvalBlock switches the device to the eval program, runs the block on
// cached data (no host pipeline, so no infeed waits), then switches back.
func (r *Runner) runEvalBlock(globalStep *int64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.dev.LoadProgram(r.evalProg); err != nil {
		return err
	}
	before := r.now
	for i := 0; i < r.W.EvalSteps; i++ {
		st, err := r.dev.RunStep(*globalStep, 0)
		if err != nil {
			return err
		}
		*globalStep++
		r.advance(st.End)
	}
	r.openStep = *globalStep - 1
	r.nonTrain += r.now.Sub(before)
	return r.dev.LoadProgram(r.trainProg)
}

// advance moves the run's progress clock forward (never backward).
func (r *Runner) advance(t simclock.Time) {
	if t > r.now {
		r.now = t
	}
}

// SetHostParams swaps pipeline parameters mid-run (the optimizer's lever).
func (r *Runner) SetHostParams(p host.Params) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.hst.SetParams(p)
}

// SetStepOverheadUs adjusts the per-step instrumentation cost mid-run.
func (r *Runner) SetStepOverheadUs(us float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.opts.StepOverheadUs = us
}

// Stall halts the input pipeline for d simulated time — the cost of a
// checkpoint restore when the optimizer rolls back a bad parameter move.
func (r *Runner) Stall(d simclock.Duration, step int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.hst.StallPipeline(d, step)
}

// HostParams returns the active pipeline parameters.
func (r *Runner) HostParams() host.Params {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.hst.Params()
}

// Done reports whether the run has completed.
func (r *Runner) Done() bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.done
}

// Now returns the run's simulated progress time.
func (r *Runner) Now() simclock.Time {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.now
}

// watermark returns the earliest Start an event the run has not emitted
// yet can have, so the events before it are final. Between the run's
// locked sections every future event starts at or after one of: the
// progress clock (summaries, checkpoints, shutdown), the open loop's start
// (its outfeed dequeue; the next batch's pipeline, gated no earlier), the
// device's free time (the next step, which the progress clock may have
// passed) and the host's own frontier (instrumentation, pipeline stalls).
// Once the run is done nothing more is emitted and it is the end of the
// run.
func (r *Runner) watermark() simclock.Time {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if r.done {
		return r.now
	}
	return min(r.now, r.loopStart, r.dev.FreeAt(), r.hst.Frontier())
}

// TotalTime returns the simulated wall time of the completed run.
func (r *Runner) TotalTime() simclock.Duration {
	return simclock.Duration(r.Now())
}

// NonTrainTime returns the simulated time spent outside training steps so
// far: session init, eval blocks, and checkpoint/summary writes. The
// optimizer's critical-phase detector compares the training phase against
// this — without it, "training holds >50% of aggregated time" is vacuously
// true from the first step.
func (r *Runner) NonTrainTime() simclock.Duration {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.nonTrain
}

// Checkpoints returns the checkpoints saved during the run.
func (r *Runner) Checkpoints() []Checkpoint {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]Checkpoint, len(r.checkpoints))
	copy(out, r.checkpoints)
	return out
}

// IdleFraction returns the device's idle share over the run.
func (r *Runner) IdleFraction() float64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.dev.IdleFraction()
}

// MXUUtilization returns the device's FLOP-weighted MXU occupancy.
func (r *Runner) MXUUtilization() float64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.dev.MXUUtilization()
}

// Spec returns the device chip spec.
func (r *Runner) Spec() tpu.ChipSpec {
	return r.dev.Spec
}

// StepTimings returns the device's per-step timing records.
func (r *Runner) StepTimings() []tpu.StepTiming {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]tpu.StepTiming, len(r.dev.Timings()))
	copy(out, r.dev.Timings())
	return out
}

// WeightBytes returns the train program's parameter footprint.
func (r *Runner) WeightBytes() int64 { return r.trainProg.WeightBytes }

// syncLocked brings the event source up to date with the events emitted
// since its last call: the new host events are sorted on their own,
// stably, then merged into the suffix of hostByStart they overlap, and
// every new event raises its step's latest Start. The caller holds the
// write lock.
func (r *Runner) syncLocked() {
	de := r.dev.Events()
	for _, e := range de[r.devSeen:] {
		r.noteStart(e)
	}
	r.devSeen = len(de)

	he := r.hst.Events()
	old := len(r.hostByStart)
	if len(he) == old {
		return
	}
	r.hostByStart = append(r.hostByStart, he[old:]...)
	tail := r.hostByStart[old:]
	for _, e := range tail {
		r.noteStart(e)
	}
	slices.SortStableFunc(tail, func(a, b trace.Event) int { return cmp.Compare(a.Start, b.Start) })
	k := sort.Search(old, func(i int) bool { return r.hostByStart[i].Start > tail[0].Start })
	if k < old {
		r.mergeBuf = append(r.mergeBuf[:0], r.hostByStart[k:old]...)
		mergeByStart(r.hostByStart[k:], r.mergeBuf, tail)
	}
}

// noteStart raises e's step's latest Start to e.Start.
func (r *Runner) noteStart(e trace.Event) {
	i := int(e.Step + 1)
	for i >= len(r.lastStart) {
		r.lastStart = append(r.lastStart, 0)
	}
	r.lastStart[i] = max(r.lastStart[i], e.Start)
}

// mergeByStart fills dst with the first len(dst) events of the merge of
// a and b, each in Start order, taking a's event first on equal Starts.
// b may be the tail of dst, as long as a does not overlap dst.
func mergeByStart(dst, a, b []trace.Event) {
	i, j := 0, 0
	for w := range dst {
		if j == len(b) || (i < len(a) && a[i].Start <= b[j].Start) {
			dst[w] = a[i]
			i++
		} else {
			dst[w] = b[j]
			j++
		}
	}
}

// byStartWindow returns the events of s, which is in Start order, with
// Start in [from, to).
func byStartWindow(s []trace.Event, from, to simclock.Time) []trace.Event {
	lo := sort.Search(len(s), func(i int) bool { return s[i].Start >= from })
	s = s[lo:]
	return s[:sort.Search(len(s), func(i int) bool { return s[i].Start >= to })]
}

// Events returns the run's host and device events in Start order, device
// first on equal Starts: the stream the profile service tiles. It is
// built on each call.
func (r *Runner) Events() []trace.Event { return r.FirstEvents(math.MaxInt) }

// FirstEvents returns the first n events of Events (all of them when the
// run has fewer), building no more than that.
func (r *Runner) FirstEvents(n int) []trace.Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.syncLocked()
	de := r.dev.Events()
	out := make([]trace.Event, min(n, len(de)+len(r.hostByStart)))
	mergeByStart(out, de, r.hostByStart)
	return out
}

// EventsInWindow implements tpu.EventSource: the window's slice of the
// device stream merged with the window's slice of hostByStart.
func (r *Runner) EventsInWindow(from, to simclock.Time) []trace.Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.syncLocked()
	de := byStartWindow(r.dev.Events(), from, to)
	he := byStartWindow(r.hostByStart, from, to)
	out := make([]trace.Event, len(de)+len(he))
	mergeByStart(out, de, he)
	return out
}

// OpenStep implements tpu.EventSource: the lowest step of an emitted event
// starting at or after t, or of an event the run has yet to emit. Only
// steps below openStep can lower the answer, and they gain no more
// events, so a step the cursor has passed stays passed: over the profile
// service's non-decreasing t the cursor costs amortized constant time,
// and a smaller t rescans from the first step.
func (r *Runner) OpenStep(t simclock.Time) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.syncLocked()
	if t < r.openCurT {
		r.openCur = 0
	}
	r.openCurT = t
	limit := len(r.lastStart)
	if r.openStep < int64(limit)-1 {
		limit = int(r.openStep + 1)
	}
	for r.openCur < limit && r.lastStart[r.openCur] < t {
		r.openCur++
	}
	if r.openCur < limit {
		return int64(r.openCur) - 1
	}
	return r.openStep
}

// WindowMetrics implements tpu.EventSource, delegating to the device.
func (r *Runner) WindowMetrics(from, to simclock.Time) (float64, float64) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.dev.WindowMetrics(from, to)
}

// ProfileService returns a profile service bound to this run.
func (r *Runner) ProfileService() *tpu.ProfileService {
	return tpu.NewProfileService(r, r.dev.Spec, r.watermark, r.Done)
}

var _ tpu.EventSource = (*Runner)(nil)
