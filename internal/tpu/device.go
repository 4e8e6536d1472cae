package tpu

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"repro/internal/prng"
	"repro/internal/simclock"
	"repro/internal/trace"
	"repro/internal/xla"
)

// ErrOutOfMemory is returned when a program's weights exceed HBM.
var ErrOutOfMemory = errors.New("tpu: program exceeds HBM capacity")

// StepTiming records the device-level timing summary of one executed step;
// the profile service aggregates these into the idle/MXU metadata that
// ships with each profile response.
type StepTiming struct {
	Step    int64
	Start   simclock.Time
	End     simclock.Time
	Idle    simclock.Duration // time waiting for infeed before the step
	MXUBusy simclock.Duration // FLOP-equivalent MXU occupancy at peak
}

// Device executes compiled programs and records the event stream.
//
// The event stream is in Start order, and so are the step timings (in
// Start and in End). RunStep starts a step no earlier than the device's
// free time, which is at or after the end of every event emitted so far,
// and InjectEvent refuses an event that starts before the last one. So a
// reader may binary-search either slice by time without sorting it.
type Device struct {
	Spec ChipSpec

	rng     *prng.Source
	jitterF float64

	program *xla.Program

	freeAt  simclock.Time
	events  []trace.Event
	timings []StepTiming

	totalIdle simclock.Duration
	totalMXU  simclock.Duration
	firstBusy simclock.Time
	started   bool
}

// NewDevice returns a device with the given spec. Seed controls the
// per-instruction timing jitter stream.
func NewDevice(spec ChipSpec, seed uint64) *Device {
	return &Device{
		Spec:    spec,
		rng:     prng.New(seed),
		jitterF: 0.04,
	}
}

// LoadProgram installs the step program, validating HBM capacity. The
// working set is approximated as weights plus four batch buffers (double-
// buffered infeed and outfeed).
func (d *Device) LoadProgram(p *xla.Program) error {
	need := p.WeightBytes + 4*p.InfeedBytes
	if need > d.Spec.HBMBytes {
		return fmt.Errorf("%w: need %d bytes, have %d", ErrOutOfMemory, need, d.Spec.HBMBytes)
	}
	d.program = p
	return nil
}

// Program returns the currently loaded program.
func (d *Device) Program() *xla.Program { return d.program }

// instructionTime returns the roofline duration of one instruction on this
// chip: max(compute, memory) plus issue overhead, before jitter.
func (d *Device) instructionTime(inst *xla.Instruction) simclock.Duration {
	compute := float64(inst.FLOPs) / d.Spec.flopsPerMicro()
	mem := float64(inst.Bytes) / d.Spec.hbmBytesPerMicro()
	dur := compute
	if mem > dur {
		dur = mem
	}
	return simclock.Duration(dur+0.5) + d.Spec.IssueOverhead
}

// mxuOccupancy returns the MXU-busy portion of an instruction: the time the
// matrix units would need at raw peak for the instruction's FLOPs. This is
// the numerator of the MXU-utilization metric the profile reports.
func (d *Device) mxuOccupancy(inst *xla.Instruction) simclock.Duration {
	if !inst.MXU {
		return 0
	}
	return simclock.Duration(float64(inst.FLOPs)/d.Spec.peakFlopsPerMicro() + 0.5)
}

// RunStep executes the loaded program once for the given step number.
// batchReady is when the input batch lands in the device's infeed queue;
// the device idles from its previous completion until then. It returns the
// step's timing summary.
func (d *Device) RunStep(step int64, batchReady simclock.Time) (StepTiming, error) {
	if d.program == nil {
		return StepTiming{}, errors.New("tpu: no program loaded")
	}
	start := d.freeAt
	if batchReady > start {
		start = batchReady
	}
	if !d.started {
		d.started = true
		d.firstBusy = start
	}
	idle := start.Sub(d.freeAt)
	if d.freeAt == 0 && len(d.timings) == 0 {
		idle = 0 // before the first step the device was off, not idle
	}

	t := start

	// On-device infeed dequeue: pull the batch out of the infeed queue
	// into HBM at memory bandwidth.
	if d.program.InfeedBytes > 0 {
		dur := simclock.Duration(float64(d.program.InfeedBytes)/d.Spec.hbmBytesPerMicro()+0.5) + d.Spec.IssueOverhead
		dur = d.jitter(dur)
		d.emit("InfeedDequeueTuple", t, dur, step)
		// The queue-side half of the transfer shows up as the "Infeed"
		// op in TPU profiles.
		d.emit("Infeed", t, dur/2, step)
		t = t.Add(dur)
	}

	var mxuBusy simclock.Duration
	for _, inst := range d.program.Instructions {
		dur := d.jitter(d.instructionTime(inst))
		d.emit(inst.Op, t, dur, step)
		mxuBusy += d.mxuOccupancy(inst)
		t = t.Add(dur)
	}

	// Outfeed: results leave for the host-side dequeue.
	if d.program.OutfeedBytes > 0 {
		dur := simclock.Duration(float64(d.program.OutfeedBytes)/d.Spec.hbmBytesPerMicro()+0.5) + d.Spec.IssueOverhead
		dur = d.jitter(dur)
		d.emit("Outfeed", t, dur, step)
		t = t.Add(dur)
	}

	d.freeAt = t
	st := StepTiming{Step: step, Start: start, End: t, Idle: idle, MXUBusy: mxuBusy}
	d.timings = append(d.timings, st)
	d.totalIdle += idle
	d.totalMXU += mxuBusy
	return st, nil
}

// InjectEvent lets the runtime attribute an auxiliary device event (e.g. a
// compilation or checkpoint-restore op) to the stream. It refuses an
// event that starts before the last one emitted, which would break the
// stream's Start order.
func (d *Device) InjectEvent(name string, at simclock.Time, dur simclock.Duration, step int64) error {
	if n := len(d.events); n > 0 && at < d.events[n-1].Start {
		return fmt.Errorf("tpu: event %q at %d starts before the last event, at %d", name, at, d.events[n-1].Start)
	}
	d.emit(name, at, dur, step)
	if end := at.Add(dur); end > d.freeAt {
		d.freeAt = end
	}
	return nil
}

// ReserveEvents makes room for n more events, so that a run of known
// length does not regrow (and the collector rescan) the stream as it emits.
// It is a size hint: emitting more than n grows the stream as append does.
func (d *Device) ReserveEvents(n int) { d.events = slices.Grow(d.events, n) }

func (d *Device) emit(name string, at simclock.Time, dur simclock.Duration, step int64) {
	d.events = append(d.events, trace.Event{
		Name: name, Device: trace.TPU, Start: at, Dur: dur, Step: step,
	})
}

func (d *Device) jitter(dur simclock.Duration) simclock.Duration {
	j := d.rng.Jitter(float64(dur), d.jitterF)
	if j < 1 {
		j = 1
	}
	return simclock.Duration(j)
}

// StepBusyTime returns the expected (jitter-free) device-busy time of one
// execution of the loaded program, including the infeed dequeue and
// outfeed. Workload calibration uses it to size host pipelines relative to
// device compute.
func (d *Device) StepBusyTime() simclock.Duration {
	if d.program == nil {
		return 0
	}
	var total simclock.Duration
	if d.program.InfeedBytes > 0 {
		total += simclock.Duration(float64(d.program.InfeedBytes)/d.Spec.hbmBytesPerMicro()+0.5) + d.Spec.IssueOverhead
	}
	for _, inst := range d.program.Instructions {
		total += d.instructionTime(inst)
	}
	if d.program.OutfeedBytes > 0 {
		total += simclock.Duration(float64(d.program.OutfeedBytes)/d.Spec.hbmBytesPerMicro()+0.5) + d.Spec.IssueOverhead
	}
	return total
}

// FreeAt returns when the device finishes its current work.
func (d *Device) FreeAt() simclock.Time { return d.freeAt }

// Events returns the full recorded event stream. Callers must not mutate.
func (d *Device) Events() []trace.Event { return d.events }

// Timings returns per-step timing summaries. Callers must not mutate.
func (d *Device) Timings() []StepTiming { return d.timings }

// IdleFraction returns total idle time over total span from first activity.
func (d *Device) IdleFraction() float64 {
	span := d.freeAt.Sub(d.firstBusy)
	if span <= 0 {
		return 0
	}
	return float64(d.totalIdle) / float64(span)
}

// MXUUtilization returns FLOP-weighted MXU occupancy over the active span.
func (d *Device) MXUUtilization() float64 {
	span := d.freeAt.Sub(d.firstBusy)
	if span <= 0 {
		return 0
	}
	return float64(d.totalMXU) / float64(span)
}

// WindowMetrics computes idle fraction and MXU utilization for the steps
// overlapping the window [from, to) — the metadata attached to a profile
// response covering that window. The timings are in Start and End order,
// so the overlapping steps are the run from the first one that ends after
// from to the last one that starts before to.
func (d *Device) WindowMetrics(from, to simclock.Time) (idleFrac, mxuUtil float64) {
	var idle, mxu simclock.Duration
	var span simclock.Duration
	first := sort.Search(len(d.timings), func(i int) bool { return d.timings[i].End > from })
	for _, st := range d.timings[first:] {
		if st.Start >= to {
			break
		}
		idle += st.Idle
		mxu += st.MXUBusy
		span += st.End.Sub(st.Start) + st.Idle
	}
	if span <= 0 {
		return 0, 0
	}
	return float64(idle) / float64(span), float64(mxu) / float64(span)
}

// Reset clears all execution state but keeps the loaded program.
func (d *Device) Reset() {
	d.freeAt = 0
	d.events = nil
	d.timings = nil
	d.totalIdle = 0
	d.totalMXU = 0
	d.firstBusy = 0
	d.started = false
}
