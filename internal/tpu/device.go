package tpu

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"unsafe"

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
// A program is priced once, when the device first loads it: the
// jitter-free duration of each event it times (the infeed transfer, each
// instruction, the outfeed), its MXU occupancy per execution and the
// layout of the events a run of it emits. RunStep then only jitters the
// table's entries, and reloading a program (the eval blocks' switch and
// back) looks its table up. A program must not change once loaded.
//
// The stream is stored as runs, not events: one run record per RunStep or
// InjectEvent, and one duration per emitted event. A run's events are
// its program's (or the one injected event), so their names are the
// program's, and each starts where the clock of the run stands: a step's
// InfeedDequeueTuple and Infeed both at the step's start, every later
// event at the end of the one before (Infeed, the queue-side half of the
// infeed transfer, excepted). An EventReader hands out stretches of runs
// as trace.Segments, which replay that clock for a consumer that needs
// the events.
//
// The event stream is in Start order, and so are the step timings (in
// Start and in End). RunStep starts a step no earlier than the device's
// free time, which is at or after the end of every event emitted so far,
// and InjectEvent refuses an event that starts before the last one. So a
// reader may binary-search the runs or the timings by time without
// sorting them.
type Device struct {
	Spec ChipSpec

	rng     *prng.Source
	jitterF float64

	priced   *pricedProgram   // the loaded program's
	programs []*pricedProgram // every program loaded, priced once each
	injected map[string]*trace.RunLayout

	freeAt  simclock.Time
	runs    []run
	durs    []simclock.Duration // durs[i]: the duration of event i
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
	d.priced = d.price(p)
	return nil
}

// pricedProgram is a program as one device runs it, priced once.
type pricedProgram struct {
	prog *xla.Program
	// base holds the jitter-free duration of each event RunStep times, in
	// order: the infeed transfer when the program has an infeed, each
	// instruction, and the outfeed when it has one. The infeed's pair of
	// events shares one entry.
	base   []simclock.Duration
	mxu    simclock.Duration // MXU occupancy of one execution
	layout trace.RunLayout
}

// price returns p's table, computing it the first time p is loaded.
func (d *Device) price(p *xla.Program) *pricedProgram {
	for _, pp := range d.programs {
		if pp.prog == p {
			return pp
		}
	}
	pp := &pricedProgram{prog: p, layout: trace.RunLayout{Device: trace.TPU, Paired: p.InfeedBytes > 0}}
	names := make([]string, 0, StepEvents(p))
	if p.InfeedBytes > 0 {
		pp.base = append(pp.base, d.feedTime(p.InfeedBytes))
		names = append(names, "InfeedDequeueTuple", "Infeed")
	}
	for _, inst := range p.Instructions {
		pp.base = append(pp.base, d.instructionTime(inst))
		pp.mxu += d.mxuOccupancy(inst)
		names = append(names, inst.Op)
	}
	if p.OutfeedBytes > 0 {
		pp.base = append(pp.base, d.feedTime(p.OutfeedBytes))
		names = append(names, "Outfeed")
	}
	pp.layout.Names = names
	d.programs = append(d.programs, pp)
	return pp
}

// feedTime returns the jitter-free duration of moving a feed of the given
// size through HBM.
func (d *Device) feedTime(bytes int64) simclock.Duration {
	return simclock.Duration(float64(bytes)/d.Spec.hbmBytesPerMicro()+0.5) + d.Spec.IssueOverhead
}

// Program returns the currently loaded program.
func (d *Device) Program() *xla.Program {
	if d.priced == nil {
		return nil
	}
	return d.priced.prog
}

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
	if d.priced == nil {
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

	// Each timed event is its table entry jittered; the infeed's pair
	// (InfeedDequeueTuple, then the queue-side half of the transfer, the
	// "Infeed" op of TPU profiles) shares one draw, and the run's clock
	// moves as its layout says.
	pp := d.priced
	t, last := start, start
	first := len(d.durs)
	base := pp.base
	if pp.layout.Paired {
		dur := d.jitter(base[0])
		d.durs = append(d.durs, dur, dur/2)
		t = t.Add(dur)
		base = base[1:]
	}
	n := len(d.durs)
	d.durs = append(d.durs, make([]simclock.Duration, len(base))...)
	for i, b := range base {
		dur := d.jitter(b)
		d.durs[n+i] = dur
		last = t
		t = t.Add(dur)
	}

	if len(d.durs) > first {
		d.runs = append(d.runs, run{start: start, last: last, step: step, layout: &pp.layout, first: first})
	}
	d.freeAt = t
	st := StepTiming{Step: step, Start: start, End: t, Idle: idle, MXUBusy: pp.mxu}
	d.timings = append(d.timings, st)
	d.totalIdle += idle
	d.totalMXU += pp.mxu
	return st, nil
}

// InjectEvent lets the runtime attribute an auxiliary device event (e.g. a
// compilation or checkpoint-restore op) to the stream. It refuses an
// event that starts before the last one emitted, which would break the
// stream's Start order.
func (d *Device) InjectEvent(name string, at simclock.Time, dur simclock.Duration, step int64) error {
	if n := len(d.runs); n > 0 && at < d.runs[n-1].last {
		return fmt.Errorf("tpu: event %q at %d starts before the last event, at %d", name, at, d.runs[n-1].last)
	}
	layout := d.injected[name]
	if layout == nil {
		layout = &trace.RunLayout{Names: []string{name}, Device: trace.TPU}
		if d.injected == nil {
			d.injected = make(map[string]*trace.RunLayout)
		}
		d.injected[name] = layout
	}
	d.runs = append(d.runs, run{start: at, last: at, step: step, layout: layout, first: len(d.durs)})
	d.durs = append(d.durs, dur)
	if end := at.Add(dur); end > d.freeAt {
		d.freeAt = end
	}
	return nil
}

// StepEvents returns how many events one RunStep of p emits: one per
// instruction, two for the infeed and one for the outfeed.
func StepEvents(p *xla.Program) int {
	n := len(p.Instructions)
	if p.InfeedBytes > 0 {
		n += 2
	}
	if p.OutfeedBytes > 0 {
		n++
	}
	return n
}

// Reserve makes room for runs more RunStep or InjectEvent calls emitting
// events more events in all, so that a run of known length does not
// regrow the stream as it emits. It is a size hint: emitting more grows
// the stream as append does.
func (d *Device) Reserve(runs, events int) {
	d.runs = slices.Grow(d.runs, runs)
	d.durs = slices.Grow(d.durs, events)
}

// StreamBytes returns the bytes the event stream holds: its run records
// and durations, counted at their capacity.
func (d *Device) StreamBytes() int64 {
	return int64(cap(d.runs))*int64(unsafe.Sizeof(run{})) + int64(cap(d.durs))*int64(unsafe.Sizeof(simclock.Duration(0)))
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
	if d.priced == nil {
		return 0
	}
	var total simclock.Duration
	for _, b := range d.priced.base {
		total += b
	}
	return total
}

// FreeAt returns when the device finishes its current work.
func (d *Device) FreeAt() simclock.Time { return d.freeAt }

// EventCount returns how many events the device has emitted.
func (d *Device) EventCount() int { return len(d.durs) }

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
	d.runs = nil
	d.durs = nil
	d.timings = nil
	d.totalIdle = 0
	d.totalMXU = 0
	d.firstBusy = 0
	d.started = false
}

// run is one RunStep or InjectEvent: the events of one execution of a
// program (or the one injected event), which are events first, first+1,
// ... of the stream, named and clocked by layout. A run holds at least one
// event.
type run struct {
	start  simclock.Time // Start of its first event
	last   simclock.Time // Start of its last event
	step   int64
	layout *trace.RunLayout
	first  int // index of its first event in the stream
}

// LatestStarts calls fn with the step and the latest event Start of each
// run from the i-th on, in order, and returns the number of runs: a
// caller that passes it back next time sees each run once. A run is one
// RunStep or InjectEvent call that emitted events.
func (d *Device) LatestStarts(i int, fn func(step int64, last simclock.Time)) int {
	for k := range d.runs[i:] {
		r := &d.runs[i+k]
		fn(r.step, r.last)
	}
	return len(d.runs)
}

// An EventReader reads the device's event stream in order, from one event
// on, as segments of runs. It reads the stream as it stood when Seek made
// it: it never sees an event emitted later, and never touches what the
// device writes after, so it may be read without the lock that orders the
// device's writes. Reset invalidates it.
type EventReader struct {
	runs []run
	durs []simclock.Duration
	run  int           // the run of the next event
	k    int           // the next event's index within its run
	at   simclock.Time // the next event's Start
}

// Seek returns a reader at the first event with Start >= t, or at the end
// of the stream when there is none.
func (d *Device) Seek(t simclock.Time) EventReader {
	// A run whose last event starts before t holds no event at or after
	// t; the first other run holds the first such event.
	i := sort.Search(len(d.runs), func(i int) bool { return d.runs[i].last >= t })
	rd := EventReader{runs: d.runs, durs: d.durs, run: i}
	if i == len(d.runs) {
		return rd
	}
	rd.at = d.runs[i].start
	for rd.at < t {
		rd.skip()
	}
	return rd
}

// Index returns the position of the next event in the stream: the number
// of events before it. At the end of the stream it is the EventCount the
// reader was made at.
func (rd *EventReader) Index() int {
	if rd.run == len(rd.runs) {
		return len(rd.durs)
	}
	return rd.runs[rd.run].first + rd.k
}

// Start returns the next event's Start. It is meaningless at the end of
// the stream.
func (rd *EventReader) Start() simclock.Time { return rd.at }

// ReadSegment returns the next events that start no later than t, at most
// max of them and all of one run, as a segment, and moves past them. The
// segment is empty at the end of the stream, when the next event starts
// after t, or when max is not positive. It builds no event: a segment that
// takes the rest of its run is found from the run's last Start alone.
func (rd *EventReader) ReadSegment(t simclock.Time, max int) trace.Segment {
	if rd.run == len(rd.runs) || rd.at > t || max <= 0 {
		return trace.Segment{}
	}
	r := &rd.runs[rd.run]
	end := rd.runEnd(rd.run) - r.first
	seg := trace.Segment{Run: r.layout, Step: r.step, Durs: rd.durs[r.first : r.first+end], Lo: rd.k, Start: rd.at}
	if r.last <= t && end-rd.k <= max {
		seg.Hi = end
		rd.nextRun()
		return seg
	}
	k, at := rd.k, rd.at
	for k < end && k-seg.Lo < max && at <= t {
		at = at.Add(r.layout.Advance(seg.Durs, k))
		k++
	}
	seg.Hi = k
	if k < end {
		rd.k, rd.at = k, at
	} else {
		rd.nextRun()
	}
	return seg
}

// skip moves past the next event without building it.
func (rd *EventReader) skip() {
	r := &rd.runs[rd.run]
	if r.first+rd.k+1 < rd.runEnd(rd.run) {
		rd.at = rd.at.Add(r.layout.Advance(rd.durs[r.first:], rd.k))
		rd.k++
		return
	}
	rd.nextRun()
}

// nextRun moves to the first event of the next run.
func (rd *EventReader) nextRun() {
	rd.run++
	rd.k = 0
	if rd.run < len(rd.runs) {
		rd.at = rd.runs[rd.run].start
	}
}

// runEnd returns the index one past the last event of run i.
func (rd *EventReader) runEnd(i int) int {
	if i+1 < len(rd.runs) {
		return rd.runs[i+1].first
	}
	return len(rd.durs)
}
