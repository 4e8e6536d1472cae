package trace

import (
	"slices"
	"unsafe"

	"repro/internal/simclock"
)

// Reducer reduces one profile window to a ProfileRecord while the
// window's events arrive, in chunks or segments of any size: the record is
// the one Reduce makes of their events concatenated. Events beyond
// MaxEventsPerProfile, or starting after MaxProfileWindow past the
// window's start, are dropped with every event after them, and the record
// is marked Truncated.
//
// It keeps no event. Each operator is interned once per window (an id per
// distinct name and device: a run has 60–64), each step holds one count
// and total per id, and Record sorts the window's distinct operators once
// to emit every step's op list in (device, name) order. The sums are
// integers, so the order they are taken in never reaches the record. A
// device run's segment is summed as it is: its layout's names are mapped
// to ids once per window, and no event is built.
type Reducer struct {
	rec      *ProfileRecord
	deadline simclock.Time
	stopped  bool // an event past a limit arrived: the rest are dropped

	ids    map[OpKey]int32 // operator -> id, its index in keys and in a step's sums
	keys   []OpKey
	recent [256]recentName // ids by where a name's bytes are, in front of ids
	runs   []runIDs        // the ids of each run layout the window has seen

	stepIdx map[int64]int32 // step number -> index in steps
	// recentSteps holds the index+1 of a step seen lately, by its number
	// modulo 8, in front of stepIdx: a window's host events interleave a
	// few nearby steps.
	recentSteps [8]recentStep
	steps       []stepSums
	entries     int     // (step, operator) pairs with a count: the op entries Record emits
	slab        []opSum // where new steps' sums are carved from
}

// stepSums is one step's part of a window while it is reduced: StepStat's
// Start and End, and a count and total per operator id.
type stepSums struct {
	step       int64
	start, end simclock.Time
	sums       []opSum
}

// recentName is a slot of Reducer.recent: the id+1 (0 for an empty
// slot) of the operator whose name is the len bytes at p, on dev. Strings
// do not change, so a name at the same address and of the same length is
// the same name. The simulator's names are a few dozen constant strings,
// so almost every event's operator is found here without hashing its
// name.
type recentName struct {
	p   *byte
	len int
	dev Device
	id  int32
}

type recentStep struct {
	step int64
	idx  int32
}

// runIDs maps a run layout's events to operator ids: ids[k] is event k's.
type runIDs struct {
	layout *RunLayout
	ids    []int32
	max    int32 // the largest id, -1 for a layout of no events
}

type opSum struct {
	count int64
	total simclock.Duration
}

// NewReducer starts the record seq of the window that starts at
// windowStart.
func NewReducer(seq int64, windowStart simclock.Time) *Reducer {
	return &Reducer{
		rec:      &ProfileRecord{Seq: seq, WindowStart: windowStart, WindowEnd: windowStart},
		deadline: windowStart.Add(MaxProfileWindow),
		ids:      make(map[OpKey]int32),
		stepIdx:  make(map[int64]int32),
	}
}

// Add folds the window's next events into the record. chunk is only read,
// and not kept.
func (r *Reducer) Add(chunk []Event) {
	if r.stopped || len(chunk) == 0 {
		return
	}
	rec := r.rec
	var cur *stepSums
	for i := range chunk {
		e := &chunk[i]
		if rec.NumEvents >= MaxEventsPerProfile || e.Start > r.deadline {
			rec.Truncated = true
			r.stopped = true
			return
		}
		rec.NumEvents++
		// Events of one step come in runs; look the step up only when
		// the run ends.
		if cur == nil || cur.step != e.Step {
			cur = r.step(e.Step)
		}
		id := r.intern(e.Name, e.Device)
		if int(id) >= len(cur.sums) {
			cur.sums = append(cur.sums, make([]opSum, int(id)+1-len(cur.sums))...)
		}
		sum := &cur.sums[id]
		if sum.count == 0 {
			r.entries++
		}
		sum.count++
		sum.total += e.Dur
		// StepStat.Observe's rule: the first event sets the span, unless
		// it leaves both ends at zero.
		end := e.End()
		if cur.start == 0 && cur.end == 0 {
			cur.start, cur.end = e.Start, end
		} else {
			cur.start = min(cur.start, e.Start)
			cur.end = max(cur.end, end)
		}
		rec.WindowEnd = max(rec.WindowEnd, end)
	}
}

// AddSegment folds the window's next events, a segment's, into the
// record. s is only read, and not kept.
func (r *Reducer) AddSegment(s Segment) {
	if s.Run == nil {
		r.Add(s.Events)
		return
	}
	if r.stopped || s.Lo >= s.Hi {
		return
	}
	rec := r.rec
	if rec.NumEvents >= MaxEventsPerProfile || s.Start > r.deadline {
		// Not even the first event counts: the step gains nothing.
		rec.Truncated = true
		r.stopped = true
		return
	}
	ids := r.layoutIDs(s.Run)
	cur := r.step(s.Step)
	if int(ids.max) >= len(cur.sums) {
		cur.sums = append(cur.sums, make([]opSum, int(ids.max)+1-len(cur.sums))...)
	}
	at := s.Start
	k := s.Lo
	// The first event, the infeed pair and any event while the step's
	// span is still unset, one by one under Add's rules.
	for ; k < s.Hi && (k == s.Lo || (s.Run.Paired && k < 2) || cur.end <= 0); k++ {
		if rec.NumEvents >= MaxEventsPerProfile || at > r.deadline {
			rec.Truncated = true
			r.stopped = true
			return
		}
		rec.NumEvents++
		dur := s.Durs[k]
		sum := &cur.sums[ids.ids[k]]
		if sum.count == 0 {
			r.entries++
		}
		sum.count++
		sum.total += dur
		end := at.Add(dur)
		if cur.start == 0 && cur.end == 0 {
			cur.start, cur.end = at, end
		} else {
			cur.start = min(cur.start, at)
			cur.end = max(cur.end, end)
		}
		rec.WindowEnd = max(rec.WindowEnd, end)
		at = at.Add(s.Run.Advance(s.Durs, k))
	}
	if k == s.Hi {
		return
	}
	// The rest: each event starts where the one before it ends, no
	// earlier than the step's span starts, and no duration is negative,
	// so the span and the window end stretch to where the last one ends.
	hi := min(s.Hi, k+MaxEventsPerProfile-int(rec.NumEvents))
	from := k
	durs, kids, sums := s.Durs, ids.ids, cur.sums
	for ; k < hi && at <= r.deadline; k++ {
		dur := durs[k]
		sum := &sums[kids[k]]
		if sum.count == 0 {
			r.entries++
		}
		sum.count++
		sum.total += dur
		at = at.Add(dur)
	}
	rec.NumEvents += int64(k - from)
	cur.end = max(cur.end, at)
	rec.WindowEnd = max(rec.WindowEnd, at)
	if k < s.Hi {
		rec.Truncated = true
		r.stopped = true
	}
}

// layoutIDs returns the ids of layout's events, interning its names the
// first time the window sees it. A window sees a few layouts (a program's
// runs share one), so a linear search finds them.
func (r *Reducer) layoutIDs(layout *RunLayout) *runIDs {
	for i := range r.runs {
		if r.runs[i].layout == layout {
			return &r.runs[i]
		}
	}
	m := runIDs{layout: layout, ids: make([]int32, len(layout.Names)), max: -1}
	for k, name := range layout.Names {
		m.ids[k] = r.intern(name, layout.Device)
		m.max = max(m.max, m.ids[k])
	}
	r.runs = append(r.runs, m)
	return &r.runs[len(r.runs)-1]
}

// intern returns the id of the operator name on dev, giving it the next
// id when the window has not seen it.
func (r *Reducer) intern(name string, dev Device) int32 {
	p := unsafe.StringData(name)
	// Fibonacci hashing: a multiplication spreads the addresses of
	// strings packed byte by byte across the slots.
	h := (uint64(uintptr(unsafe.Pointer(p))) + uint64(dev)) * 0x9e3779b97f4a7c15
	slot := &r.recent[h>>56]
	if slot.p == p && slot.len == len(name) && slot.dev == dev && slot.id > 0 {
		return slot.id - 1
	}
	k := OpKey{Name: name, Device: dev}
	id, ok := r.ids[k]
	if !ok {
		id = int32(len(r.keys))
		r.keys = append(r.keys, k)
		r.ids[k] = id
	}
	*slot = recentName{p: p, len: len(name), dev: dev, id: id + 1}
	return id
}

// step returns the sums of step n, adding them when the window has none.
// A new step's sums are carved from a shared slab, as long as the
// operators seen so far.
func (r *Reducer) step(n int64) *stepSums {
	c := &r.recentSteps[n&7]
	if c.idx > 0 && c.step == n {
		return &r.steps[c.idx-1]
	}
	i, ok := r.stepIdx[n]
	if !ok {
		i = r.addStep(n)
	}
	*c = recentStep{step: n, idx: i + 1}
	return &r.steps[i]
}

// addStep adds step n's sums, as long as the operators seen so far, and
// returns their index in steps.
func (r *Reducer) addStep(n int64) int32 {
	k := len(r.keys)
	if cap(r.slab)-len(r.slab) < k {
		r.slab = make([]opSum, 0, max(1024, 4*k))
	}
	sums := r.slab[len(r.slab) : len(r.slab)+k : len(r.slab)+k]
	r.slab = r.slab[:len(r.slab)+k]
	i := int32(len(r.steps))
	r.stepIdx[n] = i
	r.steps = append(r.steps, stepSums{step: n, sums: sums})
	return i
}

// Record returns the window's record, ascending by step, with the
// device's idle and MXU metadata stamped on the record and on each step.
// The steps are one slab, and so are their op lists, each capped at its
// own entries. The Reducer must not be used afterwards.
func (r *Reducer) Record(idleFrac, mxuUtil float64) *ProfileRecord {
	rec := r.rec
	rec.IdleFrac, rec.MXUUtil = idleFrac, mxuUtil
	order := make([]int32, len(r.keys))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int { return r.keys[a].Compare(r.keys[b]) })
	slices.SortFunc(r.steps, func(a, b stepSums) int {
		switch {
		case a.step < b.step:
			return -1
		case a.step > b.step:
			return 1
		}
		return 0
	})
	stats := make([]StepStat, len(r.steps))
	ops := make([]OpTotal, 0, r.entries)
	rec.Steps = make([]*StepStat, len(r.steps))
	for i := range r.steps {
		ss := &r.steps[i]
		from := len(ops)
		for _, id := range order {
			if int(id) < len(ss.sums) && ss.sums[id].count > 0 {
				k := r.keys[id]
				ops = append(ops, OpTotal{Name: k.Name, Device: k.Device, Count: ss.sums[id].count, Total: ss.sums[id].total})
			}
		}
		stats[i] = StepStat{Step: ss.step, Start: ss.start, End: ss.end,
			Ops: ops[from:len(ops):len(ops)], IdleFrac: idleFrac, MXUUtil: mxuUtil}
		rec.Steps[i] = &stats[i]
	}
	r.rec = nil
	return rec
}

// Reduce summarizes a batch of events into a ProfileRecord: a Reducer
// handed the events in one chunk. Events beyond MaxEventsPerProfile, or
// starting after MaxProfileWindow past windowStart, are dropped and the
// record is marked Truncated — matching the hard limits of real Cloud TPU
// profile responses.
func Reduce(seq int64, windowStart simclock.Time, events []Event, idleFrac, mxuUtil float64) *ProfileRecord {
	r := NewReducer(seq, windowStart)
	r.Add(events)
	return r.Record(idleFrac, mxuUtil)
}
