package trace

import (
	"bytes"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/simclock"
)

// reduceOracle is Reduce as it was before the Reducer: every event folded
// into its step through StepStat.Observe, which finds the operator in the
// step's sorted list by binary search, and the steps sorted at the end.
func reduceOracle(seq int64, windowStart simclock.Time, events []Event, idleFrac, mxuUtil float64) *ProfileRecord {
	o := newOracleReduction(seq, windowStart)
	o.add(events)
	return o.record(idleFrac, mxuUtil)
}

// oracleReduction is reduceOracle between events: a window reduced so
// far, which a copy can go on reducing.
type oracleReduction struct {
	rec      ProfileRecord
	deadline simclock.Time
	stopped  bool // an event past a limit came: the rest are dropped
	bySteps  map[int64]*StepStat
	ss       *StepStat // the last event's step
}

func newOracleReduction(seq int64, windowStart simclock.Time) *oracleReduction {
	return &oracleReduction{
		rec:      ProfileRecord{Seq: seq, WindowStart: windowStart, WindowEnd: windowStart},
		deadline: windowStart.Add(MaxProfileWindow),
		bySteps:  make(map[int64]*StepStat),
	}
}

func (o *oracleReduction) add(events []Event) {
	rec := &o.rec
	for _, e := range events {
		if o.stopped {
			return
		}
		if rec.NumEvents >= MaxEventsPerProfile || e.Start > o.deadline {
			rec.Truncated = true
			o.stopped = true
			return
		}
		rec.NumEvents++
		if o.ss == nil || o.ss.Step != e.Step {
			if o.ss = o.bySteps[e.Step]; o.ss == nil {
				o.ss = NewStepStat(e.Step)
				o.bySteps[e.Step] = o.ss
			}
		}
		o.ss.Observe(e)
		if e.End() > rec.WindowEnd {
			rec.WindowEnd = e.End()
		}
	}
}

// clone returns a copy of o that reduces on without touching o.
func (o *oracleReduction) clone() *oracleReduction {
	c := *o
	c.bySteps = make(map[int64]*StepStat, len(o.bySteps))
	for step, ss := range o.bySteps {
		c.bySteps[step] = ss.Clone()
	}
	if o.ss != nil {
		c.ss = c.bySteps[o.ss.Step]
	}
	return &c
}

func (o *oracleReduction) record(idleFrac, mxuUtil float64) *ProfileRecord {
	rec := o.rec
	rec.IdleFrac, rec.MXUUtil = idleFrac, mxuUtil
	steps := make([]*StepStat, 0, len(o.bySteps))
	for _, ss := range o.bySteps {
		ss.IdleFrac = idleFrac
		ss.MXUUtil = mxuUtil
		steps = append(steps, ss)
	}
	sort.Slice(steps, func(i, j int) bool { return steps[i].Step < steps[j].Step })
	rec.Steps = steps
	return &rec
}

// reduceChunks reduces events handed to a Reducer cut at the given
// lengths (the rest in one last chunk).
func reduceChunks(seq int64, windowStart simclock.Time, events []Event, cuts []int, idle, mxu float64) *ProfileRecord {
	r := NewReducer(seq, windowStart)
	for _, n := range cuts {
		n = min(n, len(events))
		r.Add(events[:n])
		events = events[n:]
	}
	r.Add(events)
	return r.Record(idle, mxu)
}

// checkReducerMatchesOracle fails t unless the Reducer fed events in the
// given chunks makes reduceOracle's record, by value and by wire bytes,
// with each step's op list in order and capped at its own entries.
func checkReducerMatchesOracle(t *testing.T, windowStart simclock.Time, events []Event, cuts []int) {
	t.Helper()
	want := reduceOracle(7, windowStart, events, 0.25, 0.5)
	got := reduceChunks(7, windowStart, events, cuts, 0.25, 0.5)
	if !reflect.DeepEqual(got, want) {
		for i := 0; i < min(len(got.Steps), len(want.Steps)); i++ {
			if !reflect.DeepEqual(got.Steps[i], want.Steps[i]) {
				t.Fatalf("%d events in chunks %v: step %d\n got %+v\nwant %+v", len(events), cuts, i, got.Steps[i], want.Steps[i])
			}
		}
		g, w := *got, *want
		g.Steps, w.Steps = nil, nil
		t.Fatalf("%d events in chunks %v: %d steps, the oracle %d\n got %+v\nwant %+v",
			len(events), cuts, len(got.Steps), len(want.Steps), g, w)
	}
	if !bytes.Equal(MarshalRecord(got), MarshalRecord(want)) {
		t.Fatalf("%d events in chunks %v: the records' wire bytes differ", len(events), cuts)
	}
	for _, s := range got.Steps {
		CheckOps(t, "Reducer", s)
		if cap(s.Ops) != len(s.Ops) {
			t.Fatalf("step %d: op list of %d entries has capacity %d", s.Step, len(s.Ops), cap(s.Ops))
		}
	}
}

// TestReducerMatchesOracle reduces seeded random windows, cut into random
// chunks: names shared by both devices, new ones appearing late and
// copies of them,
// interleaved steps, step -1, a first event at 0 with no duration, and
// events past the window's deadline.
func TestReducerMatchesOracle(t *testing.T) {
	names := []string{"fusion", "fusion.1", "Infeed", "", "Conv2D", "a"}
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(300)
		vocab := 1 + rng.Intn(len(names))
		windowStart := simclock.Time(0)
		if rng.Intn(2) == 0 {
			windowStart = simclock.Time(rng.Intn(1000))
		}
		at := windowStart
		events := make([]Event, n)
		for i := range events {
			switch rng.Intn(20) {
			case 0:
				at = at.Add(MaxProfileWindow / 3)
			case 1, 2:
			default:
				at = at.Add(simclock.Duration(rng.Intn(50)))
			}
			dur := simclock.Duration(rng.Intn(100))
			if i == 0 && rng.Intn(3) == 0 {
				at, dur = 0, 0
			}
			name := names[rng.Intn(vocab)]
			if rng.Intn(4) == 0 {
				name = strings.Clone(name) // the same name at another address
			}
			events[i] = Event{Name: name, Device: Device(rng.Intn(2)),
				Start: at, Dur: dur, Step: int64(rng.Intn(6)) - 1}
		}
		var cuts []int
		for k := rng.Intn(6); k > 0; k-- {
			cuts = append(cuts, rng.Intn(n+1))
		}
		checkReducerMatchesOracle(t, windowStart, events, cuts)
	}
	// No events, and no chunk at all.
	checkReducerMatchesOracle(t, 5, nil, nil)
	checkReducerMatchesOracle(t, 5, nil, []int{0, 0})
}

// TestReducerStopsAtEventLimit: the event after the MaxEventsPerProfile-th
// truncates the record, and nothing after it counts, whichever chunk it
// comes in.
func TestReducerStopsAtEventLimit(t *testing.T) {
	chunk := make([]Event, 4096)
	for i := range chunk {
		chunk[i] = Event{Name: "op", Device: TPU, Start: 1, Dur: 1, Step: 3}
	}
	r := NewReducer(0, 0)
	for fed := 0; fed <= MaxEventsPerProfile; fed += len(chunk) {
		r.Add(chunk)
	}
	r.Add([]Event{{Name: "late", Device: Host, Start: 2, Dur: 1, Step: 4}})
	rec := r.Record(0, 0)
	if !rec.Truncated || rec.NumEvents != MaxEventsPerProfile {
		t.Fatalf("truncated=%v after %d events, want true after %d", rec.Truncated, rec.NumEvents, MaxEventsPerProfile)
	}
	if len(rec.Steps) != 1 || len(rec.Steps[0].Ops) != 1 || rec.Steps[0].Ops[0].Count != MaxEventsPerProfile {
		t.Fatalf("steps %+v, want one step of one operator counted %d times", rec.Steps, MaxEventsPerProfile)
	}
}

// FuzzReducer holds the Reducer to reduceOracle on arbitrary events cut
// into arbitrary chunks. Each event takes three bytes: the first picks a
// name (four, shared by both devices), the device, the step (-1 to 6, so
// steps interleave) and how far Start moves (not at all, a little, a
// lot, or a third of the 60 s window, so later events pass the
// deadline); the second is the duration; the third the distance moved,
// and its top bit ends the chunk after the event. A duration's top bit
// also gives the event a copy of its name, as a decoded event has, so a
// name reaches the Reducer from more than one address. The window starts
// at 0, so a first event at 0 with no duration fires Observe's
// first-event rule.
func FuzzReducer(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x00, 0x00, 0x05, 0x00, 0x80, 0x49, 0x10, 0x03})
	f.Add([]byte{0x18, 0x07, 0x81, 0xc4, 0x00, 0x00, 0xc4, 0x00, 0x00, 0xd9, 0x02, 0x85, 0x62, 0x09, 0x00, 0x1b, 0x00, 0x80})
	f.Add([]byte{0x8c, 0x10, 0x7f, 0x8c, 0x10, 0x7f, 0xcd, 0x00, 0x00, 0x45, 0x01, 0x01})
	names := []string{"fusion", "fusion.1", "Infeed", ""}
	f.Fuzz(func(t *testing.T, data []byte) {
		var events []Event
		var cuts []int
		var at simclock.Time
		last := 0
		for ; len(data) >= 3; data = data[3:] {
			b0, dur, move := data[0], data[1], data[2]
			switch b0 >> 6 {
			case 1:
				at = at.Add(simclock.Duration(move & 0x7f))
			case 2:
				at = at.Add(simclock.Duration(move&0x7f) * simclock.Millisecond)
			case 3:
				at = at.Add(MaxProfileWindow / 3)
			}
			name := names[b0&3]
			if dur&0x80 != 0 {
				name = strings.Clone(name)
			}
			events = append(events, Event{Name: name, Device: Device(b0 >> 2 & 1),
				Start: at, Dur: simclock.Duration(dur), Step: int64(b0>>3&7) - 1})
			if move&0x80 != 0 {
				cuts = append(cuts, len(events)-last)
				last = len(events)
			}
		}
		checkReducerMatchesOracle(t, 0, events, cuts)
	})
}

// segmentLayouts are the device runs FuzzReducerSegments draws from: a
// program with the infeed pair, one without, an injected event, and a
// host-side layout whose names the TPU ones share, so an operator is
// interned by name and device.
var segmentLayouts = []*RunLayout{
	{Names: []string{"InfeedDequeueTuple", "Infeed", "fusion", "fusion.1", "fusion", "Outfeed"}, Device: TPU, Paired: true},
	{Names: []string{"fusion", "Conv2D", "fusion.1", "fusion"}, Device: TPU},
	{Names: []string{"StartProgram"}, Device: TPU},
	{Names: []string{"Infeed", "fusion"}, Device: Host},
}

// runStarts returns the Start of each event of a run of layout that
// starts at start, by the rule RunLayout documents, worked out here on
// its own: each event where the one before ends, but a paired run's
// second event with its first, and its third where its first ends.
func runStarts(layout *RunLayout, durs []simclock.Duration, start simclock.Time) []simclock.Time {
	starts := make([]simclock.Time, len(durs))
	at := start
	for k := range durs {
		switch {
		case layout.Paired && k == 1:
			at = starts[0]
		case layout.Paired && k == 2:
			at = starts[0].Add(durs[0])
		}
		starts[k] = at
		at = at.Add(durs[k])
	}
	return starts
}

// nearLimit is MaxEventsPerProfile-2 events of step 0, one after the
// other, as runs of a 1000-event layout, and what FuzzReducerSegments
// needs of them, built once: a window it opens with them is clipped at the
// event limit within its next few events. The runs are held to their
// events, built by runStarts, once, where the target holds every other
// segment to its events per input: its halves build them, and
// AppendSegment writes their bytes. reduced is reduceOracle's state after
// them, which an input copies and goes on reducing, so that one input
// costs the Reducer's pass over the runs and not a million events built,
// reduced by the oracle and encoded twice. (One run of them all would
// cost the Reducer a million names to intern per input.)
var nearLimit struct {
	sync.Once
	segs    []Segment
	end     simclock.Time // where the last event ends
	reduced *oracleReduction
	fault   string // what the one check found wrong
}

func buildNearLimit() {
	const runEvents = 1000
	l := &RunLayout{Names: make([]string, runEvents), Device: TPU}
	durs := make([]simclock.Duration, runEvents)
	for i := range durs {
		l.Names[i] = "fusion"
		durs[i] = 1
	}
	nearLimit.reduced = newOracleReduction(7, 0)
	var at simclock.Time
	for left := MaxEventsPerProfile - 2; left > 0; left -= runEvents {
		seg := Segment{Run: l, Step: 0, Durs: durs, Lo: 0, Hi: min(runEvents, left), Start: at}
		var events []Event
		for k, s := range runStarts(l, durs[:seg.Hi], at) {
			events = append(events, Event{Name: l.Names[k], Device: l.Device, Start: s, Dur: durs[k]})
		}
		head, tail := seg.Cut(seg.Hi / 2)
		switch {
		case !reflect.DeepEqual(tail.AppendEvents(head.AppendEvents(nil)), events):
			nearLimit.fault = "a near-limit run's halves build other events"
		case !bytes.Equal(AppendSegment(nil, &seg), AppendEvents(nil, events)):
			nearLimit.fault = "AppendSegment writes other bytes than AppendEvents for a near-limit run"
		}
		nearLimit.segs = append(nearLimit.segs, seg)
		nearLimit.reduced.add(events)
		at = events[len(events)-1].End()
	}
	nearLimit.end = at
}

// FuzzReducerSegments holds the Reducer, handed a window as segments, to
// reduceOracle over the window's events, by value and by wire bytes, and
// AppendSegment to AppendEvents over them. Each 4-byte group adds host
// events or a device run. Its first byte picks the kind (the top bit: a
// run, else host events), the layout or host name, the step (-1 to 6)
// and how the clock moves first (not at all, a little, to the 60 s
// deadline exactly, or a third of the window, so later events pass it);
// the second seeds the durations (zero among them); the third is the
// distance moved; the fourth's bits cut a run into segments after those
// events, and host events come 1 to 4 in one segment. A first byte of
// 0xff opens the window with MaxEventsPerProfile-2 events (nearLimit), so
// the event limit falls in the events after them. The expected
// events are built by runStarts, not by the code under test, and each
// segment is also cut in two, whose halves must build its events.
// Groups past the 32nd are ignored: an input costs at most that many, and
// the fuzzer's minimizer, which tries removing every stretch of an
// interesting input's bytes, cuts the ignored tail off first instead of
// spending the smoke's seconds on a long input.
func FuzzReducerSegments(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x80, 0x03, 0x05, 0x04, 0x08, 0x07, 0x10, 0x02})
	f.Add([]byte{0x81, 0x00, 0x00, 0xff, 0x92, 0x05, 0x00, 0x00, 0x23, 0x11, 0x40, 0x03})
	f.Add([]byte{0x60, 0x05, 0x01, 0x00, 0xa0, 0x09, 0x20, 0x05, 0xe1, 0x02, 0x00, 0x01, 0xc3, 0x07, 0x00, 0x0a})
	f.Add([]byte{0xff, 0x80, 0x04, 0x00, 0x01, 0x80, 0x00, 0xff, 0x02, 0x01, 0x81, 0x00, 0x00, 0x00})
	hostNames := []string{"Send", "fusion", "Infeed", ""}
	f.Fuzz(func(t *testing.T, data []byte) {
		var segs []Segment
		var events []Event // the events of the segments after a near-limit run
		var at simclock.Time
		oracle := newOracleReduction(7, 0)
		checked := 0 // segments checked already
		if len(data) > 0 && data[0] == 0xff {
			nearLimit.Do(buildNearLimit)
			if nearLimit.fault != "" {
				t.Fatal(nearLimit.fault)
			}
			segs = append(segs, nearLimit.segs...)
			at = nearLimit.end
			oracle = nearLimit.reduced.clone()
			checked = len(segs)
			data = data[1:]
		}
		for g := 0; g < 32 && len(data) >= 4; g, data = g+1, data[4:] {
			b0, seed, move, cuts := data[0], data[1], data[2], data[3]
			switch b0 >> 4 & 3 {
			case 1:
				at = at.Add(simclock.Duration(move))
			case 2:
				if deadline := simclock.Time(0).Add(MaxProfileWindow); at < deadline {
					at = deadline
				}
			case 3:
				at = at.Add(MaxProfileWindow / 3)
			}
			step := int64(b0>>1&7) - 1
			dur := func(k int) simclock.Duration { return simclock.Duration((int(seed) * (k + 3)) % 37) }
			if b0&0x80 == 0 {
				n := 1 + int(cuts&3)
				host := make([]Event, n)
				for k := range host {
					host[k] = Event{Name: hostNames[(int(b0)+k)&3], Device: Host, Start: at, Dur: dur(k), Step: step}
					at = at.Add(simclock.Duration(k))
				}
				segs = append(segs, Segment{Events: host})
				events = append(events, host...)
				continue
			}
			l := segmentLayouts[int(b0)%len(segmentLayouts)]
			durs := make([]simclock.Duration, len(l.Names))
			for k := range durs {
				durs[k] = dur(k)
			}
			starts := runStarts(l, durs, at)
			lo := 0
			for k := range durs {
				if k == len(durs)-1 || cuts>>k&1 != 0 {
					segs = append(segs, Segment{Run: l, Step: step, Durs: durs, Lo: lo, Hi: k + 1, Start: starts[lo]})
					lo = k + 1
				}
				events = append(events, Event{Name: l.Names[k], Device: l.Device, Start: starts[k], Dur: durs[k], Step: step})
			}
			for k := range durs {
				at = max(at, starts[k].Add(durs[k]))
			}
		}
		oracle.add(events)
		want := oracle.record(0.25, 0.5)
		red := NewReducer(7, 0)
		var built []Event
		var wire []byte
		for i, s := range segs {
			red.AddSegment(s)
			if i < checked {
				continue
			}
			head, tail := s.Cut(s.Len() / 2)
			from := len(built)
			built = tail.AppendEvents(head.AppendEvents(built))
			if whole := s.AppendEvents(nil); !reflect.DeepEqual(built[from:], whole) {
				t.Fatalf("segment of %d events cut after %d: the halves build other events", s.Len(), head.Len())
			}
			wire = AppendSegment(wire, &s)
		}
		got := red.Record(0.25, 0.5)
		if !reflect.DeepEqual(got, want) {
			for i := 0; i < min(len(got.Steps), len(want.Steps)); i++ {
				if !reflect.DeepEqual(got.Steps[i], want.Steps[i]) {
					t.Fatalf("%d events in %d segments: step %d\n got %+v\nwant %+v", len(events), len(segs), i, got.Steps[i], want.Steps[i])
				}
			}
			g, w := *got, *want
			g.Steps, w.Steps = nil, nil
			t.Fatalf("%d events in %d segments: %d steps, the oracle %d\n got %+v\nwant %+v", len(events), len(segs), len(got.Steps), len(want.Steps), g, w)
		}
		if !bytes.Equal(MarshalRecord(got), MarshalRecord(want)) {
			t.Fatalf("%d events in %d segments: the records' wire bytes differ", len(events), len(segs))
		}
		if !reflect.DeepEqual(built, events) {
			t.Fatalf("%d events in %d segments: AppendEvents builds other events", len(events), len(segs))
		}
		if !bytes.Equal(wire, AppendEvents(nil, events)) {
			t.Fatalf("%d events in %d segments: AppendSegment writes other bytes than AppendEvents", len(events), len(segs))
		}
	})
}
