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
	rec := &ProfileRecord{
		Seq:         seq,
		WindowStart: windowStart,
		WindowEnd:   windowStart,
		IdleFrac:    idleFrac,
		MXUUtil:     mxuUtil,
	}
	deadline := windowStart.Add(MaxProfileWindow)
	bySteps := make(map[int64]*StepStat)
	var ss *StepStat
	for _, e := range events {
		if rec.NumEvents >= MaxEventsPerProfile {
			rec.Truncated = true
			break
		}
		if e.Start > deadline {
			rec.Truncated = true
			break
		}
		rec.NumEvents++
		if ss == nil || ss.Step != e.Step {
			if ss = bySteps[e.Step]; ss == nil {
				ss = NewStepStat(e.Step)
				bySteps[e.Step] = ss
			}
		}
		ss.Observe(e)
		if e.End() > rec.WindowEnd {
			rec.WindowEnd = e.End()
		}
	}
	steps := make([]*StepStat, 0, len(bySteps))
	for _, ss := range bySteps {
		ss.IdleFrac = idleFrac
		ss.MXUUtil = mxuUtil
		steps = append(steps, ss)
	}
	sort.Slice(steps, func(i, j int) bool { return steps[i].Step < steps[j].Step })
	rec.Steps = steps
	return rec
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

// nearLimit is a run of MaxEventsPerProfile-2 events, built once: a
// window FuzzReducerSegments opens with it is clipped at the event limit
// within its next few events.
var nearLimit struct {
	sync.Once
	layout *RunLayout
	durs   []simclock.Duration
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
// 0xff opens the window with a run of MaxEventsPerProfile-2 events, so
// the event limit falls in the events after it. The expected events are
// built by runStarts, not by the code under test, and each segment is
// also cut in two, whose halves must build its events.
func FuzzReducerSegments(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x80, 0x03, 0x05, 0x04, 0x08, 0x07, 0x10, 0x02})
	f.Add([]byte{0x81, 0x00, 0x00, 0xff, 0x92, 0x05, 0x00, 0x00, 0x23, 0x11, 0x40, 0x03})
	f.Add([]byte{0x60, 0x05, 0x01, 0x00, 0xa0, 0x09, 0x20, 0x05, 0xe1, 0x02, 0x00, 0x01, 0xc3, 0x07, 0x00, 0x0a})
	f.Add([]byte{0xff, 0x80, 0x04, 0x00, 0x01, 0x80, 0x00, 0xff, 0x02, 0x01, 0x81, 0x00, 0x00, 0x00})
	hostNames := []string{"Send", "fusion", "Infeed", ""}
	f.Fuzz(func(t *testing.T, data []byte) {
		var segs []Segment
		var events []Event
		var at simclock.Time
		if len(data) > 0 && data[0] == 0xff {
			nearLimit.Do(func() {
				n := MaxEventsPerProfile - 2
				nearLimit.layout = &RunLayout{Names: make([]string, n), Device: TPU}
				nearLimit.durs = make([]simclock.Duration, n)
				for i := range nearLimit.durs {
					nearLimit.layout.Names[i] = "fusion"
					nearLimit.durs[i] = 1
				}
			})
			l, durs := nearLimit.layout, nearLimit.durs
			segs = append(segs, Segment{Run: l, Step: 0, Durs: durs, Lo: 0, Hi: len(durs)})
			for k, s := range runStarts(l, durs, 0) {
				events = append(events, Event{Name: l.Names[k], Device: l.Device, Start: s, Dur: durs[k]})
			}
			at = events[len(events)-1].End()
			data = data[1:]
		}
		for ; len(data) >= 4; data = data[4:] {
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
		want := reduceOracle(7, 0, events, 0.25, 0.5)
		red := NewReducer(7, 0)
		var built []Event
		var wire []byte
		for _, s := range segs {
			red.AddSegment(s)
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
