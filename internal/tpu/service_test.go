package tpu

import (
	"math"
	"sort"
	"testing"

	"repro/internal/rpc"
	"repro/internal/simclock"
	"repro/internal/trace"
)

// sliceSource is a finished event stream: everything is emitted, so a
// step is open past t only while one of its events starts at or after t.
type sliceSource struct {
	events []trace.Event // in Start order
	dev    *Device       // window metadata; nil reports zeros
}

// deviceSource serves the events d has recorded.
func deviceSource(d *Device) *sliceSource {
	return &sliceSource{events: d.Events(), dev: d}
}

func (s *sliceSource) search(t simclock.Time) int {
	return sort.Search(len(s.events), func(i int) bool { return s.events[i].Start >= t })
}

func (s *sliceSource) EventsInWindow(from, to simclock.Time) []trace.Event {
	return s.events[s.search(from):s.search(to)]
}

func (s *sliceSource) WindowMetrics(from, to simclock.Time) (float64, float64) {
	if s.dev == nil {
		return 0, 0
	}
	return s.dev.WindowMetrics(from, to)
}

func (s *sliceSource) OpenStep(t simclock.Time) int64 {
	open := int64(math.MaxInt64)
	for _, e := range s.events[s.search(t):] {
		open = min(open, e.Step)
	}
	return open
}

func serviceFixture(t *testing.T, steps int) (*Device, *ProfileService) {
	t.Helper()
	d := newTestDevice(t, V2)
	at := simclock.Time(0)
	for i := 0; i < steps; i++ {
		st, err := d.RunStep(int64(i), at)
		if err != nil {
			t.Fatal(err)
		}
		at = st.End.Add(1000)
	}
	svc := NewProfileService(deviceSource(d), d.Spec,
		func() simclock.Time { return d.FreeAt() },
		func() bool { return true })
	return d, svc
}

// drain polls svc to the end of the stream and returns its responses.
func drain(t *testing.T, svc *ProfileService) []ProfileResponse {
	t.Helper()
	var out []ProfileResponse
	for i := 0; i < 1000; i++ {
		resp := svc.NextWindow()
		out = append(out, resp)
		if resp.EndOfStream {
			return out
		}
	}
	t.Fatal("no end of stream after 1000 windows")
	return nil
}

func TestNextWindowDeliversAllEvents(t *testing.T) {
	d, svc := serviceFixture(t, 30)
	var got int
	for _, resp := range drain(t, svc) {
		got += len(resp.Events)
	}
	if got != len(d.Events()) {
		t.Fatalf("delivered %d of %d events", got, len(d.Events()))
	}
}

// TestNextWindowOpenStepIsAWatermark: no window holds an event of a
// step below the OpenStep an earlier window reported, and the last
// non-empty window says every step is complete.
func TestNextWindowOpenStepIsAWatermark(t *testing.T) {
	d := newTestDevice(t, V2)
	at := simclock.Time(0)
	for i := 0; i < 30; i++ {
		st, err := d.RunStep(int64(i), at)
		if err != nil {
			t.Fatal(err)
		}
		at = st.End.Add(trace.MaxProfileWindow / 8) // several windows
	}
	svc := NewProfileService(deviceSource(d), d.Spec,
		func() simclock.Time { return d.FreeAt() },
		func() bool { return true })
	open, last := int64(math.MinInt64), int64(0) // a non-positive OpenStep says nothing
	windows := 0
	for _, resp := range drain(t, svc) {
		if len(resp.Events) == 0 {
			continue
		}
		windows++
		for _, e := range resp.Events {
			if e.Step < open {
				t.Fatalf("window [%d, %d) holds step %d, below the OpenStep %d an earlier window reported",
					resp.WindowStart, resp.WindowEnd, e.Step, open)
			}
		}
		if resp.OpenStep > 0 {
			open = max(open, resp.OpenStep)
		}
		last = resp.OpenStep
	}
	if windows < 3 {
		t.Fatalf("%d non-empty windows; the fixture should span several", windows)
	}
	if last != math.MaxInt64 {
		t.Fatalf("last window's OpenStep = %d, want MaxInt64", last)
	}
}

// TestNextWindowClipKeepsEqualStarts: when the event limit falls inside
// a run of equal Starts, the window ends before the run and the next one
// ships it whole — no event is skipped or shipped twice.
func TestNextWindowClipKeepsEqualStarts(t *testing.T) {
	limit := trace.MaxEventsPerProfile
	events := make([]trace.Event, limit+2)
	for i := range events {
		// The events at limit-1, limit and limit+1 share a Start.
		events[i] = trace.Event{Name: "op", Device: trace.TPU, Start: simclock.Time(min(i, limit-1)), Dur: 1}
	}
	src := &sliceSource{events: events}
	end := events[len(events)-1].Start + 1
	svc := NewProfileService(src, ChipSpec{},
		func() simclock.Time { return end },
		func() bool { return true })
	var got int
	for _, resp := range drain(t, svc) {
		if len(resp.Events) > limit {
			t.Fatalf("window of %d events, limit %d", len(resp.Events), limit)
		}
		got += len(resp.Events)
	}
	if got != len(events) {
		t.Fatalf("delivered %d of %d events", got, len(events))
	}
}

func TestNextWindowRespectsDurationLimit(t *testing.T) {
	d := newTestDevice(t, V2)
	// Two steps separated by more than the max window.
	st, _ := d.RunStep(0, 0)
	d.RunStep(1, st.End.Add(2*trace.MaxProfileWindow))
	svc := NewProfileService(deviceSource(d), d.Spec,
		func() simclock.Time { return d.FreeAt() },
		func() bool { return true })

	first := svc.NextWindow()
	if first.WindowEnd.Sub(first.WindowStart) > trace.MaxProfileWindow {
		t.Fatalf("window span %v exceeds limit", first.WindowEnd.Sub(first.WindowStart))
	}
	if !first.Truncated {
		t.Fatal("clipped window not marked truncated")
	}
	if first.EndOfStream {
		t.Fatal("end of stream before all events delivered")
	}
}

func TestNextWindowEmptyBeforeActivity(t *testing.T) {
	d := newTestDevice(t, V2)
	svc := NewProfileService(deviceSource(d), d.Spec,
		func() simclock.Time { return 0 },
		func() bool { return false })
	resp := svc.NextWindow()
	if len(resp.Events) != 0 || resp.EndOfStream {
		t.Fatalf("idle service returned %d events, eos=%v", len(resp.Events), resp.EndOfStream)
	}
}

func TestWindowMetadataPlausible(t *testing.T) {
	_, svc := serviceFixture(t, 30)
	resp := svc.NextWindow()
	if resp.IdleFrac < 0 || resp.IdleFrac > 1 {
		t.Fatalf("idle = %g", resp.IdleFrac)
	}
	if resp.MXUUtil < 0 || resp.MXUUtil > 1 {
		t.Fatalf("mxu = %g", resp.MXUUtil)
	}
}

func TestProfileOverRPC(t *testing.T) {
	d, svc := serviceFixture(t, 20)
	srv := rpc.NewServer()
	svc.Register(srv)
	defer srv.Close()
	c := rpc.Pipe(srv)
	defer c.Close()

	var got int
	for i := 0; i < 100; i++ {
		raw, err := c.Call(MethodProfile, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := UnmarshalProfileResponse(raw)
		if err != nil {
			t.Fatal(err)
		}
		got += len(resp.Events)
		if resp.EndOfStream {
			break
		}
	}
	if got != len(d.Events()) {
		t.Fatalf("RPC delivered %d of %d events", got, len(d.Events()))
	}
}

func TestStatusOverRPC(t *testing.T) {
	_, svc := serviceFixture(t, 1)
	srv := rpc.NewServer()
	svc.Register(srv)
	defer srv.Close()
	c := rpc.Pipe(srv)
	defer c.Close()

	raw, err := c.Call(MethodStatus, nil)
	if err != nil {
		t.Fatal(err)
	}
	st, err := UnmarshalStatusResponse(raw)
	if err != nil {
		t.Fatal(err)
	}
	if st.Version != "TPUv2" || st.MXUs != 2 || st.PeakTFLOPS != 45 {
		t.Fatalf("status = %+v", st)
	}
}

func TestProfileResponseRoundTrip(t *testing.T) {
	resp := &ProfileResponse{
		Events: []trace.Event{
			{Name: "fusion", Device: trace.TPU, Start: 10, Dur: 100, Step: 3},
			{Name: "OutfeedDequeueTuple", Device: trace.Host, Start: 110, Dur: 20, Step: 3},
		},
		WindowStart: 0,
		WindowEnd:   200,
		IdleFrac:    0.39,
		MXUUtil:     0.22,
		EndOfStream: true,
		Truncated:   true,
		OpenStep:    3,
	}
	got, err := UnmarshalProfileResponse(marshalProfileResponse(resp))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Events) != 2 || got.Events[0] != resp.Events[0] || got.Events[1] != resp.Events[1] {
		t.Fatalf("events: %+v", got.Events)
	}
	if got.WindowEnd != 200 || got.IdleFrac != 0.39 || got.MXUUtil != 0.22 ||
		!got.EndOfStream || !got.Truncated || got.OpenStep != 3 {
		t.Fatalf("fields: %+v", got)
	}
}

func TestEventBatchRoundTrip(t *testing.T) {
	events := []trace.Event{
		{Name: "a", Device: trace.Host, Start: 1, Dur: 2, Step: -1},
		{Name: "b", Device: trace.TPU, Start: 3, Dur: 4, Step: 7},
	}
	got, err := trace.UnmarshalEvents(trace.MarshalEvents(events))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != events[0] || got[1] != events[1] {
		t.Fatalf("round trip: %+v", got)
	}
	if empty, err := trace.UnmarshalEvents(trace.MarshalEvents(nil)); err != nil || len(empty) != 0 {
		t.Fatalf("empty batch: %v %v", empty, err)
	}
}
