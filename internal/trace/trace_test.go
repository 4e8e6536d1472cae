package trace

import (
	"testing"

	"repro/internal/simclock"
)

func ev(name string, dev Device, start simclock.Time, dur simclock.Duration, step int64) Event {
	return Event{Name: name, Device: dev, Start: start, Dur: dur, Step: step}
}

func TestStepStatObserve(t *testing.T) {
	s := NewStepStat(3)
	s.Observe(ev("MatMul", TPU, 100, 50, 3))
	s.Observe(ev("MatMul", TPU, 150, 30, 3))
	s.Observe(ev("Reshape", TPU, 180, 10, 3))

	if st, _ := s.Op(OpKey{"MatMul", TPU}); st.Count != 2 || st.Total != 80 {
		t.Fatalf("MatMul stat = %+v", st)
	}
	if s.Start != 100 || s.End != 190 {
		t.Fatalf("span [%d,%d)", s.Start, s.End)
	}
	if s.Duration() != 90 {
		t.Fatalf("Duration = %d", s.Duration())
	}
	if s.TotalOpTime() != 90 {
		t.Fatalf("TotalOpTime = %d", s.TotalOpTime())
	}
}

func TestStepStatObserveExtendsLeft(t *testing.T) {
	s := NewStepStat(0)
	s.Observe(ev("a", Host, 100, 10, 0))
	s.Observe(ev("b", Host, 50, 10, 0))
	if s.Start != 50 {
		t.Fatalf("Start = %d, want 50", s.Start)
	}
}

func TestMergeSameStep(t *testing.T) {
	a := NewStepStat(5)
	a.Observe(ev("x", TPU, 0, 100, 5))
	a.IdleFrac, a.MXUUtil = 0.2, 0.5
	b := NewStepStat(5)
	b.Observe(ev("x", TPU, 100, 100, 5))
	b.Observe(ev("y", Host, 100, 20, 5))
	b.IdleFrac, b.MXUUtil = 0.4, 0.3

	a.Merge(b)
	if st, _ := a.Op(OpKey{"x", TPU}); st.Count != 2 || st.Total != 200 {
		t.Fatalf("merged x = %+v", st)
	}
	if _, ok := a.Op(OpKey{"y", Host}); !ok {
		t.Fatal("merged op y missing")
	}
	if a.Start != 0 || a.End != 200 {
		t.Fatalf("merged span [%d,%d)", a.Start, a.End)
	}
	// Weighted average of idle: both windows 100 long -> 0.3.
	if a.IdleFrac < 0.29 || a.IdleFrac > 0.31 {
		t.Fatalf("merged idle = %g", a.IdleFrac)
	}
}

func TestMergeDifferentStepPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("merge of different steps did not panic")
		}
	}()
	NewStepStat(1).Merge(NewStepStat(2))
}

func TestCloneIndependence(t *testing.T) {
	a := NewStepStat(1)
	a.Observe(ev("x", TPU, 0, 10, 1))
	c := a.Clone()
	c.Observe(ev("x", TPU, 10, 10, 1))
	if st, _ := a.Op(OpKey{"x", TPU}); st.Count != 1 {
		t.Fatal("clone shares op list")
	}
}

func TestReduceGroupsBySteps(t *testing.T) {
	events := []Event{
		ev("infeed", TPU, 0, 10, 1),
		ev("MatMul", TPU, 10, 80, 1),
		ev("infeed", TPU, 100, 10, 2),
		ev("MatMul", TPU, 110, 85, 2),
	}
	rec := Reduce(7, 0, events, 0.35, 0.25)
	if rec.Seq != 7 || rec.NumEvents != 4 || rec.Truncated {
		t.Fatalf("record header: %+v", rec)
	}
	if len(rec.Steps) != 2 {
		t.Fatalf("steps = %d", len(rec.Steps))
	}
	if rec.Steps[0].Step != 1 || rec.Steps[1].Step != 2 {
		t.Fatal("steps not sorted")
	}
	if rec.Steps[0].IdleFrac != 0.35 || rec.Steps[0].MXUUtil != 0.25 {
		t.Fatal("metadata not propagated to steps")
	}
	if rec.WindowEnd != 195 {
		t.Fatalf("WindowEnd = %d", rec.WindowEnd)
	}
}

func TestReduceEventLimit(t *testing.T) {
	events := make([]Event, 0, MaxEventsPerProfile+10)
	for i := 0; i < MaxEventsPerProfile+10; i++ {
		events = append(events, ev("x", TPU, simclock.Time(i), 1, 0))
	}
	rec := Reduce(0, 0, events, 0, 0)
	if !rec.Truncated {
		t.Fatal("record over event limit not truncated")
	}
	if rec.NumEvents != MaxEventsPerProfile {
		t.Fatalf("NumEvents = %d", rec.NumEvents)
	}
}

func TestReduceWindowLimit(t *testing.T) {
	events := []Event{
		ev("a", TPU, 0, 10, 0),
		ev("b", TPU, simclock.Time(MaxProfileWindow)+1000, 10, 0),
	}
	rec := Reduce(0, 0, events, 0, 0)
	if !rec.Truncated {
		t.Fatal("record over window limit not truncated")
	}
	if rec.NumEvents != 1 {
		t.Fatalf("NumEvents = %d", rec.NumEvents)
	}
}

func TestAggregateStepsMergesAcrossRecords(t *testing.T) {
	r1 := Reduce(0, 0, []Event{
		ev("MatMul", TPU, 0, 50, 1),
		ev("MatMul", TPU, 100, 50, 2),
	}, 0.3, 0.2)
	r2 := Reduce(1, 150, []Event{
		ev("MatMul", TPU, 150, 50, 2), // step 2 straddles the boundary
		ev("MatMul", TPU, 200, 50, 3),
	}, 0.3, 0.2)

	steps := AggregateSteps([]*ProfileRecord{r1, r2})
	if len(steps) != 3 {
		t.Fatalf("aggregated %d steps, want 3", len(steps))
	}
	if steps[1].Step != 2 {
		t.Fatalf("middle step = %d", steps[1].Step)
	}
	if st, _ := steps[1].Op(OpKey{"MatMul", TPU}); st.Count != 2 || st.Total != 100 {
		t.Fatalf("straddling step stat = %+v", st)
	}
}

func TestAggregateStepsDoesNotMutateRecords(t *testing.T) {
	r1 := Reduce(0, 0, []Event{ev("x", TPU, 0, 10, 1)}, 0, 0)
	r2 := Reduce(1, 0, []Event{ev("x", TPU, 10, 10, 1)}, 0, 0)
	AggregateSteps([]*ProfileRecord{r1, r2})
	if st, _ := r1.Steps[0].Op(OpKey{"x", TPU}); st.Count != 1 {
		t.Fatal("AggregateSteps mutated source record")
	}
}

func TestTopOps(t *testing.T) {
	s1 := NewStepStat(1)
	s1.Observe(ev("fusion", TPU, 0, 500, 1))
	s1.Observe(ev("Reshape", TPU, 500, 200, 1))
	s1.Observe(ev("OutfeedDequeueTuple", Host, 0, 900, 1))
	s2 := NewStepStat(2)
	s2.Observe(ev("fusion", TPU, 1000, 600, 2))
	s2.Observe(ev("MatMul", TPU, 1600, 400, 2))

	top := TopOps([]*StepStat{s1, s2}, TPU, 2)
	if len(top) != 2 {
		t.Fatalf("top len = %d", len(top))
	}
	if top[0].Name != "fusion" || top[0].Total != 1100 || top[0].Count != 2 {
		t.Fatalf("top[0] = %+v", top[0])
	}
	if top[1].Name != "MatMul" {
		t.Fatalf("top[1] = %+v", top[1])
	}
	// Host namespace is separate.
	host := TopOps([]*StepStat{s1, s2}, Host, 5)
	if len(host) != 1 || host[0].Name != "OutfeedDequeueTuple" {
		t.Fatalf("host top = %+v", host)
	}
}

func TestTopOpsTieBreakByName(t *testing.T) {
	s := NewStepStat(0)
	s.Observe(ev("beta", TPU, 0, 100, 0))
	s.Observe(ev("alpha", TPU, 100, 100, 0))
	top := TopOps([]*StepStat{s}, TPU, 0)
	if top[0].Name != "alpha" || top[1].Name != "beta" {
		t.Fatalf("tie-break order: %+v", top)
	}
}

func TestDeviceString(t *testing.T) {
	if Host.String() != "host" || TPU.String() != "tpu" {
		t.Fatal("device names")
	}
	if Device(9).String() != "device(9)" {
		t.Fatal("unknown device name")
	}
}

func TestEventEnd(t *testing.T) {
	e := ev("x", TPU, 10, 5, 0)
	if e.End() != 15 {
		t.Fatalf("End = %d", e.End())
	}
}
