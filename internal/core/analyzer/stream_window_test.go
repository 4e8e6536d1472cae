package analyzer

// The seal window is an ordered slice: a new step is placed by walking
// back from the tail, the step to seal is the head. It used to be a Go
// map scanned for its minimum on every seal; that form is the oracle
// here, for fragment orders the collectors do not normally produce —
// descending, shuffled, duplicated, later than their step's seal.

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/trace"
)

// mapWindowSeals replays recs through the window as a map: the order in
// which steps seal (Finish's drain included), how many fragments merged
// into each, and how many arrived late.
func mapWindowSeals(recs []*trace.ProfileRecord, window int) (sealed []int64, frags []int, late int64) {
	pending := map[int64]int{}
	var last int64
	hasSeal := false
	sealMin := func() {
		first := true
		var min int64
		for step := range pending {
			if first || step < min {
				min, first = step, false
			}
		}
		sealed, frags = append(sealed, min), append(frags, pending[min])
		delete(pending, min)
		last, hasSeal = min, true
	}
	for _, r := range recs {
		for _, st := range r.Steps {
			if hasSeal && st.Step <= last {
				late++
				continue
			}
			pending[st.Step]++
		}
		for len(pending) > window {
			sealMin()
		}
	}
	for len(pending) > 0 {
		sealMin()
	}
	return sealed, frags, late
}

// sealOrder feeds recs with a threshold no similarity meets, so every
// sealed step opens its own phase: the PhaseOpen sequence is the seal
// order, and each one-step phase's op counts say how many fragments the
// step had merged by then (regimeRecords gives every fragment's every op
// a count of one).
func sealOrder(t *testing.T, recs []*trace.ProfileRecord, window int) (*StreamReport, []int64) {
	t.Helper()
	var opened []int64
	s := NewStream("window", StreamOptions{SealWindow: window, Threshold: 2,
		OnEvent: func(ev StreamEvent) {
			if ev.Kind == PhaseOpen {
				opened = append(opened, ev.Step)
			}
		}})
	if err := s.FeedBatch(recs); err != nil {
		t.Fatal(err)
	}
	return s.Finish(), opened
}

func TestStreamWindowMatchesMapWindow(t *testing.T) {
	base := regimeRecords(120, 15, 10, nil) // two records per step
	reversed := make([]*trace.ProfileRecord, len(base))
	for i, r := range base {
		reversed[len(base)-1-i] = r
	}
	shuffled := append([]*trace.ProfileRecord(nil), base...)
	rand.New(rand.NewSource(3)).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	var doubled []*trace.ProfileRecord
	for _, r := range base {
		doubled = append(doubled, r, r)
	}
	// Every step's fragments again, 20 steps after the step — later than
	// a window of 4 or 16 keeps it open, sooner than a window of 64 seals
	// it.
	var echoed []*trace.ProfileRecord
	for i, r := range base {
		echoed = append(echoed, r)
		if i >= 40 {
			echoed = append(echoed, base[i-40])
		}
	}

	for name, recs := range map[string][]*trace.ProfileRecord{
		"ascending": base, "descending": reversed, "shuffled": shuffled, "duplicated": doubled, "echoed": echoed,
	} {
		for _, window := range []int{1, 4, 16, 64, 1000} {
			wantSealed, wantFrags, wantLate := mapWindowSeals(recs, window)
			rep, opened := sealOrder(t, recs, window)
			if !reflect.DeepEqual(opened, wantSealed) {
				t.Fatalf("%s, window %d: steps sealed in order %v, map window %v", name, window, opened, wantSealed)
			}
			if rep.LateSteps != wantLate || rep.StepsSeen != int64(len(wantSealed)) {
				t.Fatalf("%s, window %d: LateSteps=%d StepsSeen=%d, map window %d and %d",
					name, window, rep.LateSteps, rep.StepsSeen, wantLate, len(wantSealed))
			}
			for i, p := range rep.Phases {
				// A fragment holds one or two of its step's three ops,
				// each once; the phase's signature is over their merge.
				if p.FirstStep != wantSealed[i] || p.LastStep != wantSealed[i] || p.Steps != 1 {
					t.Fatalf("%s, window %d: phase %d spans [%d,%d] over %d steps, want step %d alone",
						name, window, i, p.FirstStep, p.LastStep, p.Steps, wantSealed[i])
				}
				if wantFrags[i] >= 2 && len(p.Signature) != 3 {
					t.Fatalf("%s, window %d: step %d sealed with %d fragments but %d of its 3 ops",
						name, window, wantSealed[i], wantFrags[i], len(p.Signature))
				}
			}
		}
	}
}

// TestStreamWindowOrderInvisibleWithinWindow: while nothing seals, the
// order fragments arrive in cannot be told from the report — the ordered
// window sorts what the batch aggregation sorts. Descending and shuffled
// feeds of a run that fits the window give the report of the ascending
// feed, bit for bit, and that report's boundaries are batch OLS's.
func TestStreamWindowOrderInvisibleWithinWindow(t *testing.T) {
	base := regimeRecords(200, 25, 10, nil)
	feed := func(recs []*trace.ProfileRecord) *StreamReport {
		s := NewStream("window", StreamOptions{SealWindow: 1000})
		if err := s.FeedBatch(recs); err != nil {
			t.Fatal(err)
		}
		return s.Finish()
	}
	want := feed(base)
	var batch []int64
	for _, p := range OLS(trace.AggregateSteps(base), DefaultThreshold)[1:] {
		batch = append(batch, p.Steps[0].Step)
	}
	if !reflect.DeepEqual(want.Boundaries(), batch) {
		t.Fatalf("stream boundaries %v, batch OLS %v", want.Boundaries(), batch)
	}

	// Each step's two fragments keep their order (a merge's weighted
	// idle/MXU averages are floats, and the ascending feed merges first
	// into second); the steps arrive backwards or shuffled.
	pairs := len(base) / 2
	order := make([]int, pairs)
	for i := range order {
		order[i] = pairs - 1 - i
	}
	for _, name := range []string{"descending", "shuffled"} {
		var recs []*trace.ProfileRecord
		for _, i := range order {
			recs = append(recs, base[2*i], base[2*i+1])
		}
		if got := feed(recs); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s feed within the window: report differs from the ascending feed's\n got %+v\nwant %+v", name, got, want)
		}
		rand.New(rand.NewSource(5)).Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	}
}
