package analyzer

// The open steps are an ordered slice: a new step is placed by walking
// back from the tail, the steps to seal are a prefix. The rule for what
// seals is the records' watermark alone: a step seals once the highest
// positive OpenStep fed exceeds it, and a record holding a fragment of a
// step below that watermark is refused whole. The oracle here replays
// that rule over a Go map, for fragment orders and watermarks the
// profiler does not produce — descending, shuffled, duplicated, a step's
// fragments again far behind, watermarks absent, exact or lagging.

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/trace"
)

// openStepSeals replays recs through the OpenStep rule on a map: the
// order in which steps seal (Finish's drain included), how many
// fragments merged into each, and which records are refused.
func openStepSeals(recs []*trace.ProfileRecord) (sealed []int64, frags []int, refused []int) {
	pending := map[int64]int{}
	open := int64(math.MinInt64)
	sealBelow := func(limit int64) {
		for {
			first := true
			var low int64
			for step := range pending {
				if first || step < low {
					low, first = step, false
				}
			}
			if first || low >= limit {
				return
			}
			sealed, frags = append(sealed, low), append(frags, pending[low])
			delete(pending, low)
		}
	}
records:
	for i, r := range recs {
		for _, st := range r.Steps {
			if st.Step < open {
				refused = append(refused, i)
				continue records
			}
		}
		for _, st := range r.Steps {
			pending[st.Step]++
		}
		if r.OpenStep > 0 && r.OpenStep > open {
			open = r.OpenStep
		}
		sealBelow(open)
	}
	sealBelow(math.MaxInt64)
	return sealed, frags, refused
}

// sealOrder feeds recs one at a time with a threshold no similarity
// meets, so every sealed step opens its own phase: the PhaseOpen
// sequence is the seal order, and each one-step phase's op counts say how
// many fragments the step had merged by then (regimeRecords gives every
// fragment's every op a count of one). It returns the indices of the
// records Feed refused.
func sealOrder(t *testing.T, recs []*trace.ProfileRecord) (*StreamReport, []int64, []int) {
	t.Helper()
	var opened []int64
	var refused []int
	s := NewStream("window", StreamOptions{Threshold: 2,
		OnEvent: func(ev StreamEvent) {
			if ev.Kind == PhaseOpen {
				opened = append(opened, ev.Step)
			}
		}})
	for i, r := range recs {
		if err := s.Feed(r); err != nil {
			refused = append(refused, i)
		}
	}
	return s.Finish(), opened, refused
}

// withOpenStep returns copies of recs whose OpenStep is f of the
// original.
func withOpenStep(recs []*trace.ProfileRecord, f func(open int64) int64) []*trace.ProfileRecord {
	out := make([]*trace.ProfileRecord, len(recs))
	for i, r := range recs {
		c := *r
		c.OpenStep = f(r.OpenStep)
		out[i] = &c
	}
	return out
}

func TestStreamSealsMatchOpenStepOracle(t *testing.T) {
	watermarks := map[string]func(int64) int64{
		"exact":     func(open int64) int64 { return open },
		"absent":    func(int64) int64 { return 0 },
		"lagging16": func(open int64) int64 { return max(open-16, 0) },
		"lagging64": func(open int64) int64 { return max(open-64, 0) },
	}
	for wname, wm := range watermarks {
		base := withOpenStep(regimeRecords(120, 15, 10, nil), wm) // two records per step
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
		// Every step's fragments again, 20 steps after the step — behind
		// an exact or 16-step-lagging watermark, ahead of a 64-step one.
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
			where := fmt.Sprintf("%s, watermark %s", name, wname)
			wantSealed, wantFrags, wantRefused := openStepSeals(recs)
			rep, opened, refused := sealOrder(t, recs)
			if !reflect.DeepEqual(opened, wantSealed) {
				t.Fatalf("%s: steps sealed in order %v, oracle %v", where, opened, wantSealed)
			}
			if !reflect.DeepEqual(refused, wantRefused) {
				t.Fatalf("%s: Feed refused records %v, oracle %v", where, refused, wantRefused)
			}
			if rep.StepsSeen != int64(len(wantSealed)) || rep.Records != int64(len(recs)-len(wantRefused)) {
				t.Fatalf("%s: StepsSeen=%d Records=%d, oracle %d and %d",
					where, rep.StepsSeen, rep.Records, len(wantSealed), len(recs)-len(wantRefused))
			}
			for i, p := range rep.Phases {
				// A fragment holds one or two of its step's three ops,
				// each once; the phase's signature is over their merge.
				if p.FirstStep != wantSealed[i] || p.LastStep != wantSealed[i] || p.Steps != 1 {
					t.Fatalf("%s: phase %d spans [%d,%d] over %d steps, want step %d alone",
						where, i, p.FirstStep, p.LastStep, p.Steps, wantSealed[i])
				}
				if wantFrags[i] >= 2 && len(p.Signature) != 3 {
					t.Fatalf("%s: step %d sealed with %d fragments but %d of its 3 ops",
						where, wantSealed[i], wantFrags[i], len(p.Signature))
				}
			}
		}
	}
}

// TestStreamWindowOrderInvisibleWithinWindow: while nothing seals —
// records without OpenStep — the order fragments arrive in cannot be
// told from the report: the ordered open steps sort what the batch
// aggregation sorts. Descending and shuffled feeds give the report of
// the ascending feed, bit for bit, and that report's boundaries are
// batch OLS's.
func TestStreamWindowOrderInvisibleWithinWindow(t *testing.T) {
	base := withOpenStep(regimeRecords(200, 25, 10, nil), func(int64) int64 { return 0 })
	feed := func(recs []*trace.ProfileRecord) *StreamReport {
		s := NewStream("window", StreamOptions{})
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
