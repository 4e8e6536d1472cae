package analyzer_test

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	tpupoint "repro"
	"repro/internal/core/analyzer"
	"repro/internal/experiments"
	"repro/internal/simclock"
	"repro/internal/trace"
)

// olsOracle is batch OLS as the loop it was before the boundary chain was
// shared with the StreamAnalyzer: compare each step with the one before
// it, merge when the similarity meets the threshold — an undefined (NaN)
// similarity or threshold never does — and open a phase otherwise.
func olsOracle(steps []*trace.StepStat, threshold float64) []*analyzer.Phase {
	if len(steps) == 0 {
		return nil
	}
	add := func(p *analyzer.Phase, s *trace.StepStat) {
		if len(p.Steps) == 0 || s.Start < p.Start {
			p.Start = s.Start
		}
		if s.End > p.End {
			p.End = s.End
		}
		p.Total += s.End.Sub(s.Start)
		p.Steps = append(p.Steps, s)
	}
	var phases []*analyzer.Phase
	cur := &analyzer.Phase{ID: 0}
	add(cur, steps[0])
	for i := 1; i < len(steps); i++ {
		sim := analyzer.StepSimilarity(steps[i-1], steps[i])
		if !math.IsNaN(sim) && !math.IsNaN(threshold) && sim >= threshold {
			add(cur, steps[i])
			continue
		}
		phases = append(phases, cur)
		cur = &analyzer.Phase{ID: len(phases)}
		add(cur, steps[i])
	}
	return append(phases, cur)
}

// TestOLSMatchesLoopOracle: OLS over the shared boundary chain gives the
// loop's phases — same members, same spans — on the six Table I
// recordings at every Figure 6 threshold (0 and 1.0 included: the chain
// takes the threshold verbatim) and at a NaN threshold, and on runs of
// zero-op steps, whose similarity is undefined.
func TestOLSMatchesLoopOracle(t *testing.T) {
	check := func(name string, steps []*trace.StepStat, threshold float64) {
		t.Helper()
		got, want := analyzer.OLS(steps, threshold), olsOracle(steps, threshold)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s at threshold %v: OLS found %d phases, the loop oracle %d (or their members differ)",
				name, threshold, len(got), len(want))
		}
	}
	thresholds := append([]float64{math.NaN()}, experiments.Fig6Thresholds...)

	for _, workload := range []string{"bert-mrpc", "resnet-imagenet", "dcgan-mnist"} {
		for _, v := range []tpupoint.Version{tpupoint.V2, tpupoint.V3} {
			s, err := tpupoint.NewSession(workload, tpupoint.Options{Version: v, Steps: 300, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Train(); err != nil {
				t.Fatal(err)
			}
			p, err := s.StartProfiler(true)
			if err != nil {
				t.Fatal(err)
			}
			recs, err := p.Stop()
			if err != nil {
				t.Fatal(err)
			}
			steps := trace.AggregateSteps(recs)
			for _, th := range thresholds {
				check(fmt.Sprintf("%s-%s", workload, v), steps, th)
			}
		}
	}

	// Runs of zero-op steps between and around two op mixes.
	var steps []*trace.StepStat
	for i, ops := range [][]string{nil, nil, {"a", "b"}, {"a", "b"}, nil, nil, nil, {"c"}, nil, {"c"}, {"a", "c"}, nil} {
		st := trace.NewStepStat(int64(i))
		at := simclock.Time(100 * (i + 1))
		st.Start, st.End = at, at.Add(50)
		for _, op := range ops {
			st.Observe(trace.Event{Name: op, Device: trace.TPU, Start: at, Dur: 10, Step: int64(i)})
		}
		steps = append(steps, st)
	}
	for _, th := range thresholds {
		check("zero-op runs", steps, th)
	}
	check("no steps", nil, 0.7)
}
