package trace

import "testing"

// CheckOps fails tb unless s.Ops holds the op-list invariant: strictly
// ascending (device, name) — so one entry per operator — and nil, not
// merely empty, when the step ran nothing (so reflect.DeepEqual sees two
// empty steps as equal however each was built). Shared by this package's
// tests and the external ones in oracle_test.go.
func CheckOps(tb testing.TB, where string, s *StepStat) {
	tb.Helper()
	if s.Ops != nil && len(s.Ops) == 0 {
		tb.Fatalf("%s: step %d has an empty non-nil op list", where, s.Step)
	}
	for i := 1; i < len(s.Ops); i++ {
		if s.Ops[i-1].Key().Compare(s.Ops[i].Key()) >= 0 {
			tb.Fatalf("%s: step %d op list out of order at %d: %v then %v",
				where, s.Step, i, s.Ops[i-1].Key(), s.Ops[i].Key())
		}
	}
}

// RaceEnabled lets the external tests skip exact allocation counts under
// the race detector, as this package's own do.
const RaceEnabled = raceEnabled

// StepSeries is AggregateSteps fed one record, or half a record, at a
// time, for the external oracle tests.
type StepSeries struct{ steps []*StepStat }

func (ss *StepSeries) Add(rec *ProfileRecord) { ss.steps = AddSteps(ss.steps, rec) }

func (ss *StepSeries) Steps() []*StepStat { return ss.steps }

// CheckDecodeMatchesOracle holds UnmarshalRecord to the decoder it
// replaced; ManyNamesRecord and SampleRecord are this package's fixtures.
// For the external oracle tests and benchmark.
var (
	CheckDecodeMatchesOracle = checkDecodeMatchesOracle
	ManyNamesRecord          = manyNamesRecord
	SampleRecord             = sampleRecord
)
