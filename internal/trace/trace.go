// Package trace defines the profile data model shared by the TPU device,
// the profiler, and the analyzer.
//
// The unit the device produces is the Event: one op execution with a name,
// device, start time, duration, and training step number. A profile window
// (one profiler request/response round trip) may carry at most
// MaxEventsPerProfile events spanning at most MaxProfileWindow of simulated
// time — the limits the paper reports for Cloud TPU profile responses.
//
// TPUPoint-Profiler does not keep raw events. It reduces each window to a
// ProfileRecord: per-step, per-op statistical summaries (invocation counts
// and total durations) plus the TPU idle-time and MXU-utilization metadata
// that ships with each response. Those records are what the recording
// thread persists and what TPUPoint-Analyzer clusters into phases.
package trace

import (
	"fmt"
	"sort"

	"repro/internal/simclock"
)

// Limits on a single profile window, from the paper (Section III-A):
// "each profile can potentially include a maximum of 1,000,000 events
// lasting for a maximum duration of 60,000 ms in total elapsed time."
const (
	MaxEventsPerProfile = 1_000_000
	MaxProfileWindow    = 60_000 * simclock.Millisecond
)

// Device identifies where an op ran.
type Device uint8

// Devices. The paper's Table II separates "Host Operations" from
// "TPU Operations"; we keep the same split.
const (
	Host Device = iota
	TPU
)

func (d Device) String() string {
	switch d {
	case Host:
		return "host"
	case TPU:
		return "tpu"
	default:
		return fmt.Sprintf("device(%d)", uint8(d))
	}
}

// Event is a single op execution observed by the device.
type Event struct {
	Name   string
	Device Device
	Start  simclock.Time
	Dur    simclock.Duration
	Step   int64 // training step number; -1 for out-of-step activity
}

// End returns the event's end time.
func (e Event) End() simclock.Time { return e.Start.Add(e.Dur) }

// OpKey identifies an operator within a device's namespace.
type OpKey struct {
	Name   string
	Device Device
}

func (k OpKey) String() string { return k.Device.String() + ":" + k.Name }

// OpStat is the statistical summary of one operator: how many times it was
// invoked and the total time it consumed.
type OpStat struct {
	Count int64
	Total simclock.Duration
}

// Add folds another stat into s.
func (s *OpStat) Add(o OpStat) {
	s.Count += o.Count
	s.Total += o.Total
}

// StepStat summarizes all activity attributed to one training step.
type StepStat struct {
	Step  int64
	Start simclock.Time
	End   simclock.Time
	Ops   map[OpKey]OpStat

	// Metadata delivered with each profile response.
	IdleFrac float64 // fraction of the step the TPU sat idle
	MXUUtil  float64 // MXU busy fraction during the step
}

// NewStepStat returns an empty StepStat for the given step number.
func NewStepStat(step int64) *StepStat {
	return &StepStat{Step: step, Ops: make(map[OpKey]OpStat)}
}

// Observe folds one event into the step summary.
func (s *StepStat) Observe(e Event) {
	k := OpKey{Name: e.Name, Device: e.Device}
	st := s.Ops[k]
	st.Count++
	st.Total += e.Dur
	s.Ops[k] = st
	if s.Start == 0 && s.End == 0 {
		s.Start, s.End = e.Start, e.End()
		return
	}
	if e.Start < s.Start {
		s.Start = e.Start
	}
	if e.End() > s.End {
		s.End = e.End()
	}
}

// Duration returns the wall-clock span of the step.
func (s *StepStat) Duration() simclock.Duration { return s.End.Sub(s.Start) }

// TotalOpTime returns the sum of all op durations in the step (may exceed
// Duration when ops overlap across devices).
func (s *StepStat) TotalOpTime() simclock.Duration {
	var t simclock.Duration
	for _, st := range s.Ops {
		t += st.Total
	}
	return t
}

// Merge folds another summary of the same step into s (steps can straddle
// profile-window boundaries). Merging a different step number panics: it is
// always a profiler bug.
func (s *StepStat) Merge(o *StepStat) {
	if o.Step != s.Step {
		panic(fmt.Sprintf("trace: merging step %d into step %d", o.Step, s.Step))
	}
	for k, st := range o.Ops {
		cur := s.Ops[k]
		cur.Add(st)
		s.Ops[k] = cur
	}
	durS, durO := float64(s.Duration()), float64(o.Duration())
	if durS+durO > 0 {
		// Duration-weighted average of the per-window metadata.
		s.IdleFrac = (s.IdleFrac*durS + o.IdleFrac*durO) / (durS + durO)
		s.MXUUtil = (s.MXUUtil*durS + o.MXUUtil*durO) / (durS + durO)
	}
	if o.Start < s.Start {
		s.Start = o.Start
	}
	if o.End > s.End {
		s.End = o.End
	}
}

// Clone returns a deep copy of the step summary.
func (s *StepStat) Clone() *StepStat {
	c := &StepStat{Step: s.Step, Start: s.Start, End: s.End,
		IdleFrac: s.IdleFrac, MXUUtil: s.MXUUtil,
		Ops: make(map[OpKey]OpStat, len(s.Ops))}
	for k, v := range s.Ops {
		c.Ops[k] = v
	}
	return c
}

// ProfileRecord is the statistical reduction of one profile window — what
// TPUPoint-Profiler stores instead of raw events.
type ProfileRecord struct {
	Seq         int64 // monotonically increasing per profiler
	WindowStart simclock.Time
	WindowEnd   simclock.Time
	NumEvents   int64 // events observed in the window before reduction
	Truncated   bool  // window hit MaxEventsPerProfile or MaxProfileWindow
	Gap         bool  // window lost to a fault; no events, a hole in the stream
	Steps       []*StepStat

	// Window-level metadata from the device.
	IdleFrac float64
	MXUUtil  float64
}

// Reduce summarizes a batch of events into a ProfileRecord. Events beyond
// MaxEventsPerProfile, or starting after MaxProfileWindow past windowStart,
// are dropped and the record is marked Truncated — matching the hard limits
// of real Cloud TPU profile responses.
func Reduce(seq int64, windowStart simclock.Time, events []Event, idleFrac, mxuUtil float64) *ProfileRecord {
	rec := &ProfileRecord{
		Seq:         seq,
		WindowStart: windowStart,
		WindowEnd:   windowStart,
		IdleFrac:    idleFrac,
		MXUUtil:     mxuUtil,
	}
	deadline := windowStart.Add(MaxProfileWindow)
	bySteps := make(map[int64]*StepStat)
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
		ss, ok := bySteps[e.Step]
		if !ok {
			ss = NewStepStat(e.Step)
			bySteps[e.Step] = ss
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

// AggregateSteps merges the per-window step summaries of many records into
// one per-step series ordered by step number. This is stage 1 of every
// analyzer algorithm ("extract the records from all statistical profiles
// and aggregate records together using the TPU step numbers").
func AggregateSteps(records []*ProfileRecord) []*StepStat {
	byStep := make(map[int64]*StepStat)
	for _, r := range records {
		for _, s := range r.Steps {
			if cur, ok := byStep[s.Step]; ok {
				cur.Merge(s)
			} else {
				byStep[s.Step] = s.Clone()
			}
		}
	}
	out := make([]*StepStat, 0, len(byStep))
	for _, s := range byStep {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Step < out[j].Step })
	return out
}

// TopOps returns the n most time-consuming operators across the given
// steps for one device, descending by total duration (ties broken by name
// for determinism). This drives the paper's Table II.
func TopOps(steps []*StepStat, dev Device, n int) []OpTotal {
	agg := make(map[string]OpStat)
	for _, s := range steps {
		for k, st := range s.Ops {
			if k.Device != dev {
				continue
			}
			cur := agg[k.Name]
			cur.Add(st)
			agg[k.Name] = cur
		}
	}
	out := make([]OpTotal, 0, len(agg))
	for name, st := range agg {
		out = append(out, OpTotal{Name: name, Device: dev, Count: st.Count, Total: st.Total})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Total != out[j].Total {
			return out[i].Total > out[j].Total
		}
		return out[i].Name < out[j].Name
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// OpTotal is an operator with its aggregate statistics, as reported in
// top-op tables.
type OpTotal struct {
	Name   string
	Device Device
	Count  int64
	Total  simclock.Duration
}
