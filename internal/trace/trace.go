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
	"slices"
	"sort"
	"strings"

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

// Compare orders operators by device, then name — the order of a step's
// op list and of the op entries on the wire. It returns -1, 0 or +1.
func (k OpKey) Compare(o OpKey) int {
	if k.Device != o.Device {
		if k.Device < o.Device {
			return -1
		}
		return 1
	}
	return strings.Compare(k.Name, o.Name)
}

// OpTotal is the statistical summary of one operator — how many times it
// was invoked and the total time it consumed: an entry of a step's op
// list, and a row of a top-op table.
type OpTotal struct {
	Name   string
	Device Device
	Count  int64
	Total  simclock.Duration
}

// Key returns the operator the entry describes.
func (e OpTotal) Key() OpKey { return OpKey{Name: e.Name, Device: e.Device} }

// StepStat summarizes all activity attributed to one training step.
type StepStat struct {
	Step  int64
	Start simclock.Time
	End   simclock.Time

	// Ops holds one entry per operator the step ran, in strictly
	// ascending OpKey order (device, then name); nil when the step ran
	// none. Read it by ranging, or through Op for one operator; it grows
	// only through Observe and Merge, which keep the order. Walking
	// sorted lists is what lets Merge, the analyzer's step similarity and
	// the wire encoder work without hashing a name, and the sums they
	// take are integers, so the order never reaches a result.
	Ops []OpTotal

	// Metadata delivered with each profile response.
	IdleFrac float64 // fraction of the step the TPU sat idle
	MXUUtil  float64 // MXU busy fraction during the step
}

// NewStepStat returns an empty StepStat for the given step number.
func NewStepStat(step int64) *StepStat {
	return &StepStat{Step: step}
}

// searchOps returns the position of k in ops, or the position it would
// be inserted at, and whether it is there. (Written out: Observe calls it
// once per event, and slices.BinarySearchFunc, comparing through a func
// value, more than doubles its time.)
func searchOps(ops []OpTotal, k OpKey) (int, bool) {
	lo, hi := 0, len(ops)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ops[mid].Key().Compare(k) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(ops) && ops[lo].Key() == k
}

// Op returns the step's entry for one operator.
func (s *StepStat) Op(k OpKey) (OpTotal, bool) {
	i, ok := searchOps(s.Ops, k)
	if !ok {
		return OpTotal{}, false
	}
	return s.Ops[i], true
}

// add folds e into the step's entry for its operator, inserting it in
// order if the step has none yet.
func (s *StepStat) add(e OpTotal) {
	i, ok := searchOps(s.Ops, e.Key())
	if !ok {
		s.Ops = slices.Insert(s.Ops, i, e)
		return
	}
	s.Ops[i].Count += e.Count
	s.Ops[i].Total += e.Total
}

// Observe folds one event into the step summary.
func (s *StepStat) Observe(e Event) {
	s.add(OpTotal{Name: e.Name, Device: e.Device, Count: 1, Total: e.Dur})
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
	for i := range s.Ops {
		t += s.Ops[i].Total
	}
	return t
}

// MergeOps folds the sorted op list src into the sorted op list dst and
// returns the result: counts and totals of operators both hold are
// summed, operators only src holds are inserted in order. While src adds
// no operator the sums land in dst's own entries, and if it never does
// dst is returned as is; from the first operator dst lacks, the rest is
// merged into a new list. src is only read, and the result never shares
// memory with it.
func MergeOps(dst, src []OpTotal) []OpTotal {
	i, j := 0, 0
	for ; j < len(src); i++ {
		c := 1
		if i < len(dst) {
			c = dst[i].Key().Compare(src[j].Key())
		}
		if c > 0 {
			break
		}
		if c == 0 {
			dst[i].Count += src[j].Count
			dst[i].Total += src[j].Total
			j++
		}
	}
	if j == len(src) {
		return dst
	}
	out := append(make([]OpTotal, 0, len(dst)+len(src)-j), dst[:i]...)
	for i < len(dst) && j < len(src) {
		switch c := dst[i].Key().Compare(src[j].Key()); {
		case c < 0:
			out = append(out, dst[i])
			i++
		case c > 0:
			out = append(out, src[j])
			j++
		default:
			e := dst[i]
			e.Count += src[j].Count
			e.Total += src[j].Total
			out = append(out, e)
			i++
			j++
		}
	}
	return append(append(out, dst[i:]...), src[j:]...)
}

// Merge folds another summary of the same step into s (steps can straddle
// profile-window boundaries). o is only read, and s never comes to share
// memory with it: decoded records stay immutable however often their
// steps are merged into others. Merging a different step number panics:
// it is always a profiler bug.
func (s *StepStat) Merge(o *StepStat) {
	if o.Step != s.Step {
		panic(fmt.Sprintf("trace: merging step %d into step %d", o.Step, s.Step))
	}
	s.Ops = MergeOps(s.Ops, o.Ops)
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
	c := *s
	c.Ops = append([]OpTotal(nil), s.Ops...)
	return &c
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

	// OpenStep is the profile service's watermark for the window: no
	// later record holds a fragment of a step below it. Only a positive
	// value says anything; zero is what a gap, and a record written
	// before the field existed, carry.
	OpenStep int64

	// Window-level metadata from the device.
	IdleFrac float64
	MXUUtil  float64
}

// AggregateSteps merges the per-window step summaries of many records into
// one per-step series ordered by step number: one StepStat per distinct
// step number, every fragment of the step merged in the order it arrived.
// This is stage 1 of every analyzer algorithm ("extract the records from
// all statistical profiles and aggregate records together using the TPU
// step numbers"). The records are only read, and the series never comes
// to share memory with them.
func AggregateSteps(records []*ProfileRecord) []*StepStat {
	var steps []*StepStat
	for _, r := range records {
		steps = AddSteps(steps, r)
	}
	return steps
}

// AddSteps merges a record's step fragments into steps, which is
// ascending by step number, and returns the extended series. Fragments
// arrive nearly in that order, so a fragment is placed by walking back
// from the tail. A fragment of a new step enters as a clone, so the
// series never shares memory with rec.
func AddSteps(steps []*StepStat, rec *ProfileRecord) []*StepStat {
	for _, s := range rec.Steps {
		i := len(steps)
		for i > 0 && steps[i-1].Step > s.Step {
			i--
		}
		if i > 0 && steps[i-1].Step == s.Step {
			steps[i-1].Merge(s)
			continue
		}
		steps = slices.Insert(steps, i, s.Clone())
	}
	return steps
}

// MergeSteps returns the operator totals of the steps summed into one
// sorted op list — the table TopOf cuts each device's rows from.
func MergeSteps(steps []*StepStat) []OpTotal {
	var all []OpTotal
	for _, s := range steps {
		all = MergeOps(all, s.Ops)
	}
	return all
}

// TopOf returns the n most time-consuming operators of one device in ops,
// descending by total duration (ties broken by name for determinism); all
// of them when n <= 0. ops is only read.
func TopOf(ops []OpTotal, dev Device, n int) []OpTotal {
	out := []OpTotal{}
	for _, e := range ops {
		if e.Device == dev {
			out = append(out, e)
		}
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

// TopOps returns the n most time-consuming operators across the given
// steps for one device. This drives the paper's Table II; a caller that
// wants both devices' tables merges once and calls TopOf twice.
func TopOps(steps []*StepStat, dev Device, n int) []OpTotal {
	return TopOf(MergeSteps(steps), dev, n)
}
