package tpu

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"repro/internal/prng"
	"repro/internal/simclock"
	"repro/internal/trace"
	"repro/internal/xla"
)

// oracleDevice is the device's event stream as Device stored it before
// it kept runs and durations: every event built as it is emitted and held
// whole, 48 bytes and a string each. It draws the same jitter in the same
// order, so a Device and an oracleDevice given the same calls must hold
// the same events.
type oracleDevice struct {
	timing  *Device // instructionTime, which the stream's layout does not touch
	rng     *prng.Source
	jitterF float64
	program *xla.Program
	freeAt  simclock.Time
	events  []trace.Event
}

func newOracleDevice(spec ChipSpec, seed uint64) *oracleDevice {
	return &oracleDevice{timing: &Device{Spec: spec}, rng: prng.New(seed), jitterF: 0.04}
}

func (d *oracleDevice) RunStep(step int64, batchReady simclock.Time) {
	spec := d.timing.Spec
	t := max(d.freeAt, batchReady)
	if d.program.InfeedBytes > 0 {
		dur := simclock.Duration(float64(d.program.InfeedBytes)/spec.hbmBytesPerMicro()+0.5) + spec.IssueOverhead
		dur = d.jitter(dur)
		d.emit("InfeedDequeueTuple", t, dur, step)
		d.emit("Infeed", t, dur/2, step)
		t = t.Add(dur)
	}
	for _, inst := range d.program.Instructions {
		dur := d.jitter(d.timing.instructionTime(inst))
		d.emit(inst.Op, t, dur, step)
		t = t.Add(dur)
	}
	if d.program.OutfeedBytes > 0 {
		dur := simclock.Duration(float64(d.program.OutfeedBytes)/spec.hbmBytesPerMicro()+0.5) + spec.IssueOverhead
		dur = d.jitter(dur)
		d.emit("Outfeed", t, dur, step)
		t = t.Add(dur)
	}
	d.freeAt = t
}

func (d *oracleDevice) InjectEvent(name string, at simclock.Time, dur simclock.Duration, step int64) error {
	if n := len(d.events); n > 0 && at < d.events[n-1].Start {
		return fmt.Errorf("tpu: event %q at %d starts before the last event, at %d", name, at, d.events[n-1].Start)
	}
	d.emit(name, at, dur, step)
	if end := at.Add(dur); end > d.freeAt {
		d.freeAt = end
	}
	return nil
}

func (d *oracleDevice) emit(name string, at simclock.Time, dur simclock.Duration, step int64) {
	d.events = append(d.events, trace.Event{
		Name: name, Device: trace.TPU, Start: at, Dur: dur, Step: step,
	})
}

func (d *oracleDevice) jitter(dur simclock.Duration) simclock.Duration {
	j := d.rng.Jitter(float64(dur), d.jitterF)
	if j < 1 {
		j = 1
	}
	return simclock.Duration(j)
}

// deviceEvents builds d's whole event stream by reading it from the start.
func deviceEvents(d *Device) []trace.Event {
	out := make([]trace.Event, d.EventCount())
	rd := d.Seek(0)
	readThrough(&rd, out, math.MaxInt64)
	return out
}

// readThrough fills dst with rd's next events that start no later than
// t, stopping early at one that starts later or at the end of the stream,
// moves past them and returns how many it read: the events of rd's
// segments, built into dst.
func readThrough(rd *EventReader, dst []trace.Event, t simclock.Time) int {
	n := 0
	for n < len(dst) {
		seg := rd.ReadSegment(t, len(dst)-n)
		if seg.Len() == 0 {
			break
		}
		n = len(seg.AppendEvents(dst[:n]))
	}
	return n
}

// checkStreamMatchesOracle compares d's stream with o's: the whole stream,
// Seek and a read of up to 50 events from an event's Start, one before it
// and one after it, and each step's latest Start.
func checkStreamMatchesOracle(t testing.TB, d *Device, o *oracleDevice) {
	t.Helper()
	want := o.events
	if got := deviceEvents(d); !slices.Equal(got, want) {
		t.Fatalf("the device holds %d events, the oracle %d (or not the same ones)", len(got), len(want))
	}
	if d.FreeAt() != o.freeAt {
		t.Fatalf("FreeAt = %d, the oracle's %d", d.FreeAt(), o.freeAt)
	}
	buf := make([]trace.Event, 50)
	seek := func(at simclock.Time) {
		rd := d.Seek(at)
		i := sort.Search(len(want), func(i int) bool { return want[i].Start >= at })
		if rd.Index() != i {
			t.Fatalf("Seek(%d) is at event %d, the oracle's first event at or after it is %d", at, rd.Index(), i)
		}
		n := min(len(buf), len(want)-i)
		readThrough(&rd, buf[:n], math.MaxInt64)
		if !slices.Equal(buf[:n], want[i:i+n]) {
			t.Fatalf("the %d events read from Seek(%d) are not the oracle's", n, at)
		}
		// readThrough from the same place stops at a Start, at the end
		// of buf or at the end of the stream, whichever comes first.
		if i+n < len(want) {
			through := want[i+n/2].Start
			rd = d.Seek(at)
			k := readThrough(&rd, buf, through)
			w := i
			for w < len(want) && w-i < len(buf) && want[w].Start <= through {
				w++
			}
			if k != w-i || !slices.Equal(buf[:k], want[i:w]) {
				t.Fatalf("readThrough(%d) from Seek(%d) read %d events, the oracle's %d (or not the same ones)", through, at, k, w-i)
			}
			if rd.Index() != w || (w < len(want) && rd.Start() != want[w].Start) {
				t.Fatalf("after readThrough(%d) from Seek(%d) the reader is at event %d, want %d", through, at, rd.Index(), w)
			}
		}
	}
	// Every event of a short stream; of a long one, a stride of them and
	// those within three events of a change of step.
	stride := 1 + len(want)/1500
	near := func(i, j int) bool { return j < 0 || j >= len(want) || want[j].Step != want[i].Step }
	for i, e := range want {
		if i%stride == 0 || near(i, i-3) || near(i, i+3) {
			seek(e.Start - 1)
			seek(e.Start)
			seek(e.Start + 1)
		}
	}
	seek(o.freeAt + 1)
	latest := map[int64]simclock.Time{}
	for _, e := range want {
		latest[e.Step] = max(latest[e.Step], e.Start)
	}
	got := map[int64]simclock.Time{}
	d.LatestStarts(0, func(step int64, last simclock.Time) { got[step] = max(got[step], last) })
	for step, last := range latest {
		if got[step] != last {
			t.Fatalf("step %d: latest Start %d, the oracle's %d", step, got[step], last)
		}
	}
	if len(got) != len(latest) {
		t.Fatalf("LatestStarts reports %d steps, the oracle's stream has %d", len(got), len(latest))
	}
}

// lockstepRun drives a Device and an oracleDevice with the same calls:
// an init op, then steps of each program in turn (a block of steps per
// program), batches ready at random times or already waiting, and
// injected events at, after and before the last Start (the last refused
// by both). It checks the streams agree after every block.
func lockstepRun(t testing.TB, spec ChipSpec, seed uint64, progs []*xla.Program, steps int) {
	t.Helper()
	d, o := NewDevice(spec, seed), newOracleDevice(spec, seed)
	rng := prng.New(seed + 1)
	inject := func(name string, at simclock.Time, dur simclock.Duration, step int64) {
		t.Helper()
		errD, errO := d.InjectEvent(name, at, dur, step), o.InjectEvent(name, at, dur, step)
		if (errD == nil) != (errO == nil) {
			t.Fatalf("InjectEvent(%q, %d): the device says %v, the oracle %v", name, at, errD, errO)
		}
	}
	inject("StartProgram", 1000, 2000, -1)
	step := int64(0)
	for block := 0; step < int64(steps); block++ {
		p := progs[block%len(progs)]
		if err := d.LoadProgram(p); err != nil {
			t.Fatal(err)
		}
		o.program = p
		for i := 0; i < 7 && step < int64(steps); i++ {
			ready := d.FreeAt().Add(simclock.Duration(rng.Intn(3000)))
			if rng.Intn(3) == 0 {
				ready = 0
			}
			if _, err := d.RunStep(step, ready); err != nil {
				t.Fatal(err)
			}
			o.RunStep(step, ready)
			step++
		}
		last := o.events[len(o.events)-1].Start
		switch block % 3 {
		case 0:
			inject("RestoreV2", last, 500, step-1)
		case 1:
			inject("SaveV2", d.FreeAt().Add(100), 800, step-1)
		case 2:
			inject("Late", last-1, 10, step-1)
		}
		checkStreamMatchesOracle(t, d, o)
	}
}

// TestDeviceStreamMatchesOracle drives the device and the oracle in
// lockstep over programs with and without each feed, one with the infeed
// pair alone, and the test program, on both generations.
func TestDeviceStreamMatchesOracle(t *testing.T) {
	full := testProgram()
	noIn, noOut, noFeeds, feedOnly := *full, *full, *full, *full
	noIn.InfeedBytes = 0
	noOut.OutfeedBytes = 0
	noFeeds.InfeedBytes, noFeeds.OutfeedBytes = 0, 0
	feedOnly.Instructions, feedOnly.OutfeedBytes = nil, 0
	for _, v := range []Version{V2, V3} {
		t.Run(v.String(), func(t *testing.T) {
			lockstepRun(t, NewChipSpec(v), 3, []*xla.Program{full, &noIn, &noOut, &noFeeds, &feedOnly}, 80)
		})
	}
}

// TestRunStepOfNoEventsAddsNoRun: a program with no instructions and no
// feeds emits nothing and leaves the stream as it was.
func TestRunStepOfNoEventsAddsNoRun(t *testing.T) {
	d := newTestDevice(t, V2)
	if _, err := d.RunStep(0, 0); err != nil {
		t.Fatal(err)
	}
	n, bytes := d.EventCount(), d.StreamBytes()
	if err := d.LoadProgram(&xla.Program{Name: "empty"}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.RunStep(1, 0); err != nil {
		t.Fatal(err)
	}
	runs := d.LatestStarts(0, func(int64, simclock.Time) {})
	if d.EventCount() != n || runs != 1 || d.StreamBytes() != bytes {
		t.Fatalf("an empty step left %d events in %d runs (had %d in 1)", d.EventCount(), runs, n)
	}
}

// checkTrainMatchesOracle runs a training schedule on a Device and on the
// oracle, whose every duration is its instruction's instructionTime (or
// its feed's) jittered as it is emitted: blocks of steps of progs[0]
// with a block of progs[1] after every blockSteps, the switch and back
// an eval block makes. It fails tb unless every step's events, durations
// included, are the oracle's.
func checkTrainMatchesOracle(tb testing.TB, spec ChipSpec, seed uint64, progs [2]*xla.Program, steps, blockSteps int) {
	tb.Helper()
	d, o := NewDevice(spec, seed), newOracleDevice(spec, seed)
	step := int64(0)
	run := func(p *xla.Program, n int) {
		if err := d.LoadProgram(p); err != nil {
			tb.Fatal(err)
		}
		o.program = p
		for i := 0; i < n; i++ {
			if _, err := d.RunStep(step, 0); err != nil {
				tb.Fatal(err)
			}
			o.RunStep(step, 0)
			step++
		}
	}
	for done := 0; done < steps; done += blockSteps {
		run(progs[0], min(blockSteps, steps-done))
		run(progs[1], 3)
	}
	if got := deviceEvents(d); !slices.Equal(got, o.events) {
		tb.Fatalf("the device's %d events are not the per-instruction oracle's %d", len(got), len(o.events))
	}
}
