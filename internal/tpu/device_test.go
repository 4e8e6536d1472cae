package tpu

import (
	"errors"
	"testing"

	"repro/internal/prng"
	"repro/internal/simclock"
	"repro/internal/trace"
	"repro/internal/xla"
)

// testProgram builds a small program: an MXU-bound fusion, a memory-bound
// reshape, and a non-MXU reduction, with realistic boundary traffic.
func testProgram() *xla.Program {
	return &xla.Program{
		Name: "test",
		Instructions: []*xla.Instruction{
			{Name: "fusion.0", Op: "fusion", FLOPs: 2_000_000_000, Bytes: 4 << 20, MXU: true, Fused: 3},
			{Name: "rs", Op: "Reshape", FLOPs: 0, Bytes: 64 << 20, MXU: false, Fused: 1},
			{Name: "sum", Op: "Sum", FLOPs: 10_000_000, Bytes: 1 << 20, MXU: false, Fused: 1},
		},
		InfeedBytes:  8 << 20,
		OutfeedBytes: 1 << 20,
		WeightBytes:  100 << 20,
	}
}

func newTestDevice(t testing.TB, v Version) *Device {
	t.Helper()
	d := NewDevice(NewChipSpec(v), 1)
	if err := d.LoadProgram(testProgram()); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestLoadProgramHBMCheck(t *testing.T) {
	d := NewDevice(NewChipSpec(V2), 1)
	big := testProgram()
	big.WeightBytes = d.Spec.HBMBytes + 1
	if err := d.LoadProgram(big); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("err = %v, want ErrOutOfMemory", err)
	}
}

func TestRunStepWithoutProgram(t *testing.T) {
	d := NewDevice(NewChipSpec(V2), 1)
	if _, err := d.RunStep(0, 0); err == nil {
		t.Fatal("RunStep without program succeeded")
	}
}

func TestRunStepProducesEvents(t *testing.T) {
	d := newTestDevice(t, V2)
	st, err := d.RunStep(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.End <= st.Start {
		t.Fatal("step has no duration")
	}
	names := map[string]bool{}
	for _, e := range d.Events() {
		names[e.Name] = true
		if e.Step != 1 {
			t.Fatalf("event %q on step %d", e.Name, e.Step)
		}
		if e.Device != trace.TPU {
			t.Fatalf("event %q on device %v", e.Name, e.Device)
		}
	}
	for _, want := range []string{"InfeedDequeueTuple", "Infeed", "fusion", "Reshape", "Sum", "Outfeed"} {
		if !names[want] {
			t.Fatalf("missing event %q; have %v", want, names)
		}
	}
}

func TestIdleAccounting(t *testing.T) {
	d := newTestDevice(t, V2)
	st1, _ := d.RunStep(1, 0)
	if st1.Idle != 0 {
		t.Fatalf("first step idle = %v", st1.Idle)
	}
	// Next batch arrives long after the device went free.
	late := d.FreeAt().Add(10_000)
	st2, _ := d.RunStep(2, late)
	if st2.Idle != 10_000 {
		t.Fatalf("idle = %v, want 10000", st2.Idle)
	}
	if d.IdleFraction() <= 0 {
		t.Fatal("IdleFraction not positive after a stall")
	}
	// Batch already waiting: no idle.
	st3, _ := d.RunStep(3, 0)
	if st3.Idle != 0 {
		t.Fatalf("pre-buffered batch caused idle = %v", st3.Idle)
	}
}

func TestMXUUtilizationHalvesOnV3(t *testing.T) {
	// Same program, same batch cadence: v3's doubled peak means the same
	// FLOPs occupy the MXUs for half the time.
	period := simclock.Duration(50_000)
	run := func(v Version) float64 {
		d := newTestDevice(t, v)
		at := simclock.Time(0)
		for i := int64(0); i < 50; i++ {
			d.RunStep(i, at)
			at = at.Add(period)
		}
		return d.MXUUtilization()
	}
	u2, u3 := run(V2), run(V3)
	if u2 <= 0 || u3 <= 0 {
		t.Fatalf("utilizations: v2=%g v3=%g", u2, u3)
	}
	ratio := u2 / u3
	if ratio < 1.6 || ratio > 2.4 {
		t.Fatalf("v2/v3 MXU utilization ratio = %g, want ~2", ratio)
	}
}

func TestIdleRisesOnV3(t *testing.T) {
	// Host-paced batches: compute shrinks on v3, so idle share grows.
	period := simclock.Duration(120_000)
	run := func(v Version) float64 {
		d := newTestDevice(t, v)
		at := simclock.Time(0)
		for i := int64(0); i < 50; i++ {
			d.RunStep(i, at)
			at = at.Add(period)
		}
		return d.IdleFraction()
	}
	i2, i3 := run(V2), run(V3)
	if i3 <= i2 {
		t.Fatalf("idle v3 (%g) not above idle v2 (%g)", i3, i2)
	}
}

func TestInstructionTimeRoofline(t *testing.T) {
	d := newTestDevice(t, V2)
	computeBound := &xla.Instruction{FLOPs: 10_000_000_000, Bytes: 1, MXU: true}
	memBound := &xla.Instruction{FLOPs: 1, Bytes: 1 << 30, MXU: false}
	ct := d.instructionTime(computeBound)
	mt := d.instructionTime(memBound)
	// 10 GFLOP at 45*0.42 TFLOPS ≈ 529µs; 1 GiB at 700 GB/s ≈ 1534µs.
	if ct < 400 || ct > 650 {
		t.Fatalf("compute-bound time = %v", ct)
	}
	if mt < 1300 || mt > 1700 {
		t.Fatalf("memory-bound time = %v", mt)
	}
}

func TestWindowMetrics(t *testing.T) {
	d := newTestDevice(t, V2)
	at := simclock.Time(0)
	for i := int64(0); i < 20; i++ {
		st, _ := d.RunStep(i, at)
		at = st.End.Add(5_000) // constant 5ms stall per step
	}
	idle, mxu := d.WindowMetrics(0, d.FreeAt())
	if idle <= 0 || idle >= 1 {
		t.Fatalf("window idle = %g", idle)
	}
	if mxu <= 0 || mxu >= 1 {
		t.Fatalf("window mxu = %g", mxu)
	}
	// Empty window.
	i0, m0 := d.WindowMetrics(d.FreeAt().Add(1000), d.FreeAt().Add(2000))
	if i0 != 0 || m0 != 0 {
		t.Fatalf("empty window metrics: %g %g", i0, m0)
	}
}

func TestInjectEvent(t *testing.T) {
	d := newTestDevice(t, V2)
	if err := d.InjectEvent("RestoreV2", 0, 5000, -1); err != nil {
		t.Fatal(err)
	}
	if d.FreeAt() != 5000 {
		t.Fatalf("FreeAt after inject = %d", d.FreeAt())
	}
	if len(d.Events()) != 1 || d.Events()[0].Name != "RestoreV2" {
		t.Fatal("injected event missing")
	}
}

// TestInjectEventRefusesOutOfOrder: an injected event may start with the
// last one but not before it, so the stream stays in Start order.
func TestInjectEventRefusesOutOfOrder(t *testing.T) {
	d := newTestDevice(t, V2)
	if _, err := d.RunStep(0, 1000); err != nil {
		t.Fatal(err)
	}
	last := d.Events()[len(d.Events())-1]
	n, free := len(d.Events()), d.FreeAt()
	if err := d.InjectEvent("RestoreV2", last.Start-1, 10, -1); err == nil {
		t.Fatal("an event before the last Start was accepted")
	}
	if len(d.Events()) != n || d.FreeAt() != free {
		t.Fatal("a refused event changed the device")
	}
	if err := d.InjectEvent("RestoreV2", last.Start, 10, -1); err != nil {
		t.Fatalf("an event at the last Start was refused: %v", err)
	}
}

// scanWindowMetrics is WindowMetrics as a scan over every step: the
// oracle for the binary search.
func scanWindowMetrics(d *Device, from, to simclock.Time) (float64, float64) {
	var idle, mxu, span simclock.Duration
	for _, st := range d.Timings() {
		if st.End <= from || st.Start >= to {
			continue
		}
		idle += st.Idle
		mxu += st.MXUBusy
		span += st.End.Sub(st.Start) + st.Idle
	}
	if span <= 0 {
		return 0, 0
	}
	return float64(idle) / float64(span), float64(mxu) / float64(span)
}

// TestWindowMetricsMatchesScan checks the binary-searched WindowMetrics
// bit for bit against the scan, on windows with edges at, just inside and
// just outside step boundaries, and on a stream whose steps are in Start
// order however the batches arrive.
func TestWindowMetricsMatchesScan(t *testing.T) {
	d := newTestDevice(t, V2)
	rng := prng.New(7)
	if err := d.InjectEvent("StartProgram", 0, 2000, -1); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 200; i++ {
		ready := d.FreeAt().Add(simclock.Duration(rng.Intn(20)) * 1000)
		if i%3 == 0 {
			ready = 0 // batch already waiting
		}
		if _, err := d.RunStep(i, ready); err != nil {
			t.Fatal(err)
		}
	}
	evs := d.Events()
	for i := 1; i < len(evs); i++ {
		if evs[i].Start < evs[i-1].Start {
			t.Fatalf("event %d starts at %d, before event %d at %d", i, evs[i].Start, i-1, evs[i-1].Start)
		}
	}
	var edges []simclock.Time
	for _, st := range d.Timings() {
		edges = append(edges, st.Start-1, st.Start, st.Start+1, st.End-1, st.End, st.End+1)
	}
	edges = append(edges, 0, d.FreeAt()+1000)
	for k := 0; k < 5000; k++ {
		from, to := edges[rng.Intn(len(edges))], edges[rng.Intn(len(edges))]
		if from > to {
			from, to = to, from
		}
		gi, gm := d.WindowMetrics(from, to)
		wi, wm := scanWindowMetrics(d, from, to)
		if gi != wi || gm != wm {
			t.Fatalf("window [%d, %d): metrics (%v, %v), the scan says (%v, %v)", from, to, gi, gm, wi, wm)
		}
	}
}

func TestReset(t *testing.T) {
	d := newTestDevice(t, V2)
	d.RunStep(0, 0)
	d.Reset()
	if len(d.Events()) != 0 || len(d.Timings()) != 0 || d.FreeAt() != 0 {
		t.Fatal("Reset left state")
	}
	if d.Program() == nil {
		t.Fatal("Reset dropped the program")
	}
	if _, err := d.RunStep(0, 0); err != nil {
		t.Fatalf("device unusable after Reset: %v", err)
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() []trace.Event {
		d := newTestDevice(t, V2)
		at := simclock.Time(0)
		for i := int64(0); i < 10; i++ {
			st, _ := d.RunStep(i, at)
			at = st.End
		}
		return d.Events()
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("replay lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at event %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestChipSpecs(t *testing.T) {
	v2, v3 := NewChipSpec(V2), NewChipSpec(V3)
	if v2.MXUs != 2 || v3.MXUs != 4 {
		t.Fatal("MXU counts wrong")
	}
	if v3.PeakTFLOPS != 2*v2.PeakTFLOPS {
		t.Fatal("v3 peak should double v2")
	}
	if v3.HBMBytes != 2*v2.HBMBytes {
		t.Fatal("v3 HBM should double v2")
	}
	if v2.InfeedGBps != v3.InfeedGBps {
		t.Fatal("infeed bandwidth should be generation-invariant")
	}
	if V2.String() != "TPUv2" || V3.String() != "TPUv3" || Version(4).String() != "TPUv4" {
		t.Fatal("version names")
	}
}

func BenchmarkRunStep(b *testing.B) {
	d := NewDevice(NewChipSpec(V2), 1)
	if err := d.LoadProgram(testProgram()); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := d.RunStep(int64(i), 0); err != nil {
			b.Fatal(err)
		}
	}
}
