package estimator

import (
	"testing"

	"repro/internal/host"
	"repro/internal/storage"
	"repro/internal/tpu"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// quickRun runs a shortened workload for tests.
func quickRun(t testing.TB, name string, opts Options) *Runner {
	t.Helper()
	w := workloads.MustGet(name)
	if opts.Steps == 0 {
		opts.Steps = 200
	}
	r, err := New(w, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRunProducesPlausibleMetrics(t *testing.T) {
	r := quickRun(t, "bert-squad", Options{})
	if !r.Done() {
		t.Fatal("run not done")
	}
	idle := r.IdleFraction()
	if idle < 0.15 || idle > 0.60 {
		t.Fatalf("idle = %g, out of plausible range", idle)
	}
	mxu := r.MXUUtilization()
	if mxu < 0.05 || mxu > 0.6 {
		t.Fatalf("mxu = %g", mxu)
	}
	if r.TotalTime() <= 0 {
		t.Fatal("no simulated time elapsed")
	}
}

func TestRunTwiceFails(t *testing.T) {
	r := quickRun(t, "dcgan-mnist", Options{Steps: 50})
	if err := r.Run(); err == nil {
		t.Fatal("second Run succeeded")
	}
}

func TestEventsMergedAndOrdered(t *testing.T) {
	r := quickRun(t, "qanet-squad", Options{Steps: 100})
	events := runEvents(r)
	if len(events) == 0 {
		t.Fatal("no events")
	}
	sawHost, sawTPU := false, false
	for i, e := range events {
		if i > 0 && e.Start < events[i-1].Start {
			t.Fatal("events not time-ordered")
		}
		switch e.Device {
		case trace.Host:
			sawHost = true
		case trace.TPU:
			sawTPU = true
		}
	}
	if !sawHost || !sawTPU {
		t.Fatalf("merged stream missing a device: host=%v tpu=%v", sawHost, sawTPU)
	}
}

func TestEventsInWindowPartition(t *testing.T) {
	r := quickRun(t, "dcgan-cifar10", Options{Steps: 60})
	all := runEvents(r)
	mid := all[len(all)/2].Start
	for _, size := range append(chunkSizes, 4096) {
		a := readWindow(t, r, size, 0, mid)
		b := readWindow(t, r, size, mid, r.Now()+1)
		if len(a)+len(b) != len(all) {
			t.Fatalf("window partition %d+%d != %d", len(a), len(b), len(all))
		}
	}
}

func TestCheckpointsSaved(t *testing.T) {
	svc := storage.NewService()
	bucket, _ := svc.CreateBucket("ckpts")
	r := quickRun(t, "bert-mrpc", Options{Steps: 250, Bucket: bucket})
	cks := r.Checkpoints()
	if len(cks) < 2 {
		t.Fatalf("checkpoints = %d, want >= 2 for 250 steps at every-100", len(cks))
	}
	for _, ck := range cks {
		if !bucket.Exists(ck.Object) {
			t.Fatalf("checkpoint object %q missing from bucket", ck.Object)
		}
		if ck.Step < 0 || ck.At <= 0 {
			t.Fatalf("degenerate checkpoint %+v", ck)
		}
	}
}

func TestEvalBlocksRun(t *testing.T) {
	r := quickRun(t, "bert-squad", Options{Steps: 200})
	// Steps 0..149 train, then a 25-step eval block appears.
	names := map[string]bool{}
	for _, e := range runEvents(r) {
		names[e.Name] = true
	}
	if !names["ArgMax"] {
		t.Fatal("no eval metric events; eval block did not run")
	}
	// Eval disabled removes them.
	r2 := quickRun(t, "bert-squad", Options{Steps: 200, DisableEval: true})
	for _, e := range runEvents(r2) {
		if e.Name == "ArgMax" {
			t.Fatal("eval events with DisableEval")
		}
	}
}

func TestSessionLifecycleOps(t *testing.T) {
	r := quickRun(t, "dcgan-mnist", Options{Steps: 120})
	names := map[string]bool{}
	for _, e := range runEvents(r) {
		names[e.Name] = true
	}
	for _, want := range []string{
		"InitializeHostForDistributedTpu", "RestoreV2", "StartProgram",
		"DisconnectHostFromDistributedTPUSystem",
		"TransferBufferToInfeedLocked", "OutfeedDequeueTuple", "SaveV2",
	} {
		if !names[want] {
			t.Fatalf("missing lifecycle op %q", want)
		}
	}
}

func TestV3IdleHigherMXULower(t *testing.T) {
	r2 := quickRun(t, "bert-mnli", Options{Steps: 200})
	r3 := quickRun(t, "bert-mnli", Options{Steps: 200, Version: tpu.V3})
	if r3.IdleFraction() <= r2.IdleFraction() {
		t.Fatalf("v3 idle %.3f not above v2 %.3f", r3.IdleFraction(), r2.IdleFraction())
	}
	ratio := r2.MXUUtilization() / r3.MXUUtilization()
	if ratio < 1.5 || ratio > 2.6 {
		t.Fatalf("v2/v3 MXU ratio = %.2f, want ~2", ratio)
	}
}

func TestNaiveParamsSlower(t *testing.T) {
	naive := host.NaiveParams()
	rn := quickRun(t, "qanet-squad", Options{Steps: 150, HostParams: &naive})
	rt := quickRun(t, "qanet-squad", Options{Steps: 150})
	if rn.TotalTime() <= rt.TotalTime() {
		t.Fatalf("naive run %v not slower than tuned %v", rn.TotalTime(), rt.TotalTime())
	}
	if rn.IdleFraction() <= rt.IdleFraction() {
		t.Fatalf("naive idle %.3f not above tuned %.3f", rn.IdleFraction(), rt.IdleFraction())
	}
}

func TestStepOverheadSlowsRun(t *testing.T) {
	base := quickRun(t, "dcgan-cifar10", Options{Steps: 100})
	loaded := quickRun(t, "dcgan-cifar10", Options{Steps: 100, StepOverheadUs: 20000})
	if loaded.TotalTime() <= base.TotalTime() {
		t.Fatal("step overhead did not slow the run")
	}
}

func TestOnTrainStepHookAndRetune(t *testing.T) {
	w := workloads.MustGet("qanet-squad")
	naive := host.NaiveParams()
	var calls int
	retuned := false
	opts := Options{
		Steps:      150,
		HostParams: &naive,
		OnTrainStep: func(r *Runner, step int64, st tpu.StepTiming) {
			calls++
			if step == 50 && !retuned {
				retuned = true
				if err := r.SetHostParams(host.DefaultParams()); err != nil {
					t.Error(err)
				}
			}
		},
	}
	r, err := New(w, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	if calls != 150 {
		t.Fatalf("hook called %d times, want 150", calls)
	}
	if r.HostParams() != host.DefaultParams() {
		t.Fatal("retune did not stick")
	}
	// Retuned run beats the all-naive run.
	rn := quickRun(t, "qanet-squad", Options{Steps: 150, HostParams: &naive})
	if r.TotalTime() >= rn.TotalTime() {
		t.Fatalf("mid-run retune %v not faster than naive %v", r.TotalTime(), rn.TotalTime())
	}
}

func TestProfileServiceIntegration(t *testing.T) {
	r := quickRun(t, "dcgan-mnist", Options{Steps: 80})
	svc := r.ProfileService()
	var events int
	for i := 0; i < 10000; i++ {
		resp := nextWindow(svc)
		events += len(resp.Events)
		if resp.EndOfStream {
			break
		}
	}
	if events != len(runEvents(r)) {
		t.Fatalf("profile service delivered %d of %d events", events, len(runEvents(r)))
	}
}

func TestDeterministicRuns(t *testing.T) {
	a := quickRun(t, "bert-cola", Options{Steps: 100})
	b := quickRun(t, "bert-cola", Options{Steps: 100})
	if a.TotalTime() != b.TotalTime() {
		t.Fatalf("total time differs: %v vs %v", a.TotalTime(), b.TotalTime())
	}
	if len(runEvents(a)) != len(runEvents(b)) {
		t.Fatal("event counts differ")
	}
}

func TestNewRejectsNilWorkload(t *testing.T) {
	if _, err := New(nil, Options{}); err == nil {
		t.Fatal("nil workload accepted")
	}
}

func BenchmarkRunDCGAN100Steps(b *testing.B) {
	w := workloads.MustGet("dcgan-cifar10")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := New(w, Options{Steps: 100})
		if err != nil {
			b.Fatal(err)
		}
		if err := r.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

func TestFastForwardFromCheckpoint(t *testing.T) {
	svc := storage.NewService()
	bucket, _ := svc.CreateBucket("ckpts")
	first := quickRun(t, "bert-mrpc", Options{Steps: 150, Bucket: bucket})
	cks := first.Checkpoints()
	if len(cks) == 0 {
		t.Fatal("no checkpoints to resume from")
	}
	ck := cks[0]

	w := workloads.MustGet("bert-mrpc")
	resumed, err := New(w, Options{
		Steps:       80,
		Bucket:      bucket,
		StartStep:   ck.Step + 1,
		RestoreFrom: ck.Object,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := resumed.Run(); err != nil {
		t.Fatal(err)
	}
	// All training steps carry post-checkpoint step numbers.
	minStep := int64(1 << 62)
	for _, st := range resumed.StepTimings() {
		if st.Step < minStep {
			minStep = st.Step
		}
	}
	if minStep != ck.Step+1 {
		t.Fatalf("resumed run starts at step %d, want %d", minStep, ck.Step+1)
	}
	// The fast-forwarded run is much shorter than a from-zero run of the
	// same end step (that's the point of restarting at a phase).
	if resumed.TotalTime() >= first.TotalTime() {
		t.Fatalf("resume (%v) not shorter than full run (%v)", resumed.TotalTime(), first.TotalTime())
	}
}

func TestFastForwardValidation(t *testing.T) {
	w := workloads.MustGet("dcgan-mnist")
	// StartStep without a restore source.
	r, err := New(w, Options{Steps: 20, StartStep: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Run(); err == nil {
		t.Fatal("StartStep without RestoreFrom accepted")
	}
	// Restore object missing from the bucket.
	svc := storage.NewService()
	bucket, _ := svc.CreateBucket("b")
	r2, err := New(w, Options{Steps: 20, StartStep: 5, Bucket: bucket, RestoreFrom: "ckpt/nope"})
	if err != nil {
		t.Fatal(err)
	}
	if err := r2.Run(); err == nil {
		t.Fatal("missing restore checkpoint accepted")
	}
}

// TestRunSizesEventStreamsOnce: Run reserves both event streams from the
// schedule it is about to execute, so neither is reallocated while it
// emits — the device's run records and duration slab take the room they
// have at the first train step to the end, and the host stream's backing
// array is the one it ends with, mid-run eval blocks, summaries and
// checkpoints included. (The device figures are exact; the host one is
// the expected count plus slack, checked here on every Table I workload.)
func TestRunSizesEventStreamsOnce(t *testing.T) {
	for _, name := range workloads.Names() {
		var devBytes int64
		var host0 *trace.Event
		r := quickRun(t, name, Options{Steps: 300, OnTrainStep: func(r *Runner, step int64, st tpu.StepTiming) {
			if host0 == nil {
				devBytes, host0 = r.dev.StreamBytes(), &r.hst.Events()[0]
			}
		}})
		if got := r.dev.StreamBytes(); got != devBytes {
			t.Errorf("%s: device stream grew from %d to %d bytes on its way to %d events", name, devBytes, got, r.dev.EventCount())
		}
		if he := r.hst.Events(); &he[0] != host0 {
			t.Errorf("%s: host stream reallocated on its way to %d events", name, len(he))
		}
	}
}
