package estimator

import (
	"reflect"
	"sort"
	"testing"

	"repro/internal/core/profiler"
	"repro/internal/simclock"
	"repro/internal/tpu"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// TestWindowBufferIsReused: after a finished run's first window, which
// sorts the host stream into the source's buffers, every window is read
// through those buffers, so reading one through ReadSegments allocates the
// same couple of small objects (the response its consumer is handed, and
// the closure handing it) however many segments it holds: here 60 s
// windows of more than 4096 events each.
func TestWindowBufferIsReused(t *testing.T) {
	r := quickRun(t, "resnet-imagenet", Options{Steps: 2000})
	svc := r.ProfileService()
	events := 0
	count := func(_ *tpu.ProfileResponse, seg trace.Segment) { events += seg.Len() }
	svc.ReadSegments(count)
	if events == 0 {
		t.Fatal("the first window is empty")
	}
	const windows = 30
	long := 0
	allocs := testing.AllocsPerRun(windows, func() {
		events = 0
		svc.ReadSegments(count)
		if events > 4096 {
			long++
		}
	})
	if long < windows+1 {
		t.Fatalf("%d of %d windows hold more than 4096 events: the run is too short to measure", long, windows+1)
	}
	if allocs > 2 {
		t.Fatalf("a window allocates %v times on average, want at most 2", allocs)
	}
}

// TestDeviceStreamBytesPerEvent: a 300-step bert-mrpc run's device stream
// holds one 8-byte duration per event and one run record per step (and
// one for the init op), where the whole run's trace.Events took 48 bytes
// each. The allocator rounds each of the two slabs up to a whole number
// of 8 KiB pages.
func TestDeviceStreamBytesPerEvent(t *testing.T) {
	const steps = 300
	r := quickRun(t, "bert-mrpc", Options{Steps: steps})
	runs := r.dev.LatestStarts(0, func(int64, simclock.Time) {})
	if want := 1 + steps + r.W.EvalSteps; runs != want {
		t.Fatalf("%d run records, want %d", runs, want)
	}
	events, bytes := int64(r.dev.EventCount()), r.dev.StreamBytes()
	const perRun = 64
	if limit := 8*events + perRun*int64(runs) + 2*8192; bytes > limit {
		t.Fatalf("the device stream holds %d bytes for %d events in %d runs, over %d", bytes, events, runs, limit)
	}
	t.Logf("%d events in %d runs: %d bytes, %.2f per event", events, runs, bytes, float64(bytes)/float64(events))
}

// BenchmarkCapture trains a 300-step run and profiles it with
// TPUPoint-Profiler, as the Figure 2 flow does once training has ended,
// on three Table I workloads. Its set-up fails unless every record of one
// capture equals reduceOracle over the copy oracle's window. ns/step is
// per train step; B/op with -benchmem is what a capture allocates, the
// event streams included.
func BenchmarkCapture(b *testing.B) {
	const steps = 300
	for _, name := range []string{"bert-mrpc", "resnet-imagenet", "dcgan-mnist"} {
		b.Run(name, func(b *testing.B) {
			w := workloads.MustGet(name)
			capture := func() (*Runner, []*trace.ProfileRecord) {
				r, err := New(w, Options{Steps: steps})
				if err != nil {
					b.Fatal(err)
				}
				if err := r.Run(); err != nil {
					b.Fatal(err)
				}
				p := profiler.New(&profiler.ServiceClient{Service: r.ProfileService()}, profiler.Options{})
				if err := p.Start(false); err != nil {
					b.Fatal(err)
				}
				recs, err := p.Stop()
				if err != nil {
					b.Fatal(err)
				}
				return r, recs
			}
			r, recs := capture()
			events := checkCaptureMatchesOracle(b, r, recs)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				capture()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*steps), "ns/step")
			b.ReportMetric(float64(events), "events/op")
		})
	}
}

// checkCaptureMatchesOracle fails tb unless recs, a finished run's profile
// drained from its start, are reduceOracle's records of the copy oracle's
// windows, and returns the events they hold. The windows tile the run, so
// each ends where the next record's starts, and the last at the end of
// the run; each window but the last was cut short of the run's end.
func checkCaptureMatchesOracle(tb testing.TB, r *Runner, recs []*trace.ProfileRecord) int {
	tb.Helper()
	o := newCopyOracle(r)
	end := r.watermark()
	events := 0
	for i, rec := range recs {
		from, to := rec.WindowStart, end
		if i+1 < len(recs) {
			to = recs[i+1].WindowStart
		}
		window := o.window(from, to)
		idle, mxu := r.WindowMetrics(from, to)
		want := reduceOracle(int64(i), from, window, idle, mxu)
		want.Truncated = want.Truncated || to < end
		want.OpenStep = r.OpenStep(to)
		if !reflect.DeepEqual(rec, want) {
			tb.Fatalf("record %d, window [%d, %d) of %d events: not reduceOracle's record", i, from, to, len(window))
		}
		events += len(window)
	}
	if all := len(o.dev) + len(o.host); events != all {
		tb.Fatalf("the records hold %d of the run's %d events", events, all)
	}
	return events
}

// reduceOracle is trace.Reduce as it was before trace.Reducer (the trace
// package's tests hold the same function; test files do not cross
// packages): every event folded into its step through StepStat.Observe,
// and the steps sorted at the end.
func reduceOracle(seq int64, windowStart simclock.Time, events []trace.Event, idleFrac, mxuUtil float64) *trace.ProfileRecord {
	rec := &trace.ProfileRecord{Seq: seq, WindowStart: windowStart, WindowEnd: windowStart, IdleFrac: idleFrac, MXUUtil: mxuUtil}
	deadline := windowStart.Add(trace.MaxProfileWindow)
	bySteps := make(map[int64]*trace.StepStat)
	for _, e := range events {
		if rec.NumEvents >= trace.MaxEventsPerProfile || e.Start > deadline {
			rec.Truncated = true
			break
		}
		rec.NumEvents++
		ss := bySteps[e.Step]
		if ss == nil {
			ss = trace.NewStepStat(e.Step)
			bySteps[e.Step] = ss
		}
		ss.Observe(e)
		if e.End() > rec.WindowEnd {
			rec.WindowEnd = e.End()
		}
	}
	rec.Steps = make([]*trace.StepStat, 0, len(bySteps))
	for _, ss := range bySteps {
		ss.IdleFrac, ss.MXUUtil = idleFrac, mxuUtil
		rec.Steps = append(rec.Steps, ss)
	}
	sort.Slice(rec.Steps, func(i, j int) bool { return rec.Steps[i].Step < rec.Steps[j].Step })
	return rec
}
