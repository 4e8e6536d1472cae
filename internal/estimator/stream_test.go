package estimator

import (
	"slices"
	"testing"

	"repro/internal/simclock"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// TestWindowBufferIsReused: after a finished run's first window, the
// profile service builds every further window in the storage of the one
// before, so a drain allocates nothing per window. The service's buffer
// grows by append's factor when a window outgrows it: here once, during
// AllocsPerRun's warm-up call, as this run's 60 s windows differ by less
// than that factor.
func TestWindowBufferIsReused(t *testing.T) {
	r := quickRun(t, "resnet-imagenet", Options{Steps: 2000})
	svc := r.ProfileService()
	if first := svc.NextWindow(); len(first.Events) == 0 {
		t.Fatal("the first window is empty")
	}
	const windows = 30
	empty := 0
	allocs := testing.AllocsPerRun(windows, func() {
		if len(svc.NextWindow().Events) == 0 {
			empty++
		}
	})
	if empty > 0 {
		t.Fatalf("%d of the %d windows measured are empty: the run is too short to measure", empty, windows+1)
	}
	if allocs != 0 {
		t.Fatalf("a window allocates %v times on average, want 0", allocs)
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

// BenchmarkCapture trains a 300-step run and drains its profile service,
// reducing each window to a record as the profiler does, on three Table I
// workloads. Its set-up fails unless every window of one capture equals
// the copy oracle's. ns/step is per train step; B/op with -benchmem is
// what a capture allocates, the event streams included.
func BenchmarkCapture(b *testing.B) {
	const steps = 300
	for _, name := range []string{"bert-mrpc", "resnet-imagenet", "dcgan-mnist"} {
		b.Run(name, func(b *testing.B) {
			w := workloads.MustGet(name)
			capture := func(check bool) int {
				r, err := New(w, Options{Steps: steps})
				if err != nil {
					b.Fatal(err)
				}
				if err := r.Run(); err != nil {
					b.Fatal(err)
				}
				var o *copyOracle
				if check {
					o = newCopyOracle(r)
				}
				svc := r.ProfileService()
				events := 0
				for seq := int64(0); ; seq++ {
					resp := svc.NextWindow()
					if o != nil {
						if want := o.window(resp.WindowStart, resp.WindowEnd); !slices.Equal(resp.Events, want) {
							b.Fatalf("window [%d, %d): %d events, the oracle's %d (or not the same ones)",
								resp.WindowStart, resp.WindowEnd, len(resp.Events), len(want))
						}
					}
					if len(resp.Events) > 0 {
						trace.Reduce(seq, resp.WindowStart, resp.Events, resp.IdleFrac, resp.MXUUtil)
						events += len(resp.Events)
					}
					if resp.EndOfStream {
						return events
					}
				}
			}
			events := capture(true)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				capture(false)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*steps), "ns/step")
			b.ReportMetric(float64(events), "events/op")
		})
	}
}
