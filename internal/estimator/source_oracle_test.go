package estimator

import (
	"cmp"
	"math"
	"runtime"
	"slices"
	"sort"
	"testing"
	"unsafe"

	"repro/internal/prng"
	"repro/internal/simclock"
	"repro/internal/storage"
	"repro/internal/tpu"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// sortOracle is the event source as the Runner built it before it read
// the two streams in place: the whole run copied, stable-sorted by Start
// (device events first, so a device event precedes a host one with the
// same Start), and each step's latest Start taken from the copy.
type sortOracle struct {
	merged    []trace.Event
	lastStart []simclock.Time // lastStart[s+1]: the latest Start of step s in merged
	openStep  int64
}

func newSortOracle(r *Runner) *sortOracle {
	r.mu.RLock()
	defer r.mu.RUnlock()
	de, he := r.dev.Events(), r.hst.Events()
	m := make([]trace.Event, 0, len(de)+len(he))
	m = append(m, de...)
	m = append(m, he...)
	slices.SortStableFunc(m, func(a, b trace.Event) int { return cmp.Compare(a.Start, b.Start) })
	o := &sortOracle{merged: m, openStep: r.openStep}
	for _, e := range m { // in Start order: the last write per step is its latest
		for int(e.Step+1) >= len(o.lastStart) {
			o.lastStart = append(o.lastStart, 0)
		}
		o.lastStart[e.Step+1] = e.Start
	}
	return o
}

func (o *sortOracle) window(from, to simclock.Time) []trace.Event {
	m := o.merged
	lo := sort.Search(len(m), func(i int) bool { return m[i].Start >= from })
	hi := sort.Search(len(m), func(i int) bool { return m[i].Start >= to })
	return m[lo:hi]
}

func (o *sortOracle) openStepAt(t simclock.Time) int64 {
	for i, last := range o.lastStart {
		if last >= t {
			return min(o.openStep, int64(i)-1)
		}
	}
	return o.openStep
}

// checkSourceMatchesOracle compares the Runner's event source with the
// oracle: the windows from *cursor to the watermark (advancing *cursor),
// windows and OpenStep times drawn at random over the run so far, and
// Events.
func checkSourceMatchesOracle(t *testing.T, r *Runner, rng *prng.Source, cursor *simclock.Time) {
	t.Helper()
	o := newSortOracle(r)
	check := func(from, to simclock.Time) {
		t.Helper()
		if got, want := r.EventsInWindow(from, to), o.window(from, to); !slices.Equal(got, want) {
			t.Fatalf("window [%d, %d): %d events, the oracle has %d (or not the same ones)", from, to, len(got), len(want))
		}
		if got, want := r.OpenStep(to), o.openStepAt(to); got != want {
			t.Fatalf("OpenStep(%d) = %d, the oracle says %d", to, got, want)
		}
	}
	wm := r.watermark()
	check(*cursor, wm)
	*cursor = wm
	span := int(r.Now()) + 2
	for k := 0; k < 3; k++ {
		a, b := simclock.Time(rng.Intn(span)), simclock.Time(rng.Intn(span))
		check(min(a, b), max(a, b))
	}
	check(0, 0)
	if got := r.Events(); !slices.Equal(got, o.merged) {
		t.Fatalf("Events: %d events, the oracle has %d (or not the same ones)", len(got), len(o.merged))
	}
	if n := len(o.merged) / 2; !slices.Equal(r.FirstEvents(n), o.merged[:n]) {
		t.Fatalf("FirstEvents(%d) is not the oracle's first %d events", n, n)
	}
}

// TestEventWindowsMatchSortOracle runs every Table I workload with a
// training-step hook and checks the event source against the sort oracle
// at every step and after Run. The runs between them cover mid-run eval
// blocks, checkpoints and summaries, per-step instrumentation
// (StepOverheadUs, also changed mid-run), pipeline stalls and a run
// fast-forwarded from a checkpoint (StartStep).
func TestEventWindowsMatchSortOracle(t *testing.T) {
	bucket, err := storage.NewService().CreateBucket("ckpts")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bucket.Put("ckpt/model.ckpt-499", []byte("checkpoint")); err != nil {
		t.Fatal(err)
	}
	for i, name := range workloads.Names() {
		t.Run(name, func(t *testing.T) {
			w := workloads.MustGet(name)
			opts := Options{Steps: 100}
			stall := false
			switch i % 4 {
			case 0:
				w.EvalEvery = 35
				w.EvalSteps = 6
			case 1:
				opts.StepOverheadUs = 30
			case 2:
				stall = true
			case 3:
				opts.StartStep, opts.Bucket, opts.RestoreFrom = 500, bucket, "ckpt/model.ckpt-499"
			}
			rng := prng.New(uint64(i) + 1)
			var cursor simclock.Time
			opts.OnTrainStep = func(r *Runner, step int64, _ tpu.StepTiming) {
				if stall && step%20 == 19 {
					r.Stall(2*simclock.Millisecond, step)
				}
				if opts.StepOverheadUs > 0 && step == 60 {
					r.SetStepOverheadUs(0)
				}
				checkSourceMatchesOracle(t, r, rng, &cursor)
			}
			r, err := New(w, opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := r.Run(); err != nil {
				t.Fatal(err)
			}
			checkSourceMatchesOracle(t, r, rng, &cursor)
			if got, want := r.OpenStep(r.watermark()), int64(math.MaxInt64); got != want {
				t.Fatalf("OpenStep at the end of the run = %d, want %d", got, want)
			}
		})
	}
}

// TestOpenStepStopsAtOpenStep drives OpenStep on hand-placed events: a
// step at or above openStep never answers, even when its events start
// after t, and the cursor keeps its place as openStep rises, drops back
// for a smaller t, and agrees with the oracle throughout.
func TestOpenStepStopsAtOpenStep(t *testing.T) {
	r, err := New(workloads.MustGet("dcgan-mnist"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	ask := func(openStep int64, at simclock.Time, want int64) {
		t.Helper()
		r.openStep = openStep
		if o := newSortOracle(r).openStepAt(at); o != want {
			t.Fatalf("the oracle says OpenStep(%d) = %d, the test %d", at, o, want)
		}
		if got := r.OpenStep(at); got != want {
			t.Fatalf("with openStep %d, OpenStep(%d) = %d, want %d", openStep, at, got, want)
		}
	}
	r.hst.Emit("init", 10, 5, -1)
	r.hst.Emit("b", 100, 5, 5)
	ask(2, 50, 2) // step 5 starts after 50, but step 2 is still open
	ask(2, 5, -1) // the init op starts after 5
	r.hst.Emit("a", 200, 5, 3)
	ask(4, 150, 3) // step 3 is now closed and starts after 150
	ask(4, 250, 4) // nothing starts after 250
	ask(math.MaxInt64, 90, 3)
}

// TestLiveWindowAllocatesForItsEventsOnly polls the profile service after
// every step of a long run and bounds the bytes each window allocates by
// the events it returns, so no copy of the whole run creeps back into the
// window path: one at step 1000 of this run would be about 8 MB. What
// the source keeps may grow as append grows it (the host stream can
// outrun the size Run reserved), and a window that grows it may allocate
// it anew.
func TestLiveWindowAllocatesForItsEventsOnly(t *testing.T) {
	const eventSize = uint64(unsafe.Sizeof(trace.Event{}))
	var r *Runner
	var svc *tpu.ProfileService
	kept := func() uint64 {
		r.mu.RLock()
		defer r.mu.RUnlock()
		return eventSize*uint64(cap(r.hostByStart)+cap(r.mergeBuf)) + uint64(unsafe.Sizeof(simclock.Time(0)))*uint64(cap(r.lastStart))
	}
	var ms runtime.MemStats
	windows, events := 0, 0
	check := func() bool {
		runtime.ReadMemStats(&ms)
		before, keptBefore := ms.TotalAlloc, kept()
		resp := svc.NextWindow()
		runtime.ReadMemStats(&ms)
		limit := 64<<10 + 2*eventSize*uint64(len(resp.Events))
		if k := kept(); k > keptBefore {
			limit += k // a grown buffer is allocated whole
		}
		if bytes := ms.TotalAlloc - before; bytes > limit {
			t.Fatalf("window %d [%d, %d) allocated %d bytes for %d events (limit %d)",
				windows, resp.WindowStart, resp.WindowEnd, bytes, len(resp.Events), limit)
		}
		windows++
		events += len(resp.Events)
		return resp.EndOfStream
	}
	var err error
	r, err = New(workloads.MustGet("resnet-imagenet"), Options{Steps: 1000,
		OnTrainStep: func(*Runner, int64, tpu.StepTiming) { check() }})
	if err != nil {
		t.Fatal(err)
	}
	svc = r.ProfileService()
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	for !check() {
	}
	if n := len(r.Events()); events != n {
		t.Fatalf("%d windows shipped %d of %d events", windows, events, n)
	}
}

// BenchmarkProfileDrain drains a 4000-step resnet run's profile service:
// "after" once training has finished (the drain alone is timed), "live"
// after every training step and to the end of the stream (the run and
// the drain are timed together).
func BenchmarkProfileDrain(b *testing.B) {
	for _, live := range []bool{false, true} {
		name := "after"
		if live {
			name = "live"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			events := 0
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				var svc *tpu.ProfileService
				opts := Options{Steps: 4000}
				if live {
					opts.OnTrainStep = func(*Runner, int64, tpu.StepTiming) { events += len(svc.NextWindow().Events) }
				}
				r, err := New(workloads.MustGet("resnet-imagenet"), opts)
				if err != nil {
					b.Fatal(err)
				}
				svc = r.ProfileService()
				if live {
					b.StartTimer()
				}
				if err := r.Run(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				for {
					resp := svc.NextWindow()
					events += len(resp.Events)
					if resp.EndOfStream {
						break
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
			b.ReportMetric(float64(events)/float64(b.N), "events/op")
		})
	}
}
