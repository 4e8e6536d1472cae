package estimator

import (
	"cmp"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/prng"
	"repro/internal/simclock"
	"repro/internal/storage"
	"repro/internal/tpu"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// deviceEvents builds d's whole event stream by reading it from the start.
func deviceEvents(d *tpu.Device) []trace.Event {
	out := make([]trace.Event, d.EventCount())
	rd := d.Seek(0)
	rd.Read(out)
	return out
}

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
	de, he := deviceEvents(r.dev), r.hst.Events()
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

// chunkSizes are the buffer lengths the tests read a window through
// besides the profile service's own: one event, two, and an odd size, so
// the merge of the two streams restarts at every kind of seam. 4096, the
// service's length, is added where no service cuts the windows.
var chunkSizes = []int{1, 2, 7}

// readWindow reads the window [from, to) of r's event source, each
// segment cut into pieces of at most size events and built piece by piece
// into a buffer of that size, and returns the events concatenated. It
// fails t if a segment is empty or a piece is built short of its length,
// so the merge of the two streams restarts at every kind of seam, and a
// device run is cut at every kind of point.
func readWindow(t testing.TB, r *Runner, size int, from, to simclock.Time) []trace.Event {
	t.Helper()
	buf := make([]trace.Event, size)
	var out []trace.Event
	r.Segments(from, to, func(seg trace.Segment) {
		if seg.Len() == 0 {
			t.Fatalf("window [%d, %d): an empty segment after %d events", from, to, len(out))
		}
		for seg.Len() > 0 {
			var head trace.Segment
			head, seg = seg.Cut(min(size, seg.Len()))
			if n := len(head.AppendEvents(buf[:0])); n != head.Len() {
				t.Fatalf("window [%d, %d): a piece of %d events built %d", from, to, head.Len(), n)
			}
			out = append(out, buf[:head.Len()]...)
		}
	})
	return out
}

// checkSourceMatchesOracle compares the Runner's event source with the
// oracle: the windows from *cursor to the watermark (advancing *cursor),
// windows and OpenStep times drawn at random over the run so far, and
// Events. Each window is read through buffers of every chunk size.
func checkSourceMatchesOracle(t *testing.T, r *Runner, rng *prng.Source, cursor *simclock.Time) {
	t.Helper()
	o := newSortOracle(r)
	check := func(from, to simclock.Time) {
		t.Helper()
		want := o.window(from, to)
		for _, size := range append(chunkSizes, 4096) {
			if got := readWindow(t, r, size, from, to); !slices.Equal(got, want) {
				t.Fatalf("window [%d, %d) through %d events: %d events, the oracle has %d (or not the same ones)",
					from, to, size, len(got), len(want))
			}
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

// TestLiveWindowAllocatesForItsEventsOnly reads a window of the profile
// service after every step of a long run, through ReadWindow as the
// profiler does, and bounds the bytes each window allocates by a
// constant: no copy of the window, let alone of the whole run, creeps
// back into the window path (one of the whole run at step 1000 would be
// about 8 MB). The first window with events also allocates the service's
// chunk buffer. What the source keeps may grow as append grows it (the
// host stream can outrun the size Run reserved), and a window that grows
// it may allocate it anew.
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
	bufferMade := false
	check := func() bool {
		runtime.ReadMemStats(&ms)
		before, keptBefore := ms.TotalAlloc, kept()
		n := 0
		resp := svc.ReadWindow(func(_ *tpu.ProfileResponse, chunk []trace.Event) { n += len(chunk) })
		runtime.ReadMemStats(&ms)
		limit := uint64(4 << 10)
		if k := kept(); k > keptBefore {
			limit += k // a grown buffer is allocated whole
		}
		if n > 0 && !bufferMade {
			limit += 4096 * eventSize
			bufferMade = true
		}
		if bytes := ms.TotalAlloc - before; bytes > limit {
			t.Fatalf("window %d [%d, %d) allocated %d bytes for %d events (limit %d)",
				windows, resp.WindowStart, resp.WindowEnd, bytes, n, limit)
		}
		windows++
		events += n
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

// BenchmarkProfileDrain reads a 4000-step resnet run's profile service to
// the end through ReadWindow, counting the events: "after" once training
// has finished (the drain alone is timed), "live" after every training
// step and to the end of the stream (the run and the drain are timed
// together).
func BenchmarkProfileDrain(b *testing.B) {
	for _, live := range []bool{false, true} {
		name := "after"
		if live {
			name = "live"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			events := 0
			count := func(_ *tpu.ProfileResponse, chunk []trace.Event) { events += len(chunk) }
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				var svc *tpu.ProfileService
				opts := Options{Steps: 4000}
				if live {
					opts.OnTrainStep = func(*Runner, int64, tpu.StepTiming) { svc.ReadWindow(count) }
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
				for !svc.ReadWindow(count).EndOfStream {
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
			b.ReportMetric(float64(events)/float64(b.N), "events/op")
		})
	}
}

// copyOracle is the event source as the Runner built it while the device
// kept every event whole: the device's events held as one slice beside
// the host stream sorted by Start, and each window or prefix a fresh
// slice merged from the two, device first on equal Starts.
type copyOracle struct {
	dev, host []trace.Event
}

func newCopyOracle(r *Runner) *copyOracle {
	r.mu.RLock()
	defer r.mu.RUnlock()
	he := slices.Clone(r.hst.Events())
	slices.SortStableFunc(he, func(a, b trace.Event) int { return cmp.Compare(a.Start, b.Start) })
	return &copyOracle{dev: deviceEvents(r.dev), host: he}
}

func (o *copyOracle) window(from, to simclock.Time) []trace.Event {
	de := byStartWindow(o.dev, from, to)
	he := byStartWindow(o.host, from, to)
	out := make([]trace.Event, len(de)+len(he))
	mergeByStart(out, de, he)
	return out
}

func (o *copyOracle) firstEvents(n int) []trace.Event {
	out := make([]trace.Event, min(n, len(o.dev)+len(o.host)))
	mergeByStart(out, o.dev, o.host)
	return out
}

// TestWindowsMatchCopyOracle polls every Table I workload's profile
// service after every train step and then drains it, on both generations
// with eval blocks on and off, and compares every window, read through the
// service's chunk buffer, byte for byte with the copy oracle's window over
// the finished run (a window is cut below the watermark, so its events
// are final when it is cut); pollEveryStep has read each window through
// buffers of 1, 2 and 7 events as well. FirstEvents is checked for n of
// 0, 1, 5000 and all. Three more runs add the optimizer's hooks (a
// pipeline stall and an instrumentation cost changed mid-run) and a run
// fast-forwarded from a checkpoint.
func TestWindowsMatchCopyOracle(t *testing.T) {
	bucket, err := storage.NewService().CreateBucket("ckpts")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bucket.Put("ckpt/model.ckpt-99", []byte("checkpoint")); err != nil {
		t.Fatal(err)
	}
	type variant struct {
		name string
		opts Options
		hook func(r *Runner, step int64)
	}
	var variants []variant
	for _, name := range workloads.Names() {
		for _, v := range []tpu.Version{tpu.V2, tpu.V3} {
			for _, noEval := range []bool{false, true} {
				variants = append(variants, variant{
					name: fmt.Sprintf("%s/%s/eval=%v", name, v, !noEval),
					opts: Options{Version: v, Steps: 60, DisableEval: noEval},
				})
			}
		}
	}
	variants = append(variants,
		variant{name: "bert-mrpc/hooks", opts: Options{Steps: 120, StepOverheadUs: 40},
			hook: func(r *Runner, step int64) {
				if step%25 == 24 {
					r.Stall(3*simclock.Millisecond, step)
				}
				if step == 70 {
					r.SetStepOverheadUs(0)
				}
			}},
		variant{name: "dcgan-mnist/restored", opts: Options{Steps: 60, StartStep: 100,
			Bucket: bucket, RestoreFrom: "ckpt/model.ckpt-99"}},
	)
	for _, vt := range variants {
		t.Run(vt.name, func(t *testing.T) {
			workload, _, _ := strings.Cut(vt.name, "/")
			r, resps := pollEveryStep(t, workload, vt.opts, vt.hook)
			o := newCopyOracle(r)
			for i, resp := range resps {
				if want := o.window(resp.WindowStart, resp.WindowEnd); !slices.Equal(resp.Events, want) {
					t.Fatalf("window %d [%d, %d): %d events, the oracle's %d (or not the same ones)",
						i, resp.WindowStart, resp.WindowEnd, len(resp.Events), len(want))
				}
			}
			all := len(o.dev) + len(o.host)
			for _, n := range []int{0, 1, 5000, all} {
				if got, want := r.FirstEvents(n), o.firstEvents(n); !slices.Equal(got, want) {
					t.Fatalf("FirstEvents(%d): %d events, the oracle's %d (or not the same ones)", n, len(got), len(want))
				}
			}
		})
	}
}

// TestSortByStartIsStable: the Runner's host-tail sort puts events in the
// order a stable sort by Start gives, on tails short enough to sort by
// insertion and long enough to sort by bytes, with many equal Starts,
// Starts spread over a few microseconds or over 2^40, tails already in
// order, and the same Runner's buffers reused from tail to tail.
func TestSortByStartIsStable(t *testing.T) {
	r := &Runner{}
	rng := prng.New(5)
	for _, n := range []int{0, 1, 2, 31, 32, 33, 500, 5000} {
		for _, spread := range []int{1, 7, 1 << 20, 1 << 40} {
			for _, sorted := range []bool{false, true} {
				events := make([]trace.Event, n)
				base := simclock.Time(rng.Intn(1 << 30))
				for i := range events {
					events[i] = trace.Event{Name: fmt.Sprint(i), Start: base + simclock.Time(rng.Intn(spread))}
				}
				if sorted {
					slices.SortStableFunc(events, func(a, b trace.Event) int { return cmp.Compare(a.Start, b.Start) })
				}
				want := slices.Clone(events)
				slices.SortStableFunc(want, func(a, b trace.Event) int { return cmp.Compare(a.Start, b.Start) })
				r.sortByStart(events)
				if !slices.Equal(events, want) {
					t.Fatalf("%d events spread over %d (sorted: %v): not the stable sort's order", n, spread, sorted)
				}
			}
		}
	}
}

// TestFinishedRunMatchesSortOracle: a run whose event source is first
// read once training has finished takes its whole host stream as one
// tail, which sorts by bytes, not by insertion; its events and windows
// are the sort oracle's.
func TestFinishedRunMatchesSortOracle(t *testing.T) {
	for _, name := range []string{"bert-mrpc", "resnet-imagenet", "dcgan-mnist"} {
		t.Run(name, func(t *testing.T) {
			r := quickRun(t, name, Options{Steps: 150})
			o := newSortOracle(r)
			if got := r.Events(); !slices.Equal(got, o.merged) {
				t.Fatalf("Events: %d events, the oracle has %d (or not the same ones)", len(got), len(o.merged))
			}
			mid := o.merged[len(o.merged)/2].Start
			for _, w := range [][2]simclock.Time{{0, mid}, {mid, r.Now() + 1}} {
				if got := readWindow(t, r, 7, w[0], w[1]); !slices.Equal(got, o.window(w[0], w[1])) {
					t.Fatalf("window [%d, %d): not the oracle's events", w[0], w[1])
				}
			}
		})
	}
}
