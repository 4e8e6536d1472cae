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

	"repro/internal/core/profiler"
	"repro/internal/prng"
	"repro/internal/simclock"
	"repro/internal/storage"
	"repro/internal/tpu"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// deviceEvents builds d's whole event stream by reading its segments from
// the start.
func deviceEvents(d *tpu.Device) []trace.Event {
	return appendDeviceEvents(make([]trace.Event, 0, d.EventCount()), d.Seek(0))
}

// appendDeviceEvents appends the events rd reads to the end of its
// stream to dst.
func appendDeviceEvents(dst []trace.Event, rd tpu.EventReader) []trace.Event {
	for seg := rd.ReadSegment(math.MaxInt64, math.MaxInt); seg.Len() > 0; seg = rd.ReadSegment(math.MaxInt64, math.MaxInt) {
		dst = seg.AppendEvents(dst)
	}
	return dst
}

// runEvents builds the run's events so far, host and device merged as the
// profile service tiles them, from a walk of the source's segments over
// the whole run.
func runEvents(r *Runner) []trace.Event { return firstEvents(r, math.MaxInt) }

// firstEvents builds the first n events of runEvents (all of them when the
// run has fewer).
func firstEvents(r *Runner, n int) []trace.Event {
	out := make([]trace.Event, 0, min(n, r.CountEvents(0, math.MaxInt64)))
	walkFirst(r, n, func(seg trace.Segment) { out = seg.AppendEvents(out) })
	return out
}

// walkFirst hands fn the segments of the run's first n events (all of
// them when the run has fewer), cutting the segment the n-th falls in and
// stopping the walk there.
func walkFirst(r *Runner, n int, fn func(seg trace.Segment)) {
	walked := 0
	r.Segments(0, math.MaxInt64, func(seg trace.Segment) bool {
		if seg.Len() > n-walked {
			seg, _ = seg.Cut(n - walked)
		}
		fn(seg)
		walked += seg.Len()
		return walked < n
	})
}

// testWindow is a profile window with its events built whole, as the
// tests read one.
type testWindow struct {
	tpu.ProfileResponse
	Events []trace.Event
}

// nextWindow reads svc's next window through ReadSegments, building its
// events.
func nextWindow(svc *tpu.ProfileService) testWindow {
	var w testWindow
	w.ProfileResponse = svc.ReadSegments(func(_ *tpu.ProfileResponse, seg trace.Segment) {
		w.Events = seg.AppendEvents(w.Events)
	})
	return w
}

// sortOracle is the event source as the Runner built it before it read
// the two streams in place: the whole run copied, stable-sorted by Start
// (device events first, so a device event precedes a host one with the
// same Start), and each step's latest Start taken from the copy.
//
// It is kept across a run: update sorts the events emitted since the last
// one the same way and merges them into the copy. The stable sort of the
// whole run orders events by Start, then device before host, then by
// their place in their own stream, so the merge compares by those keys
// and gives the order the sort of the whole run would.
type sortOracle struct {
	merged    []trace.Event
	keys      []oracleKey     // keys[i]: where merged[i] came from
	lastStart []simclock.Time // lastStart[s+1]: the latest Start of step s in merged
	openStep  int64

	devSeen, hostSeen int           // the events of each stream merged so far
	devAt             simclock.Time // the Start of the last device event merged
}

// oracleKey is an event's place in the stable sort's input: the device
// stream, then the host stream, each in its own order.
type oracleKey struct {
	host bool
	seq  int
}

func (k oracleKey) before(o oracleKey) bool {
	return k.host != o.host && !k.host || k.host == o.host && k.seq < o.seq
}

// keyedEvent is a new event and its key, as update sorts them.
type keyedEvent struct {
	e trace.Event
	k oracleKey
}

// newSortOracle returns the oracle of r as it stands.
func newSortOracle(r *Runner) *sortOracle {
	o := &sortOracle{}
	o.update(r)
	return o
}

// update merges in the events r has emitted since the last update.
func (o *sortOracle) update(r *Runner) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	o.openStep = r.openStep
	rd := r.dev.Seek(o.devAt)
	for rd.Index() < o.devSeen {
		rd.ReadSegment(math.MaxInt64, o.devSeen-rd.Index())
	}
	var add []keyedEvent
	for _, e := range appendDeviceEvents(nil, rd) {
		add = append(add, keyedEvent{e, oracleKey{seq: o.devSeen}})
		o.devSeen++
		o.devAt = e.Start
	}
	he := r.hst.Events()
	for _, e := range he[o.hostSeen:] {
		add = append(add, keyedEvent{e, oracleKey{host: true, seq: o.hostSeen}})
		o.hostSeen++
	}
	if len(add) == 0 {
		return
	}
	for _, a := range add {
		for int(a.e.Step+1) >= len(o.lastStart) {
			o.lastStart = append(o.lastStart, 0)
		}
		o.lastStart[a.e.Step+1] = max(o.lastStart[a.e.Step+1], a.e.Start)
	}
	// The new events in the sort's order: device before host, each in
	// its stream's order, on equal Starts.
	slices.SortStableFunc(add, func(a, b keyedEvent) int { return cmp.Compare(a.e.Start, b.e.Start) })
	// Merge them into the suffix of merged from the first event that does
	// not start before them.
	p := sort.Search(len(o.merged), func(i int) bool { return o.merged[i].Start >= add[0].e.Start })
	old, oldKeys := slices.Clone(o.merged[p:]), slices.Clone(o.keys[p:])
	o.merged, o.keys = o.merged[:p], o.keys[:p]
	i, j := 0, 0
	for i < len(old) || j < len(add) {
		if j == len(add) || i < len(old) && (old[i].Start < add[j].e.Start ||
			old[i].Start == add[j].e.Start && oldKeys[i].before(add[j].k)) {
			o.merged, o.keys = append(o.merged, old[i]), append(o.keys, oldKeys[i])
			i++
		} else {
			o.merged, o.keys = append(o.merged, add[j].e), append(o.keys, add[j].k)
			j++
		}
	}
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

// chunkSizes are the buffer lengths the tests read a window through: one
// event, two, and an odd size, so the merge of the two streams restarts at
// every kind of seam. 4096, longer than any device run, is added where no
// service cuts the windows.
var chunkSizes = []int{1, 2, 7}

// walkWindow reads the window [from, to) of r's event source, each
// segment cut into pieces of at most len(buf) events and built piece by
// piece into buf, and hands each piece to fn. It fails t if a segment is
// empty or a piece is built short of its length, so the merge of the two
// streams restarts at every kind of seam, and a device run is cut at
// every kind of point.
func walkWindow(t testing.TB, r *Runner, buf []trace.Event, from, to simclock.Time, fn func(piece []trace.Event)) {
	t.Helper()
	size := len(buf)
	read := 0
	r.Segments(from, to, func(seg trace.Segment) bool {
		if seg.Len() == 0 {
			t.Fatalf("window [%d, %d): an empty segment after %d events", from, to, read)
		}
		for seg.Len() > 0 {
			var head trace.Segment
			head, seg = seg.Cut(min(size, seg.Len()))
			if n := len(head.AppendEvents(buf[:0])); n != head.Len() {
				t.Fatalf("window [%d, %d): a piece of %d events built %d", from, to, head.Len(), n)
			}
			read += head.Len()
			fn(buf[:head.Len()])
		}
		return true
	})
}

// readWindow is walkWindow with the pieces' events concatenated.
func readWindow(t testing.TB, r *Runner, size int, from, to simclock.Time) []trace.Event {
	t.Helper()
	var out []trace.Event
	walkWindow(t, r, make([]trace.Event, size), from, to, func(piece []trace.Event) { out = append(out, piece...) })
	return out
}

// checkSourceMatchesOracle brings o up to date with r and compares the
// Runner's event source with it: the windows from *cursor to the
// watermark (advancing *cursor), windows and OpenStep times drawn at
// random over the run so far, runEvents and firstEvents. Each window is
// read through buffers of every chunk size, each piece compared with the
// oracle's events as it is read.
func checkSourceMatchesOracle(t *testing.T, r *Runner, o *sortOracle, rng *prng.Source, cursor *simclock.Time) {
	t.Helper()
	o.update(r)
	buf := make([]trace.Event, 4096)
	check := func(from, to simclock.Time) {
		t.Helper()
		want := o.window(from, to)
		for _, size := range append(chunkSizes, 4096) {
			got := 0
			walkWindow(t, r, buf[:size], from, to, func(piece []trace.Event) {
				if got+len(piece) > len(want) || !slices.Equal(piece, want[got:got+len(piece)]) {
					t.Fatalf("window [%d, %d) through %d events: events %d to %d are not the oracle's (it has %d)",
						from, to, size, got, got+len(piece), len(want))
				}
				got += len(piece)
			})
			if got != len(want) {
				t.Fatalf("window [%d, %d) through %d events: %d events, the oracle has %d",
					from, to, size, got, len(want))
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
	// The run's events and its first half, walked as runEvents and
	// firstEvents walk them, each segment compared as it is built.
	for _, n := range []int{math.MaxInt, len(o.merged) / 2} {
		want := o.merged[:min(n, len(o.merged))]
		got := 0
		walkFirst(r, n, func(seg trace.Segment) {
			buf = seg.AppendEvents(buf[:0])
			if got+len(buf) > len(want) || !slices.Equal(buf, want[got:got+len(buf)]) {
				t.Fatalf("the first %d events: events %d to %d are not the oracle's (it has %d)", n, got, got+len(buf), len(want))
			}
			got += len(buf)
		})
		if got != len(want) {
			t.Fatalf("the first %d events: %d of them, the oracle's %d", n, got, len(want))
		}
	}
}

// TestEventWindowsMatchSortOracle runs every Table I workload with a
// training-step hook and checks the event source against the sort oracle
// at every step and after Run. The runs between them cover mid-run eval
// blocks, checkpoints and summaries, per-step instrumentation
// (StepOverheadUs, also changed mid-run), pipeline stalls and a run
// fast-forwarded from a checkpoint (StartStep). The oracle is kept across
// each run and takes each step's new events; the workloads run in
// parallel.
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
			t.Parallel()
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
			o := &sortOracle{}
			var cursor simclock.Time
			opts.OnTrainStep = func(r *Runner, step int64, _ tpu.StepTiming) {
				if stall && step%20 == 19 {
					r.Stall(2*simclock.Millisecond, step)
				}
				if opts.StepOverheadUs > 0 && step == 60 {
					r.SetStepOverheadUs(0)
				}
				checkSourceMatchesOracle(t, r, o, rng, &cursor)
			}
			r, err := New(w, opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := r.Run(); err != nil {
				t.Fatal(err)
			}
			checkSourceMatchesOracle(t, r, o, rng, &cursor)
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
// service after every step of a long run, through ReadSegments as the
// profiler does, and bounds the bytes each window allocates by a
// constant: no copy of the window, let alone of the whole run, creeps
// back into the window path (one of the whole run at step 1000 would be
// about 8 MB). What the source keeps may grow as append grows it (the
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
	check := func() bool {
		runtime.ReadMemStats(&ms)
		before, keptBefore := ms.TotalAlloc, kept()
		n := 0
		resp := svc.ReadSegments(func(_ *tpu.ProfileResponse, seg trace.Segment) { n += seg.Len() })
		runtime.ReadMemStats(&ms)
		limit := uint64(4 << 10)
		if k := kept(); k > keptBefore {
			limit += k // a grown buffer is allocated whole
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
	if n := len(runEvents(r)); events != n {
		t.Fatalf("%d windows shipped %d of %d events", windows, events, n)
	}
}

// recordBytes returns the bytes rec holds: the record, its step pointers,
// its steps and their op entries.
func recordBytes(rec *trace.ProfileRecord) uint64 {
	n := unsafe.Sizeof(*rec) + uintptr(cap(rec.Steps))*unsafe.Sizeof(rec)
	for _, s := range rec.Steps {
		n += unsafe.Sizeof(*s) + uintptr(cap(s.Ops))*unsafe.Sizeof(trace.OpTotal{})
	}
	return uint64(n)
}

// TestReducedWindowAllocatesForItsRecordOnly reduces the windows of a long
// run the way the in-process profiler does (ReadSegments folded into a
// Reducer by AddSegment), after every step and then after training, and
// bounds the bytes each window allocates by a constant, for the Reducer's
// tables, plus what its record holds, twice over, plus the Reducer's
// dense per-step sums: a count and a total, 16 bytes, per step and
// operator of the window. A window's events built whole would cost 48
// bytes an event, several times that on a resnet step of some 300 events.
func TestReducedWindowAllocatesForItsRecordOnly(t *testing.T) {
	const fixed = 64 << 10
	var r *Runner
	var client *profiler.ServiceClient
	var ms runtime.MemStats
	windows, events := 0, int64(0)
	// kept sums the capacities of what the source keeps between windows:
	// a window that grows any of them is not bounded.
	kept := func() int {
		r.mu.RLock()
		defer r.mu.RUnlock()
		return cap(r.hostByStart) + cap(r.mergeBuf) + cap(r.lastStart) + cap(r.sortKeys) + cap(r.sortTmp)
	}
	check := func() bool {
		keptBefore := kept()
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		w, err := client.NextProfile(int64(windows))
		if err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&ms)
		if w.Record != nil {
			ops := make(map[trace.OpKey]bool)
			for _, st := range w.Record.Steps {
				for _, op := range st.Ops {
					ops[op.Key()] = true
				}
			}
			limit := fixed + 2*recordBytes(w.Record) + 16*uint64(len(w.Record.Steps)*len(ops))
			if bytes := ms.TotalAlloc - before; bytes > limit && kept() == keptBefore {
				t.Fatalf("window %d [%d, %d) allocated %d bytes for %d events in %d steps (limit %d)",
					windows, w.Record.WindowStart, w.Record.WindowEnd, bytes, w.Record.NumEvents, len(w.Record.Steps), limit)
			}
			events += w.Record.NumEvents
		}
		windows++
		return w.EndOfStream
	}
	for _, live := range []bool{true, false} {
		opts := Options{Steps: 1000}
		if live {
			opts.OnTrainStep = func(*Runner, int64, tpu.StepTiming) { check() }
		}
		var err error
		r, err = New(workloads.MustGet("resnet-imagenet"), opts)
		if err != nil {
			t.Fatal(err)
		}
		client = &profiler.ServiceClient{Service: r.ProfileService()}
		windows, events = 0, 0
		if err := r.Run(); err != nil {
			t.Fatal(err)
		}
		for !check() {
		}
		if n := int64(len(runEvents(r))); events != n {
			t.Fatalf("%d windows reduced %d of %d events", windows, events, n)
		}
	}
}

// BenchmarkProfileDrain reads a 4000-step resnet run's profile service to
// the end through ReadSegments, counting the events: "after" once training
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
			count := func(_ *tpu.ProfileResponse, seg trace.Segment) { events += seg.Len() }
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				var svc *tpu.ProfileService
				opts := Options{Steps: 4000}
				if live {
					opts.OnTrainStep = func(*Runner, int64, tpu.StepTiming) { svc.ReadSegments(count) }
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
				for !svc.ReadSegments(count).EndOfStream {
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
// with eval blocks on and off, and compares every window, read through
// ReadSegments, byte for byte with the copy oracle's window over the
// finished run (a window is cut below the watermark, so its events are
// final when it is cut); pollEveryStep has read each window through
// buffers of 1, 2 and 7 events as well. firstEvents, a segment walk cut
// short, is checked for n of 0, 1, 5000 and all. Three more runs add the optimizer's hooks (a
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
				if got, want := firstEvents(r, n), o.firstEvents(n); !slices.Equal(got, want) {
					t.Fatalf("firstEvents(%d): %d events, the oracle's %d (or not the same ones)", n, len(got), len(want))
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
			if got := runEvents(r); !slices.Equal(got, o.merged) {
				t.Fatalf("runEvents: %d events, the oracle has %d (or not the same ones)", len(got), len(o.merged))
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
