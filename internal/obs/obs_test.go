package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// Concurrent hammering of every instrument kind; run under -race this
// proves the lock-free paths are data-race free and lose no updates.
func TestInstrumentsConcurrent(t *testing.T) {
	r := NewRegistry(0)
	const goroutines = 16
	const perG = 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				r.Counter("c").Inc()
				r.Gauge("g").Add(1)
				r.Histogram("h").observe(int64(i % 3000))
				if i%100 == 0 {
					r.Emit("test", "tick", fmt.Sprintf("g%d i%d", g, i))
				}
			}
		}(g)
	}
	wg.Wait()

	want := int64(goroutines * perG)
	if got := r.Counter("c").Value(); got != want {
		t.Fatalf("counter = %d, want %d", got, want)
	}
	if got := r.Gauge("g").Value(); got != want {
		t.Fatalf("gauge = %d, want %d", got, want)
	}
	h := r.Histogram("h").snapshot()
	if h.Count != want {
		t.Fatalf("histogram count = %d, want %d", h.Count, want)
	}
	var bucketSum int64
	for _, b := range h.Buckets {
		bucketSum += b.Count
	}
	if bucketSum != want {
		t.Fatalf("bucket counts sum to %d, want %d", bucketSum, want)
	}
	if h.MaxUs != perG-1 {
		t.Fatalf("histogram max = %d, want %d", h.MaxUs, perG-1)
	}
}

func TestHistogramBucketing(t *testing.T) {
	var h Histogram
	h.observe(-5)         // clamps to 0 -> le 10
	h.observe(10)         // boundary is inclusive -> le 10
	h.observe(11)         // -> le 25
	h.observe(99_999_99)  // -> le 10_000_000
	h.observe(99_999_999) // past the last bound -> overflow
	s := h.snapshot()
	if s.Count != 5 {
		t.Fatalf("count = %d", s.Count)
	}
	got := map[int64]int64{}
	for _, b := range s.Buckets {
		got[b.Le] = b.Count
	}
	want := map[int64]int64{10: 2, 25: 1, 10_000_000: 1, -1: 1}
	for le, n := range want {
		if got[le] != n {
			t.Fatalf("bucket le=%d count = %d, want %d (all: %v)", le, got[le], n, got)
		}
	}
	if s.MaxUs != 99_999_999 {
		t.Fatalf("max = %d", s.MaxUs)
	}
}

func TestHistogramQuantile(t *testing.T) {
	var nilH *Histogram
	if got := nilH.Quantile(0.99); got != 0 {
		t.Fatalf("nil histogram quantile = %d", got)
	}
	var empty Histogram
	if got := empty.Quantile(0.5); got != 0 {
		t.Fatalf("empty histogram quantile = %d", got)
	}

	var h Histogram
	// 98 fast observations and two slow ones: p50 stays in the fast
	// bucket, p99+ reaches the slow one.
	for i := 0; i < 98; i++ {
		h.observe(40) // -> le 50 bucket
	}
	h.observe(9_000) // -> le 10_000 bucket
	h.observe(9_000)
	if got := h.Quantile(0.5); got != 50 {
		t.Fatalf("p50 = %d, want 50", got)
	}
	if got := h.Quantile(0.99); got != 10_000 {
		t.Fatalf("p99 = %d, want 10_000", got)
	}
	if got := h.Quantile(1.0); got != 10_000 {
		t.Fatalf("p100 = %d, want 10_000", got)
	}
	// Out-of-range p clamps instead of panicking.
	if got := h.Quantile(-1); got != 50 {
		t.Fatalf("p<0 = %d, want 50", got)
	}
	if got := h.Quantile(2); got != 10_000 {
		t.Fatalf("p>1 = %d, want 10_000", got)
	}

	// Overflow-bucket hits report the observed max, not a fake bound.
	var o Histogram
	o.observe(99_999_999)
	if got := o.Quantile(0.99); got != 99_999_999 {
		t.Fatalf("overflow quantile = %d, want observed max", got)
	}
}

// Two registries fed the same data must export byte-identical snapshots,
// and re-marshaling one registry must be stable: dashboards diff these
// bytes, and cmd/tpupoint's TestRunMetricsSnapshot decodes them.
func TestSnapshotDeterministic(t *testing.T) {
	fixed := time.Unix(1700000000, 0).UTC()
	build := func() *Registry {
		r := NewRegistry(8)
		r.SetClock(func() time.Time { return fixed })
		// Insertion order deliberately differs between the builds below.
		for _, name := range []string{"z.count", "a.count", "m.count"} {
			r.Counter(name).Add(int64(len(name)))
		}
		r.Gauge("depth").Set(42)
		for i := 0; i < 20; i++ {
			r.Histogram("lat").observe(int64(i * 100))
			r.Emit("scope", "ev", fmt.Sprint(i))
		}
		return r
	}
	buildReversed := func() *Registry {
		r := NewRegistry(8)
		r.SetClock(func() time.Time { return fixed })
		for _, name := range []string{"m.count", "a.count", "z.count"} {
			r.Counter(name).Add(int64(len(name)))
		}
		for i := 0; i < 20; i++ {
			r.Histogram("lat").observe(int64(i * 100))
			r.Emit("scope", "ev", fmt.Sprint(i))
		}
		r.Gauge("depth").Set(42)
		return r
	}
	var a, b, a2 bytes.Buffer
	if err := build().WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := buildReversed().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("snapshots differ across construction order:\n%s\nvs\n%s", a.String(), b.String())
	}
	r := build()
	if err := r.WriteJSON(&a2); err != nil {
		t.Fatal(err)
	}
	var a3 bytes.Buffer
	if err := r.WriteJSON(&a3); err != nil {
		t.Fatal(err)
	}
	if a2.String() != a3.String() {
		t.Fatal("re-marshaling the same registry is not stable")
	}
}

func TestEventRingBoundedAndOrdered(t *testing.T) {
	r := NewRegistry(4)
	for i := 0; i < 10; i++ {
		r.Emit("s", "e", fmt.Sprint(i))
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("ring holds %d events, want 4", len(evs))
	}
	for i, ev := range evs {
		if want := int64(6 + i); ev.Seq != want {
			t.Fatalf("event %d has seq %d, want %d (oldest evicted first)", i, ev.Seq, want)
		}
	}
	snap := r.Snapshot()
	if snap.EventsDropped != 6 {
		t.Fatalf("dropped = %d, want 6", snap.EventsDropped)
	}
}

// A nil registry must be fully inert: instrumented code never checks
// whether observability is on.
func TestNilRegistrySafe(t *testing.T) {
	var r *Registry
	r.Counter("c").Inc()
	r.Counter("c").Add(5)
	r.Gauge("g").Set(1)
	r.Gauge("g").Add(1)
	r.Histogram("h").observe(100)
	r.Histogram("h").ObserveSince(time.Now())
	r.Emit("s", "n", "d")
	r.SetClock(time.Now)
	r.PublishExpvar("nil-reg")
	if got := r.Counter("c").Value(); got != 0 {
		t.Fatalf("nil counter value = %d", got)
	}
	if evs := r.Events(); evs != nil {
		t.Fatalf("nil events = %v", evs)
	}
	snap := r.Snapshot()
	if len(snap.Counters) != 0 || len(snap.Gauges) != 0 || len(snap.Histograms) != 0 {
		t.Fatalf("nil snapshot not empty: %+v", snap)
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatalf("nil WriteJSON: %v", err)
	}
	var round Snapshot
	if err := json.Unmarshal(buf.Bytes(), &round); err != nil {
		t.Fatalf("nil snapshot is not valid JSON: %v", err)
	}
}

func TestServeHTTP(t *testing.T) {
	r := NewRegistry(0)
	r.Counter("hits").Add(3)
	rec := httptest.NewRecorder()
	r.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("status = %d", rec.Code)
	}
	var snap Snapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.C("hits") != 3 {
		t.Fatalf("served counter = %d", snap.C("hits"))
	}
}

func TestSummaryLine(t *testing.T) {
	r := NewRegistry(0)
	r.Counter("profiler.windows.fetched").Add(12)
	r.Counter("profiler.windows.lost").Add(2)
	r.Counter("optimizer.probes.started") // registered at zero still shows
	line := r.Snapshot().SummaryLine()
	for _, want := range []string{"windows=12", "gaps=2", "probes=0"} {
		if !bytes.Contains([]byte(line), []byte(want)) {
			t.Fatalf("summary %q missing %q", line, want)
		}
	}
	if (Snapshot{}).SummaryLine() != "" {
		t.Fatal("empty snapshot should summarize to empty string")
	}
}
