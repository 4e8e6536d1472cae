package profiler

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faultnet"
	"repro/internal/obs"
	"repro/internal/rpc"
	"repro/internal/storage"
	"repro/internal/tpu"
)

// degradedLog records OnDegraded callbacks thread-safely.
type degradedLog struct {
	mu   sync.Mutex
	errs []error
}

func (d *degradedLog) cb(err error) {
	d.mu.Lock()
	d.errs = append(d.errs, err)
	d.mu.Unlock()
}

func (d *degradedLog) count() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.errs)
}

func (d *degradedLog) first() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.errs) == 0 {
		return nil
	}
	return d.errs[0]
}

func (d *degradedLog) anyIs(target error) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, err := range d.errs {
		if errors.Is(err, target) {
			return true
		}
	}
	return false
}

// Acceptance (a): the profiler survives repeated injected disconnects by
// reconnecting with backoff; every window's events are still collected
// and no gaps appear because the drops hit before requests reach the
// service (write-side faults, so retries are lossless).
func TestProfilerSurvivesInjectedDisconnects(t *testing.T) {
	// 3000 steps span five 60s profile windows — enough requests to burn
	// through three scripted disconnects and finish on a healthy conn.
	r := fixture(t, 3000)
	srv := rpc.NewServer()
	r.ProfileService().Register(srv)
	defer srv.Close()

	// Connections 1-3 each die after one request/response exchange — a
	// request is a single buffered client write, so the second write on
	// the conn is the one dropped (write-side: the dropped request never
	// reaches the service, so no window is consumed). Connection 4+ are
	// healthy.
	d := &faultnet.Dialer{
		Dial: func() (net.Conn, error) {
			cc, sc := net.Pipe()
			go srv.ServeConn(sc)
			return cc, nil
		},
		Faults: func(attempt int) faultnet.Config {
			if attempt <= 3 {
				return faultnet.Config{DropAfterWrites: 1}
			}
			return faultnet.Config{}
		},
	}
	rc, err := rpc.NewReconnectClient(rpc.ReconnectOptions{
		Dial:        d.Next,
		BaseBackoff: 100 * time.Microsecond,
		MaxBackoff:  time.Millisecond,
		Seed:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()

	deg := &degradedLog{}
	p := New(&RPCClient{Conn: rc}, Options{OnDegraded: deg.cb})
	if err := p.Start(false); err != nil {
		t.Fatal(err)
	}
	records, err := p.Stop()
	if err != nil {
		t.Fatalf("profiler died despite reconnect layer: %v", err)
	}
	if d.Attempts() < 4 {
		t.Fatalf("dial attempts = %d, want >= 4 (3 disconnects survived)", d.Attempts())
	}
	var events int64
	for _, rec := range records {
		if rec.Gap {
			t.Fatalf("record %d is a gap; write-side drops must be lossless", rec.Seq)
		}
		events += rec.NumEvents
	}
	if events != int64(len(r.Events())) {
		t.Fatalf("collected %d of %d events across disconnects", events, len(r.Events()))
	}
}

// flakyWindowClient fails NextProfile for a scripted set of call numbers
// (1-based), exercising the gap path without touching the service cursor.
type flakyWindowClient struct {
	mu    sync.Mutex
	inner Client
	fail  map[int]bool
	calls int
}

func (c *flakyWindowClient) NextProfile() (*tpu.ProfileResponse, error) {
	c.mu.Lock()
	c.calls++
	n := c.calls
	c.mu.Unlock()
	if c.fail[n] {
		return nil, fmt.Errorf("injected transient fault on call %d", n)
	}
	return c.inner.NextProfile()
}

// Acceptance (a), gap half: windows lost after exhausted retries become
// Gap markers in sequence order; profiling continues and all real events
// are still collected. The obs registry must show the same story: lost
// windows and degradations counted, nothing fatal.
func TestProfilerEmitsGapMarkersAndRecovers(t *testing.T) {
	r := fixture(t, 3000)
	// Retries disabled: each scripted failure costs exactly one window.
	inner := &ServiceClient{Service: r.ProfileService()}
	client := &flakyWindowClient{inner: inner, fail: map[int]bool{2: true, 4: true}}
	deg := &degradedLog{}
	reg := obs.NewRegistry(0)
	p := New(client, Options{MaxRetries: -1, MaxGaps: 3, OnDegraded: deg.cb, Obs: reg})
	if err := p.Start(false); err != nil {
		t.Fatal(err)
	}
	records, err := p.Stop()
	if err != nil {
		t.Fatalf("recoverable faults killed the profiler: %v", err)
	}
	gaps := 0
	var events int64
	for i, rec := range records {
		if rec.Seq != int64(i) {
			t.Fatalf("record %d has seq %d: gaps broke sequencing", i, rec.Seq)
		}
		if rec.Gap {
			gaps++
			if rec.NumEvents != 0 || len(rec.Steps) != 0 {
				t.Fatalf("gap record %d carries data", rec.Seq)
			}
			continue
		}
		events += rec.NumEvents
	}
	if gaps != 2 {
		t.Fatalf("gap records = %d, want 2", gaps)
	}
	if events != int64(len(r.Events())) {
		t.Fatalf("non-gap records hold %d of %d events", events, len(r.Events()))
	}
	if deg.count() != 2 {
		t.Fatalf("OnDegraded fired %d times, want 2", deg.count())
	}
	snap := reg.Snapshot()
	if snap.C("profiler.windows.lost") != 2 {
		t.Fatalf("windows.lost = %d, want 2", snap.C("profiler.windows.lost"))
	}
	if snap.C("profiler.degraded") != 2 {
		t.Fatalf("degraded = %d, want 2", snap.C("profiler.degraded"))
	}
	if snap.C("profiler.windows.fetched") == 0 {
		t.Fatal("no fetched windows counted")
	}
	lostEvents := 0
	for _, ev := range snap.Events {
		if ev.Scope == "profiler" && ev.Name == "window-lost" {
			lostEvents++
		}
	}
	if lostEvents != 2 {
		t.Fatalf("window-lost ring events = %d, want 2", lostEvents)
	}
}

// Gap records must survive the persist round trip for offline analysis.
func TestGapRecordsPersistAndReload(t *testing.T) {
	r := fixture(t, 800)
	svc := storage.NewService()
	bucket, _ := svc.CreateBucket("b")
	client := &flakyWindowClient{
		inner: &ServiceClient{Service: r.ProfileService()},
		fail:  map[int]bool{1: true},
	}
	p := New(client, Options{MaxRetries: -1, Bucket: bucket})
	if err := p.Start(true); err != nil {
		t.Fatal(err)
	}
	records, err := p.Stop()
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadRecords(bucket)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != len(records) {
		t.Fatalf("loaded %d of %d records", len(loaded), len(records))
	}
	if !loaded[0].Gap {
		t.Fatal("gap marker lost in the persist round trip")
	}
	for _, rec := range loaded[1:] {
		if rec.Gap {
			t.Fatalf("spurious gap on record %d", rec.Seq)
		}
	}
}

// Too many consecutive lost windows must turn into a hard failure, not an
// infinite gap stream.
func TestProfilerGivesUpAfterMaxGaps(t *testing.T) {
	r := fixture(t, 120)
	client := &flakyWindowClient{
		inner: &ServiceClient{Service: r.ProfileService()},
		// Every call fails: the profiler can never recover.
		fail: nil,
	}
	client.fail = alwaysFail{}.asMap(64)
	p := New(client, Options{MaxRetries: -1, MaxGaps: 3, Interval: 50 * time.Microsecond})
	if err := p.Start(false); err != nil {
		t.Fatal(err)
	}
	records, err := p.Stop()
	if err == nil {
		t.Fatal("unrecoverable client did not surface an error")
	}
	gaps := 0
	for _, rec := range records {
		if rec.Gap {
			gaps++
		}
	}
	if gaps != 3 {
		t.Fatalf("emitted %d gaps before giving up, want MaxGaps=3", gaps)
	}
}

type alwaysFail struct{}

func (alwaysFail) asMap(n int) map[int]bool {
	m := make(map[int]bool, n)
	for i := 1; i <= n; i++ {
		m[i] = true
	}
	return m
}

// Acceptance (b): a circuit breaker tripping below the profiler surfaces
// as a prompt fatal error — no gap spam, no retry storm.
func TestProfilerCircuitBreakerIsFatal(t *testing.T) {
	d := &faultnet.Dialer{
		Dial:       func() (net.Conn, error) { c, _ := net.Pipe(); return c, nil },
		Partitions: [][2]int{{1, 1 << 20}}, // permanent partition
	}
	rc, err := rpc.NewReconnectClient(rpc.ReconnectOptions{
		Dial:             d.Next,
		MaxRetries:       16,
		BreakerThreshold: 4,
		BaseBackoff:      10 * time.Microsecond,
		MaxBackoff:       100 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()

	p := New(&RPCClient{Conn: rc}, Options{})
	if err := p.Start(false); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var stopErr error
	go func() {
		_, stopErr = p.Stop()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Stop did not return: breaker failure not treated as fatal")
	}
	if !errors.Is(stopErr, rpc.ErrCircuitOpen) {
		t.Fatalf("Stop err = %v, want ErrCircuitOpen in the chain", stopErr)
	}
	if !rc.Tripped() {
		t.Fatal("breaker never tripped")
	}
}

// Transient storage failures are retried and recording completes.
func TestProfilerRecordingRetriesTransientPutFailures(t *testing.T) {
	r := fixture(t, 100)
	svc := storage.NewService()
	bucket, _ := svc.CreateBucket("b")
	fs := &faultnet.FlakyStore{Inner: bucket, FailFirst: 2}
	p := New(&ServiceClient{Service: r.ProfileService()},
		Options{Bucket: fs, Backoff: 50 * time.Microsecond})
	if err := p.Start(true); err != nil {
		t.Fatal(err)
	}
	records, err := p.Stop()
	if err != nil {
		t.Fatalf("transient storage faults killed recording: %v", err)
	}
	if got := len(bucket.List("profiles/")); got != len(records) {
		t.Fatalf("bucket holds %d of %d records after retries", got, len(records))
	}
}

// Acceptance (c): a storage endpoint that stalls forever must not block
// the profiling goroutine — every window is still collected in memory
// while the recorder is wedged — and Stop stays bounded via PutTimeout.
// Since the degradation loses no records, Stop returns them with a nil
// error; the incident is visible via OnDegraded and the obs counters.
func TestProfilerStorageStallDoesNotBlockProfiling(t *testing.T) {
	r := fixture(t, 800)
	svc := storage.NewService()
	bucket, _ := svc.CreateBucket("b")
	stall := make(chan struct{})
	defer func() {
		select {
		case <-stall:
		default:
			close(stall)
		}
	}()
	fs := &faultnet.FlakyStore{Inner: bucket, Stall: stall}
	deg := &degradedLog{}
	reg := obs.NewRegistry(0)
	p := New(&ServiceClient{Service: r.ProfileService()}, Options{
		Bucket:     fs,
		QueueSize:  1, // tiny queue: the stall backs up after one record
		PutTimeout: 50 * time.Millisecond,
		PutRetries: -1,
		OnDegraded: deg.cb,
		Obs:        reg,
	})
	if err := p.Start(true); err != nil {
		t.Fatal(err)
	}

	// While storage is fully stalled, profiling must still drain every
	// window into memory. This deadline fails loudly if the profiling
	// goroutine ever blocks on the recording path.
	want := int64(len(r.Events()))
	deadline := time.Now().Add(5 * time.Second)
	for {
		var events int64
		for _, rec := range p.Records() {
			events += rec.NumEvents
		}
		if events == want {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("profiling blocked by stalled storage: %d of %d events collected", events, want)
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Stop must return in bounded time even though the store never
	// recovers: the wedged Put is abandoned at PutTimeout.
	done := make(chan struct{})
	var records int
	var stopErr error
	go func() {
		recs, err := p.Stop()
		records, stopErr = len(recs), err
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop wedged by stalled storage")
	}
	if records == 0 {
		t.Fatal("records lost to the storage stall")
	}
	// Degrading to memory-only keeps every record: not a hard error.
	if stopErr != nil {
		t.Fatalf("Stop err = %v, want nil (degradation must not be fatal)", stopErr)
	}
	if deg.count() == 0 {
		t.Fatal("no degradation reported despite dropped persists")
	}
	degErr := deg.first()
	if !errors.Is(degErr, ErrPutTimeout) && !strings.Contains(degErr.Error(), "queue full") {
		t.Fatalf("degradation cause unclassified: %v", degErr)
	}
	snap := reg.Snapshot()
	if snap.C("profiler.put.timeouts") == 0 {
		t.Fatal("put timeout not counted")
	}
	if snap.C("profiler.recording.memory_only") != 1 {
		t.Fatalf("memory_only = %d, want 1", snap.C("profiler.recording.memory_only"))
	}
}

// Concurrent profiling and recording failures: the profile-loop failure
// is fatal (data genuinely lost), while the storage failure is a
// degradation — reported via OnDegraded with its cause intact, never
// joined into Stop's error, with all collected records still returned.
func TestProfilerSeparatesFatalFromDegradedFailures(t *testing.T) {
	r := fixture(t, 800)
	svc := storage.NewService()
	bucket, _ := svc.CreateBucket("b")
	// Storage that always fails and a client that dies after one window.
	fs := &faultnet.FlakyStore{Inner: bucket, FailEvery: 1}
	client := &flakyWindowClient{
		inner: &ServiceClient{Service: r.ProfileService()},
		fail:  alwaysFail{}.asMap(64),
	}
	client.fail[1] = false // one good window so recording has work
	deg := &degradedLog{}
	reg := obs.NewRegistry(0)
	p := New(client, Options{
		Bucket:     fs,
		MaxRetries: -1,
		MaxGaps:    1,
		PutRetries: -1,
		Backoff:    10 * time.Microsecond,
		Interval:   10 * time.Microsecond,
		OnDegraded: deg.cb,
		Obs:        reg,
	})
	if err := p.Start(true); err != nil {
		t.Fatal(err)
	}
	records, err := p.Stop()
	if err == nil {
		t.Fatal("unrecoverable profile-loop failure did not surface")
	}
	if !strings.Contains(err.Error(), "profile request") {
		t.Fatalf("profile failure missing from Stop error: %v", err)
	}
	if errors.Is(err, faultnet.ErrTransientStorage) {
		t.Fatalf("storage degradation leaked into Stop's error: %v", err)
	}
	if !deg.anyIs(faultnet.ErrTransientStorage) {
		t.Fatal("storage degradation never reported via OnDegraded")
	}
	if len(records) == 0 {
		t.Fatal("collected records lost")
	}
	if reg.Snapshot().C("profiler.recording.memory_only") != 1 {
		t.Fatal("memory-only degradation not counted")
	}
}
