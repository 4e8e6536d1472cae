package profiler

import (
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/estimator"
	"repro/internal/protowire"
	"repro/internal/rpc"
	"repro/internal/simclock"
	"repro/internal/storage"
	"repro/internal/tpu"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// fixture runs a short training job and returns its runner.
func fixture(t testing.TB, steps int) *estimator.Runner {
	t.Helper()
	w := workloads.MustGet("dcgan-mnist")
	r, err := estimator.New(w, estimator.Options{Steps: steps})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	return r
}

func TestProfilerCollectsWholeRun(t *testing.T) {
	r := fixture(t, 120)
	p := New(&ServiceClient{Service: r.ProfileService()}, Options{})
	if err := p.Start(false); err != nil {
		t.Fatal(err)
	}
	records, err := p.Stop()
	if err != nil {
		t.Fatal(err)
	}
	if len(records) == 0 {
		t.Fatal("no records")
	}
	var events int64
	for i, rec := range records {
		events += rec.NumEvents
		if rec.Seq != int64(i) {
			t.Fatalf("record %d has seq %d", i, rec.Seq)
		}
	}
	if events != int64(runEventCount(r)) {
		t.Fatalf("records summarize %d events, run produced %d", events, runEventCount(r))
	}
	// Records carry device metadata.
	if records[len(records)-1].IdleFrac <= 0 {
		t.Fatalf("record metadata missing: %+v", records[len(records)-1])
	}
}

func TestProfilerAnalyzerModePersistsRecords(t *testing.T) {
	r := fixture(t, 100)
	svc := storage.NewService()
	bucket, _ := svc.CreateBucket("tpupoint")
	p := New(&ServiceClient{Service: r.ProfileService()}, Options{Bucket: bucket})
	if err := p.Start(true); err != nil {
		t.Fatal(err)
	}
	records, err := p.Stop()
	if err != nil {
		t.Fatal(err)
	}
	names := bucket.List("profiles/")
	if len(names) != len(records) {
		t.Fatalf("bucket has %d objects, profiler returned %d records", len(names), len(records))
	}
	loaded, err := LoadRecords(bucket)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != len(records) {
		t.Fatalf("loaded %d records", len(loaded))
	}
	for i := range loaded {
		if loaded[i].Seq != records[i].Seq || loaded[i].NumEvents != records[i].NumEvents {
			t.Fatalf("record %d mismatch after round trip", i)
		}
	}
}

func TestProfilerAnalyzerModeRequiresBucket(t *testing.T) {
	r := fixture(t, 20)
	p := New(&ServiceClient{Service: r.ProfileService()}, Options{})
	if err := p.Start(true); err == nil {
		t.Fatal("analyzer mode without bucket accepted")
	}
}

func TestProfilerDoubleStart(t *testing.T) {
	r := fixture(t, 20)
	p := New(&ServiceClient{Service: r.ProfileService()}, Options{})
	if err := p.Start(false); err != nil {
		t.Fatal(err)
	}
	if err := p.Start(false); err == nil {
		t.Fatal("double Start accepted")
	}
	if _, err := p.Stop(); err != nil {
		t.Fatal(err)
	}
}

func TestProfilerStopWithoutStart(t *testing.T) {
	p := New(&ServiceClient{}, Options{})
	if _, err := p.Stop(); err == nil {
		t.Fatal("Stop without Start accepted")
	}
}

func TestProfilerOverRPC(t *testing.T) {
	r := fixture(t, 80)
	srv := rpc.NewServer()
	r.ProfileService().Register(srv)
	defer srv.Close()
	conn := rpc.Pipe(srv)
	defer conn.Close()

	p := New(&RPCClient{Conn: conn}, Options{})
	if err := p.Start(false); err != nil {
		t.Fatal(err)
	}
	records, err := p.Stop()
	if err != nil {
		t.Fatal(err)
	}
	var events int64
	for _, rec := range records {
		events += rec.NumEvents
	}
	if events != int64(runEventCount(r)) {
		t.Fatalf("RPC profiler got %d of %d events", events, runEventCount(r))
	}
}

func TestProfilerRecordsTopOpsMatchRun(t *testing.T) {
	r := fixture(t, 100)
	p := New(&ServiceClient{Service: r.ProfileService()}, Options{})
	if err := p.Start(false); err != nil {
		t.Fatal(err)
	}
	records, err := p.Stop()
	if err != nil {
		t.Fatal(err)
	}
	steps := trace.AggregateSteps(records)
	top := trace.TopOps(steps, trace.TPU, 3)
	if len(top) == 0 {
		t.Fatal("no top ops from records")
	}
	names := make([]string, len(top))
	for i, op := range top {
		names[i] = op.Name
	}
	joined := strings.Join(names, ",")
	if !strings.Contains(joined, "fusion") {
		t.Fatalf("fusion missing from top TPU ops: %v", names)
	}
}

func TestProfilerWhileTrainingRuns(t *testing.T) {
	// Start the profiler BEFORE training and run training concurrently:
	// the Figure 2 usage (Start → estimator.train → Stop).
	w := workloads.MustGet("dcgan-mnist")
	r, err := estimator.New(w, estimator.Options{Steps: 150})
	if err != nil {
		t.Fatal(err)
	}
	p := New(&ServiceClient{Service: r.ProfileService()}, Options{})
	if err := p.Start(false); err != nil {
		t.Fatal(err)
	}
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	records, err := p.Stop()
	if err != nil {
		t.Fatal(err)
	}
	var events int64
	for _, rec := range records {
		events += rec.NumEvents
	}
	if events != int64(runEventCount(r)) {
		t.Fatalf("live profiling got %d of %d events", events, runEventCount(r))
	}
}

// stopRaceClient closes asked on its first request and answers it only
// once Stop has begun, with an empty window: the request went out before
// training produced anything. Every later request finds the finished
// run's one event.
type stopRaceClient struct {
	p     *Profiler
	asked chan struct{}
	calls int // NextProfile runs on the profiling goroutine alone
}

func (c *stopRaceClient) NextProfile(seq int64) (Window, error) {
	c.calls++
	if c.calls == 1 {
		close(c.asked)
		for !c.p.isStopping() {
			time.Sleep(10 * time.Microsecond)
		}
		return Window{}, nil
	}
	events := []trace.Event{{Name: "fusion", Device: trace.TPU, Start: 0, Dur: 10, Step: 0}}
	return Window{Record: trace.Reduce(seq, 0, events, 0, 0), EndOfStream: true}, nil
}

// TestStopWaitsForAPostStopRequest: an empty window requested before
// Stop but answered after it says nothing about what training produced
// in between, so the profiler must ask again rather than end with the
// run's events unfetched.
func TestStopWaitsForAPostStopRequest(t *testing.T) {
	c := &stopRaceClient{asked: make(chan struct{})}
	p := New(c, Options{})
	c.p = p
	if err := p.Start(false); err != nil {
		t.Fatal(err)
	}
	<-c.asked
	records, err := p.Stop()
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 1 || records[0].NumEvents != 1 {
		t.Fatalf("got %d records after %d requests, want the one event the run produced", len(records), c.calls)
	}
}

func TestLoadRecordsBadData(t *testing.T) {
	svc := storage.NewService()
	b, _ := svc.CreateBucket("x")
	b.Put("profiles/record-000000", []byte{0x00, 0x01})
	if _, err := LoadRecords(b); err == nil {
		t.Fatal("corrupt record accepted")
	}
}

// TestLoadRecordsRefusesNonRecordObject: an object under profiles/ that
// is not a record-* object — here a framed batch an older build wrote,
// whose bytes would otherwise be read as one record — fails the load,
// and the error names the object.
func TestLoadRecordsRefusesNonRecordObject(t *testing.T) {
	svc := storage.NewService()
	b, _ := svc.CreateBucket("x")
	rec := &trace.ProfileRecord{Seq: 0, WindowStart: 0, WindowEnd: 10}
	b.Put("profiles/record-000000", trace.MarshalRecord(rec))
	framed := trace.AppendFramedRecord(trace.AppendFramedRecord(nil, rec), rec)
	b.Put("profiles/batch-000000", framed)
	recs, err := LoadRecords(b)
	if err == nil {
		t.Fatalf("framed batch object loaded as %d records", len(recs))
	}
	// Refused by name, not by failing to decode as one record.
	if !strings.Contains(err.Error(), "profiles/batch-000000 is not a record object") {
		t.Fatalf("error %q does not refuse the object by name", err)
	}
}

// TestRecordingWritesOneObjectPerRecord pins the persisted layout: the
// recording thread writes each record as its own profiles/record-*
// object, which is the only form LoadRecords reads.
func TestRecordingWritesOneObjectPerRecord(t *testing.T) {
	r := fixture(t, 800)
	svc := storage.NewService()
	bucket, _ := svc.CreateBucket("b")
	p := New(&ServiceClient{Service: r.ProfileService()}, Options{Bucket: bucket})
	if err := p.Start(true); err != nil {
		t.Fatal(err)
	}
	records, err := p.Stop()
	if err != nil {
		t.Fatal(err)
	}
	names := bucket.List("profiles/")
	if len(names) != len(records) {
		t.Fatalf("%d objects for %d records; want one per record",
			len(names), len(records))
	}
	for _, name := range names {
		if !strings.HasPrefix(name, "profiles/record-") {
			t.Fatalf("object %q is not a record object", name)
		}
	}
}

func BenchmarkProfileWholeRun(b *testing.B) {
	r := fixture(b, 100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := New(&ServiceClient{Service: r.ProfileService()}, Options{})
		if err := p.Start(false); err != nil {
			b.Fatal(err)
		}
		if _, err := p.Stop(); err != nil {
			b.Fatal(err)
		}
	}
}

func TestProfilerBreakpoint(t *testing.T) {
	// A long run with a 60s+ span so multiple windows exist; break at an
	// early step and confirm later activity is never collected.
	r := fixture(t, 800)
	p := New(&ServiceClient{Service: r.ProfileService()}, Options{BreakpointStep: 200})
	if err := p.Start(false); err != nil {
		t.Fatal(err)
	}
	records, err := p.Stop()
	if err != nil {
		t.Fatal(err)
	}
	if len(records) == 0 {
		t.Fatal("no records before the breakpoint")
	}
	var events int64
	for _, rec := range records {
		events += rec.NumEvents
	}
	if events >= int64(runEventCount(r)) {
		t.Fatal("breakpoint did not stop profiling early")
	}
	// The breakpoint step itself was covered.
	covered := false
	for _, rec := range records {
		for _, s := range rec.Steps {
			if s.Step >= 200 {
				covered = true
			}
		}
	}
	if !covered {
		t.Fatal("profiling stopped before reaching the breakpoint")
	}
}

// runEventCount returns how many events a finished run emitted, host and
// device.
func runEventCount(r *estimator.Runner) int { return r.CountEvents(0, math.MaxInt64) }

// unmarshalProfileResponse decodes a profile reply with its events whole:
// the last events field's, as a decoder keeps the last.
func unmarshalProfileResponse(data []byte) (*tpu.ProfileResponse, []trace.Event, error) {
	var events []trace.Event
	resp, err := tpu.ReadProfileResponse(data, func(_ *tpu.ProfileResponse, batch []byte) error {
		events = nil
		return trace.DecodeEvents(batch, make([]trace.Event, 1024), make(map[string]string), func(chunk []trace.Event) {
			events = append(events, chunk...)
		})
	})
	return resp, events, err
}

// cannedCaller answers every call with the same response.
type cannedCaller struct{ resp []byte }

func (c cannedCaller) Call(string, []byte) ([]byte, error) { return c.resp, nil }
func (c cannedCaller) CallTimeout(m string, b []byte, _ time.Duration) ([]byte, error) {
	return c.Call(m, b)
}
func (c cannedCaller) Close() error { return nil }

// profileResponse encodes a profile reply of n events from windowStart:
// a few names on both devices, 64 events a microsecond, a new step every
// 100 000 events.
func profileResponse(n int, windowStart simclock.Time) []byte {
	names := []string{"fusion", "Infeed", "OutfeedDequeueTuple"}
	var batch []byte
	ev := make([]trace.Event, 1)
	for i := 0; i < n; i++ {
		ev[0] = trace.Event{Name: names[i%3], Device: trace.Device(i % 2), Start: windowStart + simclock.Time(i/64),
			Dur: simclock.Duration(1 + i%5), Step: int64(i / 100_000)}
		batch = trace.AppendEvents(batch, ev)
	}
	resp := protowire.AppendBytes(nil, 1, batch)
	resp = protowire.AppendUint64(resp, 2, uint64(windowStart))
	resp = protowire.AppendUint64(resp, 3, uint64(windowStart)+uint64(n))
	resp = protowire.AppendDouble(resp, 4, 0.25)
	return protowire.AppendInt64(resp, 8, 3)
}

// TestRPCClientDecodesInChunks: the RPC client's record of a window is the
// one reducing the whole decoded window makes, and a window at
// MaxEventsPerProfile costs the client its decode chunk and the record,
// not the window's events: decoded whole they would take 48 MB.
func TestRPCClientDecodesInChunks(t *testing.T) {
	small := profileResponse(5000, 1000)
	got, err := (&RPCClient{Conn: cannedCaller{small}}).NextProfile(4)
	if err != nil {
		t.Fatal(err)
	}
	resp, events, err := unmarshalProfileResponse(small)
	if err != nil {
		t.Fatal(err)
	}
	want := trace.Reduce(4, resp.WindowStart, events, resp.IdleFrac, resp.MXUUtil)
	want.OpenStep = resp.OpenStep
	if !reflect.DeepEqual(got.Record, want) {
		t.Fatalf("the client's record is not the whole window's:\n got %+v\nwant %+v", got.Record, want)
	}

	c := &RPCClient{Conn: cannedCaller{profileResponse(trace.MaxEventsPerProfile, 0)}}
	if _, err := c.NextProfile(0); err != nil { // the client's chunk and names
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	w, err := c.NextProfile(1)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if w.Record.NumEvents != trace.MaxEventsPerProfile || len(w.Record.Steps) != 10 {
		t.Fatalf("%d events in %d steps, want %d in 10", w.Record.NumEvents, len(w.Record.Steps), trace.MaxEventsPerProfile)
	}
	if bytes := after.TotalAlloc - before.TotalAlloc; bytes > 256<<10 {
		t.Fatalf("a window of %d events allocated %d bytes on the client", trace.MaxEventsPerProfile, bytes)
	}
}
