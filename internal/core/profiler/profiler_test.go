package profiler

import (
	"strings"
	"testing"
	"time"

	"repro/internal/estimator"
	"repro/internal/rpc"
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
	if events != int64(len(r.Events())) {
		t.Fatalf("records summarize %d events, run produced %d", events, len(r.Events()))
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
	if events != int64(len(r.Events())) {
		t.Fatalf("RPC profiler got %d of %d events", events, len(r.Events()))
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
	if events != int64(len(r.Events())) {
		t.Fatalf("live profiling got %d of %d events", events, len(r.Events()))
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

func (c *stopRaceClient) NextProfile() (*tpu.ProfileResponse, error) {
	c.calls++
	if c.calls == 1 {
		close(c.asked)
		for !c.p.isStopping() {
			time.Sleep(10 * time.Microsecond)
		}
		return &tpu.ProfileResponse{}, nil
	}
	return &tpu.ProfileResponse{
		Events:      []trace.Event{{Name: "fusion", Device: trace.TPU, Start: 0, Dur: 10, Step: 0}},
		WindowEnd:   10,
		EndOfStream: true,
	}, nil
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
	if events >= int64(len(r.Events())) {
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
