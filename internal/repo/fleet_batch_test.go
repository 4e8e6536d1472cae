package repo

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/archive"
	"repro/internal/obs"
	"repro/internal/rpc"
	"repro/internal/storage"
	"repro/internal/trace"
)

// TestFleetAppendBatch streams whole batches through one RPC each and
// checks the archived run is identical to what per-record appends build:
// same count, same records, same zero-loss metric story.
func TestFleetAppendBatch(t *testing.T) {
	reg := obs.NewRegistry(16)
	_, srv, r := newFleetUnderTest(t, FleetOptions{Obs: reg})
	c := rpc.Pipe(srv)
	defer c.Close()

	fc, err := OpenResilient(c, OpenRequest{RunID: "batched", Workload: "synthetic"})
	if err != nil {
		t.Fatal(err)
	}
	recs := sessionRecords(0, 60)
	for lo := 0; lo < len(recs); lo += 20 {
		if err := fc.AppendBatch(recs[lo : lo+20]); err != nil {
			t.Fatalf("batch at %d: %v", lo, err)
		}
	}
	info, err := fc.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if info.Records != int64(len(recs)) {
		t.Fatalf("archived %d records, want %d", info.Records, len(recs))
	}

	snap := reg.Snapshot()
	if in, arch := snap.Counters["fleet.records.in"], snap.Counters["fleet.records.archived"]; in != int64(len(recs)) || in != arch {
		t.Fatalf("record loss: in=%d archived=%d want %d", in, arch, len(recs))
	}

	_, a, err := r.Get("batched")
	if err != nil {
		t.Fatal(err)
	}
	got, err := a.Records()
	if err != nil {
		t.Fatal(err)
	}
	for i, rec := range got {
		if rec.Seq != recs[i].Seq || rec.NumEvents != recs[i].NumEvents {
			t.Fatalf("record %d: seq=%d events=%d, want seq=%d events=%d",
				i, rec.Seq, rec.NumEvents, recs[i].Seq, recs[i].NumEvents)
		}
	}
}

// TestFleetAppendBatchPartialAcceptance drives the shed-load protocol
// deterministically: a hand-built session with its drain goroutine not
// yet running, so the 4-slot queue genuinely fills. The first batch
// round must accept exactly the queue's worth, the next round with the
// queue still full must surface the transient busy error (never a
// silent zero-accept success), and once the drain starts, resending the
// tail lands every record exactly once, in order.
func TestFleetAppendBatchPartialAcceptance(t *testing.T) {
	f, srv, _ := newFleetUnderTest(t, FleetOptions{
		QueueSize:      4,
		EnqueueTimeout: 5 * time.Millisecond,
	})
	seq, err := f.repo.NextSeq()
	if err != nil {
		t.Fatal(err)
	}
	meta := archive.Meta{RunID: "partial", Workload: "synthetic", CreatedSeq: seq}
	s := &session{
		id: 77, meta: meta, w: archive.NewWriter(meta), stream: f.newSessionStream(meta),
		ch: make(chan queued, f.opts.QueueSize), done: make(chan struct{}),
		lastActive: f.opts.Now(),
	}
	f.mu.Lock()
	f.sessions[s.id] = s
	f.mu.Unlock()

	recs := sessionRecords(1, 10)
	var framed []byte
	for _, rec := range recs {
		framed = trace.AppendFramedRecord(framed, rec)
	}
	body := make([]byte, 8+len(framed))
	binary.LittleEndian.PutUint64(body[:8], s.id)
	copy(body[8:], framed)
	out, err := f.handleAppendBatch(body)
	if err != nil {
		t.Fatalf("first round: %v", err)
	}
	var resp AppendBatchResponse
	if err := json.Unmarshal(out, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Accepted != f.opts.QueueSize {
		t.Fatalf("accepted %d of %d, want exactly the queue's %d",
			resp.Accepted, len(recs), f.opts.QueueSize)
	}

	// Queue still full: zero progress must be a busy ERROR, not a
	// zero-accept success — that is what keeps retry duplicate-free.
	tail, err := trace.SkipFrames(framed, resp.Accepted)
	if err != nil {
		t.Fatal(err)
	}
	body2 := make([]byte, 8+len(tail))
	binary.LittleEndian.PutUint64(body2[:8], s.id)
	copy(body2[8:], tail)
	if _, err := f.handleAppendBatch(body2); !errors.Is(err, rpc.ErrBusy) {
		t.Fatalf("stalled-queue round: err = %v, want ErrBusy", err)
	}

	// Start the drain and let the client-side loop push the tail through.
	go s.drain(f.m)
	fc := &ResilientClient{c: rpc.Pipe(srv), id: s.id}
	if err := fc.AppendBatch(recs[resp.Accepted:]); err != nil {
		t.Fatalf("tail resend: %v", err)
	}
	info, err := fc.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if info.Records != int64(len(recs)) {
		t.Fatalf("archived %d records, want %d (duplicates or loss on partial acceptance)",
			info.Records, len(recs))
	}
}

// TestFleetAppendBatchRejectsMalformed checks batch validation is
// all-or-nothing: one bad frame rejects the whole RPC and nothing lands.
func TestFleetAppendBatchRejectsMalformed(t *testing.T) {
	_, srv, _ := newFleetUnderTest(t, FleetOptions{})
	c := rpc.Pipe(srv)
	defer c.Close()

	fc, err := OpenResilient(c, OpenRequest{RunID: "reject", Workload: "synthetic"})
	if err != nil {
		t.Fatal(err)
	}
	var framed []byte
	framed = trace.AppendFramedRecord(framed, sessionRecords(0, 1)[0])
	framed = append(framed, 2, 0x00, 0x01) // frame holding an invalid field-0 tag
	if err := callAppendBatch(c, fc.id, framed); err == nil {
		t.Fatal("malformed batch accepted")
	}
	info, err := fc.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if info.Records != 0 {
		t.Fatalf("rejected batch still landed %d records", info.Records)
	}
}

// TestFleetAppendBatchConcurrentSessions is the batched variant of the
// zero-loss acceptance test: concurrent sessions each streaming in
// batches, every record archived exactly once.
func TestFleetAppendBatchConcurrentSessions(t *testing.T) {
	reg := obs.NewRegistry(64)
	_, srv, r := newFleetUnderTest(t, FleetOptions{
		MaxSessions: 4,
		QueueSize:   8,
		Obs:         reg,
	})
	const sessions = 4
	const perSession = 48
	var wg sync.WaitGroup
	errs := make([]error, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := rpc.Pipe(srv)
			defer c.Close()
			fc, err := OpenResilient(c, OpenRequest{
				RunID: fmt.Sprintf("batch-run-%d", i), Workload: "synthetic",
			})
			if err != nil {
				errs[i] = err
				return
			}
			recs := sessionRecords(i, perSession)
			for lo := 0; lo < len(recs); lo += 16 {
				if err := fc.AppendBatch(recs[lo : lo+16]); err != nil {
					errs[i] = err
					return
				}
			}
			info, err := fc.Finalize()
			if err != nil {
				errs[i] = err
				return
			}
			if info.Records != perSession {
				errs[i] = fmt.Errorf("run %d archived %d records, want %d",
					i, info.Records, perSession)
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
	}
	snap := reg.Snapshot()
	if in, arch := snap.Counters["fleet.records.in"], snap.Counters["fleet.records.archived"]; in != sessions*perSession || in != arch {
		t.Fatalf("record loss: in=%d archived=%d want %d", in, arch, sessions*perSession)
	}
	runs, err := r.List(Filter{})
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != sessions {
		t.Fatalf("repository holds %d runs, want %d", len(runs), sessions)
	}
}

// TestFleetAppendBatchUnknownSession mirrors the single-append contract.
func TestFleetAppendBatchUnknownSession(t *testing.T) {
	_, srv, _ := newFleetUnderTest(t, FleetOptions{})
	c := rpc.Pipe(srv)
	defer c.Close()
	fc := &ResilientClient{c: c, id: 999}
	err := fc.AppendBatch(sessionRecords(0, 2))
	if err == nil {
		t.Fatal("append to unknown session succeeded")
	}
	var re *rpc.RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want RemoteError", err)
	}
}

// failFirstAppend is a transport that loses the first fleet.AppendBatch
// before it reaches the collector.
type failFirstAppend struct {
	rpc.Caller
	failed bool
}

func (c *failFirstAppend) Call(method string, body []byte) ([]byte, error) {
	if method == MethodFleetAppendBatch && !c.failed {
		c.failed = true
		return nil, errors.New("connection reset")
	}
	return c.Caller.Call(method, body)
}

// TestResilientPutRetryRetainsOnce: the profiler retries a failed write
// by calling Put again under the same object name. The client retained
// the record on the first call, so the retry must only flush it — it
// used to retain it a second time, and the run was archived with that
// record twice.
func TestResilientPutRetryRetainsOnce(t *testing.T) {
	// Each record goes through Put on its own: no batching.
	t.Run("batched=false", func(t *testing.T) {
		_, srv, r := newFleetUnderTest(t, FleetOptions{})
		c := &failFirstAppend{Caller: rpc.Pipe(srv)}
		defer c.Close()
		rc, err := OpenResilient(c, OpenRequest{RunID: "retried", Workload: "synthetic"})
		if err != nil {
			t.Fatal(err)
		}
		// The profiler's write loop: one named object per record, each
		// retried under its name until the store takes it.
		recs := sessionRecords(0, 3)
		retries := 0
		for i, rec := range recs {
			name := fmt.Sprintf("profiles/record-%06d", i)
			put := func() error {
				_, err := rc.Put(name, trace.MarshalRecord(rec))
				return err
			}
			for err = put(); err != nil && retries < 3; err = put() {
				retries++
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if retries != 1 {
			t.Fatalf("%d retries, want the one the lost append forces", retries)
		}
		info, err := rc.Finalize()
		if err != nil {
			t.Fatal(err)
		}
		_, a, err := r.Get("retried")
		if err != nil {
			t.Fatal(err)
		}
		got, err := a.Records()
		if err != nil {
			t.Fatal(err)
		}
		want := len(recs)
		if info.Records != int64(want) || len(got) != want {
			t.Fatalf("archive holds %d records (entry says %d), want each of the %d written once", len(got), info.Records, want)
		}
		for i := 1; i < len(got); i++ {
			if got[i].Seq <= got[i-1].Seq {
				t.Fatalf("record %d has seq %d after %d: a record archived twice", i, got[i].Seq, got[i-1].Seq)
			}
		}
	})
}

// frameCapture is a Store that remembers every frame handed to Append.
type frameCapture struct {
	Store
	frames [][]byte
}

func (c *frameCapture) Append(name string, data []byte) (*storage.Object, error) {
	c.frames = append(c.frames, data)
	return c.Store.Append(name, data)
}

// TestLogAcceptedFramesTheDrainsBytesInPlace: a batch is copied once.
// The session log frame's payload is the very memory the drain receives
// its records in — the frame header is written in front of the batch
// copy — so a second payload-sized copy on the ack path fails here.
func TestLogAcceptedFramesTheDrainsBytesInPlace(t *testing.T) {
	capture := &frameCapture{Store: newTestBucket(t)}
	f := NewFleet(New(capture), FleetOptions{})
	meta := archive.Meta{RunID: "inplace", Workload: "synthetic"}
	s := &session{
		id: 9, token: "inplace.0", meta: meta, w: archive.NewWriter(meta), stream: f.newSessionStream(meta),
		ch: make(chan queued, f.opts.QueueSize), done: make(chan struct{}),
		lastActive: f.opts.Now(),
	}
	f.mu.Lock()
	f.sessions[s.id] = s
	f.mu.Unlock()

	recs := sessionRecords(2, 3)
	body := binary.LittleEndian.AppendUint64(nil, s.id)
	for _, rec := range recs {
		body = trace.AppendFramedRecord(body, rec)
	}
	if _, err := f.handleAppendBatch(body); err != nil {
		t.Fatal(err)
	}
	if len(capture.frames) != 1 {
		t.Fatalf("%d appends for one batch, want 1", len(capture.frames))
	}
	logged, err := trace.SplitFramed(capture.frames[0][frameOverhead:])
	if err != nil || len(logged) != len(recs) {
		t.Fatalf("logged frame holds %d records (%v), want %d", len(logged), err, len(recs))
	}
	for i := range recs {
		q := <-s.ch // the drain is not running: the test takes its place
		if !bytes.Equal(q.raw, logged[i]) {
			t.Fatalf("record %d: the drain and the log received different bytes", i)
		}
		if &q.raw[0] != &logged[i][0] {
			t.Fatalf("record %d: the logged frame holds a second copy of the bytes the drain received", i)
		}
	}
}
