package repo

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
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

// putEach is the profiler's write loop: one named object per record,
// each retried under its name until the store takes it. It returns how
// many retries the records took.
func putEach(t *testing.T, rc *ResilientClient, recs []*trace.ProfileRecord) int {
	t.Helper()
	retries := 0
	for i, rec := range recs {
		name := fmt.Sprintf("profiles/record-%06d", i)
		put := func() error {
			_, err := rc.Put(name, trace.MarshalRecord(rec))
			return err
		}
		err := put()
		for ; err != nil && retries < 3; err = put() {
			retries++
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return retries
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
		recs := sessionRecords(0, 3)
		if retries := putEach(t, rc, recs); retries != 1 {
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

// dropFirstAppendReply is a transport that delivers the first
// fleet.AppendBatch to the collector and loses its answer.
type dropFirstAppendReply struct {
	rpc.Caller
	dropped bool
}

func (c *dropFirstAppendReply) Call(method string, body []byte) ([]byte, error) {
	out, err := c.Caller.Call(method, body)
	if method == MethodFleetAppendBatch && !c.dropped {
		c.dropped = true
		return nil, errors.New("connection reset")
	}
	return out, err
}

// finalizeAsLogged reads the session log, finalizes, and checks the
// archive holds want records, each the one the log holds at the same
// position: nothing archived twice, and the archive in the order a
// resumed analyzer would replay.
func finalizeAsLogged(t *testing.T, r *Repo, rc *ResilientClient, runID string, want int) {
	t.Helper()
	logged, err := SessionRecords(r.store, rc.Token())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rc.Finalize(); err != nil {
		t.Fatal(err)
	}
	_, a, err := r.Get(runID)
	if err != nil {
		t.Fatal(err)
	}
	got, err := a.Records()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != want || len(logged) != want {
		t.Fatalf("archive holds %d records and the session log %d, want each of the %d written once",
			len(got), len(logged), want)
	}
	for i, raw := range logged {
		rec, err := trace.UnmarshalRecord(raw)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rec, got[i]) {
			t.Fatalf("archive record %d (seq %d) is not the session log's (seq %d)", i, got[i].Seq, rec.Seq)
		}
	}
}

// TestAppendBatchLostReplyArchivedOnce: the collector logs a batch and
// its answer is lost, so the profiler retries the Put and the client
// resends the batch. The resend names the same first index, the
// collector skips what it already logged, and the run holds each record
// once.
func TestAppendBatchLostReplyArchivedOnce(t *testing.T) {
	_, srv, r := newFleetUnderTest(t, FleetOptions{})
	c := &dropFirstAppendReply{Caller: rpc.Pipe(srv)}
	defer c.Close()
	rc, err := OpenResilient(c, OpenRequest{RunID: "lost-reply", Workload: "synthetic"})
	if err != nil {
		t.Fatal(err)
	}
	if retries := putEach(t, rc, sessionRecords(1, 3)); retries != 1 {
		t.Fatalf("%d retries, want the one the lost answer forces", retries)
	}
	finalizeAsLogged(t, r, rc, "lost-reply", 3)
}

// holdFirstLogAppend is a Store whose first session-log Append waits
// until release is closed.
type holdFirstLogAppend struct {
	Store
	release chan struct{}
	held    atomic.Bool
}

func (h *holdFirstLogAppend) Append(name string, data []byte) (*storage.Object, error) {
	if strings.HasSuffix(name, "/log") && h.held.CompareAndSwap(false, true) {
		<-h.release
	}
	return h.Store.Append(name, data)
}

// TestAppendRetryRacingOriginalArchivedOnce: the first append stalls in
// its session-log write past the transport's deadline, so the
// ReconnectClient redials and resends the batch while the original is
// still in flight. The redial releases the stalled write; the resend
// then waits for the original under the session lock, finds its records
// logged, and skips them.
func TestAppendRetryRacingOriginalArchivedOnce(t *testing.T) {
	store := &holdFirstLogAppend{Store: newTestBucket(t), release: make(chan struct{})}
	f, srv := newFleetOverBucket(t, store, FleetOptions{})
	var dials atomic.Int32
	c, err := rpc.NewReconnectClient(rpc.ReconnectOptions{
		Endpoints: []string{"collector"},
		DialEndpoint: func(string) (net.Conn, error) {
			if dials.Add(1) == 2 {
				close(store.release) // the retry's redial
			}
			cc, sc := net.Pipe()
			go srv.ServeConn(sc)
			return cc, nil
		},
		CallTimeout: 500 * time.Millisecond,
		Sleep:       func(time.Duration) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rc, err := OpenResilient(c, OpenRequest{RunID: "raced", Workload: "synthetic"})
	if err != nil {
		t.Fatal(err)
	}
	if retries := putEach(t, rc, sessionRecords(2, 3)); retries != 0 {
		t.Fatalf("%d Put retries, want the transport's retry to absorb the timeout", retries)
	}
	if n := dials.Load(); n != 2 {
		t.Fatalf("%d dials, want 2: the first append's retry redials once", n)
	}
	finalizeAsLogged(t, f.repo, rc, "raced", 3)
}

// TestFullQueueWaitsForDrain: an append that finds the session's queue
// full waits for the drain rather than shedding. The session's drain
// starts only once queueDepth records fill the queue, with the batch's
// last record still to hand off; the batch is then accepted whole and
// every record archived once, in order.
func TestFullQueueWaitsForDrain(t *testing.T) {
	reg := obs.NewRegistry(16)
	f, srv, r := newFleetUnderTest(t, FleetOptions{Obs: reg})
	seq, err := f.repo.NextSeq()
	if err != nil {
		t.Fatal(err)
	}
	meta := archive.Meta{RunID: "congested", Workload: "synthetic", CreatedSeq: seq}
	s := f.newSession(sessionToken(meta.RunID, seq), meta)
	if err := f.register(s); err != nil {
		t.Fatal(err)
	}
	c := rpc.Pipe(srv)
	defer c.Close()
	fc := &ResilientClient{c: c, id: s.id}
	recs := sessionRecords(3, queueDepth+1)
	sent := make(chan error, 1)
	go func() { sent <- fc.AppendBatch(recs) }()
	for len(s.ch) < queueDepth {
		select {
		case err := <-sent:
			t.Fatalf("append of %d records answered %v before the drain started", len(recs), err)
		default:
			time.Sleep(time.Millisecond)
		}
	}
	go s.drain(f.m)
	if err := <-sent; err != nil {
		t.Fatalf("append waiting on a full queue: %v", err)
	}
	info, err := fc.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	_, a, err := r.Get("congested")
	if err != nil {
		t.Fatal(err)
	}
	got, err := a.Records()
	if err != nil {
		t.Fatal(err)
	}
	if info.Records != int64(len(recs)) || len(got) != len(recs) {
		t.Fatalf("archive holds %d records (entry says %d), want %d", len(got), info.Records, len(recs))
	}
	for i, rec := range got {
		if rec.Seq != recs[i].Seq {
			t.Fatalf("record %d has seq %d, want %d", i, rec.Seq, recs[i].Seq)
		}
	}
	snap := reg.Snapshot()
	if in, arch := snap.Counters["fleet.records.in"], snap.Counters["fleet.records.archived"]; in != int64(len(recs)) || in != arch {
		t.Fatalf("records in = %d, archived = %d, want %d each", in, arch, len(recs))
	}
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
// its records in — the frame header is written in front of the first
// new record in the batch copy — so a second payload-sized copy on the
// ack path fails here. With skip=1 the log already holds the batch's
// first record (an earlier send whose answer was lost): only the rest
// is logged and handed to the drain.
func TestLogAcceptedFramesTheDrainsBytesInPlace(t *testing.T) {
	for _, skip := range []int{0, 1} {
		t.Run(fmt.Sprintf("skip=%d", skip), func(t *testing.T) {
			capture := &frameCapture{Store: newTestBucket(t)}
			f := NewFleet(New(capture), FleetOptions{})
			s := f.newSession("inplace.0", archive.Meta{RunID: "inplace", Workload: "synthetic"})
			s.logged = int64(skip)
			if err := f.register(s); err != nil {
				t.Fatal(err)
			}

			var framed []byte
			for _, rec := range sessionRecords(2, 3) {
				framed = trace.AppendFramedRecord(framed, rec)
			}
			recs, err := trace.SplitFramed(framed)
			if err != nil {
				t.Fatal(err)
			}
			body := binary.LittleEndian.AppendUint64(nil, s.id)
			body = binary.LittleEndian.AppendUint64(body, 0)
			if _, err := f.handleAppendBatch(append(body, framed...)); err != nil {
				t.Fatal(err)
			}
			if len(capture.frames) != 1 {
				t.Fatalf("%d appends for one batch, want 1", len(capture.frames))
			}
			logged, err := trace.SplitFramed(capture.frames[0][frameOverhead:])
			if err != nil || len(logged) != len(recs)-skip {
				t.Fatalf("logged frame holds %d records (%v), want %d", len(logged), err, len(recs)-skip)
			}
			for i := range logged {
				q := <-s.ch // the drain is not running: the test takes its place
				if !bytes.Equal(q.raw, logged[i]) || !bytes.Equal(q.raw, recs[skip+i]) {
					t.Fatalf("record %d: the drain and the log received different bytes", skip+i)
				}
				if &q.raw[0] != &logged[i][0] {
					t.Fatalf("record %d: the logged frame holds a second copy of the bytes the drain received", skip+i)
				}
			}
			if n := len(s.ch); n != 0 {
				t.Fatalf("%d more records handed to the drain than logged", n)
			}
		})
	}
}
