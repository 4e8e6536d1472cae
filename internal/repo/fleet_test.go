package repo

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/archive"
	"repro/internal/obs"
	"repro/internal/rpc"
	"repro/internal/simclock"
	"repro/internal/trace"
)

func newFleetUnderTest(t *testing.T, opts FleetOptions) (*Fleet, *rpc.Server, *Repo) {
	t.Helper()
	r := newTestRepo(t)
	f := NewFleet(r, opts)
	srv := rpc.NewServer()
	f.Register(srv)
	t.Cleanup(srv.Close)
	return f, srv, r
}

// callAppendBatch sends one raw fleet.AppendBatch frame for session id.
// The client retains whatever it is handed and resends it until the
// server takes it, so a frame the server must refuse — malformed bytes,
// one record too many for a stalled queue — goes around the client.
func callAppendBatch(c rpc.Caller, id uint64, framed []byte) error {
	_, err := c.Call(MethodFleetAppendBatch, append(binary.LittleEndian.AppendUint64(nil, id), framed...))
	return err
}

func sessionRecords(session, n int) []*trace.ProfileRecord {
	recs := make([]*trace.ProfileRecord, 0, n)
	var ts simclock.Time
	for i := 0; i < n; i++ {
		step := int64(i)
		events := []trace.Event{
			{Name: fmt.Sprintf("Op%d", session%3), Device: trace.TPU, Start: ts, Dur: 500, Step: step},
			{Name: "InfeedDequeue", Device: trace.Host, Start: ts, Dur: 200, Step: step},
		}
		recs = append(recs, trace.Reduce(int64(i), ts, events, 0.1, 0.5))
		ts = ts.Add(1000)
	}
	return recs
}

// TestFleetConcurrentSessions is the acceptance-criteria test: 8
// concurrent streaming sessions, zero record loss (records_in ==
// records_archived), every run indexed.
func TestFleetConcurrentSessions(t *testing.T) {
	reg := obs.NewRegistry(64)
	_, srv, r := newFleetUnderTest(t, FleetOptions{
		MaxSessions: 8,
		QueueSize:   16,
		Obs:         reg,
	})

	const sessions = 8
	const perSession = 50
	var wg sync.WaitGroup
	errs := make([]error, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := rpc.Pipe(srv)
			defer c.Close()
			fc, err := OpenResilient(c, OpenRequest{
				RunID: fmt.Sprintf("fleet-run-%d", i), Workload: "synthetic",
			})
			if err != nil {
				errs[i] = err
				return
			}
			for _, rec := range sessionRecords(i, perSession) {
				if err := fc.Append(rec); err != nil {
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
				errs[i] = fmt.Errorf("run %d archived %d records, want %d", i, info.Records, perSession)
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
	in, archived := snap.Counters["fleet.records.in"], snap.Counters["fleet.records.archived"]
	if in != sessions*perSession || in != archived {
		t.Fatalf("record loss: in=%d archived=%d want %d", in, archived, sessions*perSession)
	}
	if snap.Counters["fleet.runs.saved"] != sessions {
		t.Fatalf("runs saved = %d", snap.Counters["fleet.runs.saved"])
	}
	if snap.Gauges["fleet.sessions.active"] != 0 {
		t.Fatalf("active sessions = %d after all finalized", snap.Gauges["fleet.sessions.active"])
	}

	runs, err := r.List(Filter{})
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != sessions {
		t.Fatalf("repository holds %d runs, want %d", len(runs), sessions)
	}
	// Every archived run diffs cleanly against every other.
	if _, err := r.Compare(runs[0].RunID, runs[1].RunID); err != nil {
		t.Fatalf("cross-run diff: %v", err)
	}
}

func TestFleetSessionCapBusy(t *testing.T) {
	reg := obs.NewRegistry(16)
	_, srv, _ := newFleetUnderTest(t, FleetOptions{MaxSessions: 2, Obs: reg})

	c := rpc.Pipe(srv)
	defer c.Close()
	var open []*ResilientClient
	for i := 0; i < 2; i++ {
		fc, err := OpenResilient(c, OpenRequest{RunID: fmt.Sprintf("r%d", i)})
		if err != nil {
			t.Fatal(err)
		}
		open = append(open, fc)
	}
	_, err := OpenResilient(c, OpenRequest{RunID: "overflow"})
	if !errors.Is(err, rpc.ErrBusy) {
		t.Fatalf("over-cap open err = %v, want ErrBusy", err)
	}
	if !rpc.IsTransient(err) {
		t.Fatal("session-cap rejection must be transient")
	}
	if reg.Snapshot().Counters["fleet.sessions.rejected"] != 1 {
		t.Fatal("rejection not counted")
	}

	// Aborting one frees a slot.
	if err := open[0].Abort(); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenResilient(c, OpenRequest{RunID: "after-abort"}); err != nil {
		t.Fatalf("open after abort: %v", err)
	}
}

// TestFleetQueueCapEnforced proves bounded per-session memory: with
// the consumer stalled, exactly QueueSize appends are accepted and the
// next one gets a transient busy error. White-box: the session is
// planted without its drain goroutine so the stall is deterministic.
func TestFleetQueueCapEnforced(t *testing.T) {
	reg := obs.NewRegistry(16)
	f, srv, _ := newFleetUnderTest(t, FleetOptions{
		QueueSize:      4,
		EnqueueTimeout: 10 * time.Millisecond,
		Obs:            reg,
	})
	s := &session{
		id:         42,
		meta:       archive.Meta{RunID: "congested"},
		w:          archive.NewWriter(archive.Meta{RunID: "congested"}),
		stream:     f.newSessionStream(archive.Meta{RunID: "congested"}),
		ch:         make(chan queued, f.opts.QueueSize),
		done:       make(chan struct{}),
		lastActive: f.opts.Now(),
	}
	f.mu.Lock()
	f.sessions[s.id] = s
	f.mu.Unlock()

	c := rpc.Pipe(srv)
	defer c.Close()
	fc := &ResilientClient{c: c, id: s.id}
	rec := sessionRecords(0, 1)[0]
	for i := 0; i < 4; i++ {
		if err := fc.Append(rec); err != nil {
			t.Fatalf("append %d within cap: %v", i, err)
		}
	}
	if err := callAppendBatch(c, s.id, trace.AppendFramedRecord(nil, rec)); !errors.Is(err, rpc.ErrBusy) {
		t.Fatalf("over-cap append err = %v, want ErrBusy", err)
	}
	snap := reg.Snapshot()
	if snap.Counters["fleet.appends.busy"] != 1 {
		t.Fatalf("busy appends = %d", snap.Counters["fleet.appends.busy"])
	}
	if snap.Counters["fleet.records.in"] != 4 {
		t.Fatalf("records in = %d, want 4", snap.Counters["fleet.records.in"])
	}

	// Start the consumer: the queue drains and the session finalizes
	// with exactly the admitted records.
	go s.drain(f.m)
	info, err := fc.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if info.Records != 4 {
		t.Fatalf("archived %d records, want 4", info.Records)
	}
}

func TestFleetLeaseExpiry(t *testing.T) {
	reg := obs.NewRegistry(16)
	now := time.Unix(1000, 0)
	var nowMu sync.Mutex
	clock := func() time.Time {
		nowMu.Lock()
		defer nowMu.Unlock()
		return now
	}
	advance := func(d time.Duration) {
		nowMu.Lock()
		now = now.Add(d)
		nowMu.Unlock()
	}

	f, srv, _ := newFleetUnderTest(t, FleetOptions{
		Lease: time.Minute,
		Obs:   reg,
		Now:   clock,
	})
	c := rpc.Pipe(srv)
	defer c.Close()
	fc, err := OpenResilient(c, OpenRequest{RunID: "abandoned"})
	if err != nil {
		t.Fatal(err)
	}
	if f.ActiveSessions() != 1 {
		t.Fatal("session not active")
	}

	advance(2 * time.Minute)
	// Any endpoint interaction sweeps; a fresh open does.
	if _, err := OpenResilient(c, OpenRequest{RunID: "fresh"}); err != nil {
		t.Fatal(err)
	}
	if got := reg.Snapshot().Counters["fleet.sessions.expired"]; got != 1 {
		t.Fatalf("expired = %d", got)
	}
	// Expiry freed the slot and the in-memory handle, not the durable
	// state: the old handle is unknown, and the client comes back by
	// token.
	if err := callAppendBatch(c, fc.id, trace.AppendFramedRecord(nil, sessionRecords(0, 1)[0])); !IsUnknownSession(err) {
		t.Fatalf("append on the expired handle: err = %v, want unknown session", err)
	}
	if _, err := fc.Finalize(); err != nil || fc.Resumes() != 1 {
		t.Fatalf("finalize after expiry: err = %v, resumes = %d, want a resume by token", err, fc.Resumes())
	}
}

func TestFleetRejectsMalformedRecord(t *testing.T) {
	_, srv, _ := newFleetUnderTest(t, FleetOptions{})
	c := rpc.Pipe(srv)
	defer c.Close()
	fc, err := OpenResilient(c, OpenRequest{RunID: "r"})
	if err != nil {
		t.Fatal(err)
	}
	if err := callAppendBatch(c, fc.id, frameOne([]byte{0xff, 0xff})); err == nil {
		t.Fatal("malformed record accepted")
	}
	// Session still usable.
	if err := fc.Append(sessionRecords(0, 1)[0]); err != nil {
		t.Fatal(err)
	}
	info, err := fc.Finalize()
	if err != nil || info.Records != 1 {
		t.Fatalf("finalize: %+v, %v", info, err)
	}
}

func TestFleetUnknownSession(t *testing.T) {
	_, srv, _ := newFleetUnderTest(t, FleetOptions{})
	c := rpc.Pipe(srv)
	defer c.Close()
	bogus := &ResilientClient{c: c, id: 999}
	if err := bogus.Append(sessionRecords(0, 1)[0]); err == nil {
		t.Fatal("append to unknown session succeeded")
	}
	if _, err := bogus.Finalize(); err == nil {
		t.Fatal("finalize of unknown session succeeded")
	}
}
