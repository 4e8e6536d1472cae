package repo

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/archive"
	"repro/internal/obs"
	"repro/internal/rpc"
	"repro/internal/simclock"
	"repro/internal/storage"
	"repro/internal/trace"
)

// newBucket returns a fresh in-memory bucket standing in for the
// collector's durable store.
func newBucket(t *testing.T) *storage.Bucket {
	t.Helper()
	svc := storage.NewService()
	bucket, err := svc.CreateBucket("fleet-durable")
	if err != nil {
		t.Fatal(err)
	}
	return bucket
}

// newFleetOverBucket builds a collector over an existing store — the
// restart tests build two collectors over the same one.
func newFleetOverBucket(t *testing.T, bucket Store, opts FleetOptions) (*Fleet, *rpc.Server) {
	t.Helper()
	r, _, err := Open(bucket)
	if err != nil {
		t.Fatal(err)
	}
	f := NewFleet(r, opts)
	srv := rpc.NewServer()
	f.Register(srv)
	t.Cleanup(srv.Close)
	return f, srv
}

// swapCaller is an agent's transport across collector restarts: the
// test re-aims it at the new process, as an endpoint-set
// ReconnectClient would redial.
type swapCaller struct{ rpc.Caller }

// restart abandons the current collector (only the store survives, like
// a process kill) and aims the transport at a fresh one over the store.
func (sc *swapCaller) restart(t *testing.T, store Store) {
	t.Helper()
	if sc.Caller != nil {
		sc.Caller.Close()
	}
	_, srv := newFleetOverBucket(t, store, FleetOptions{})
	sc.Caller = rpc.Pipe(srv)
}

// TestFleetFinalizeBeatsLeaseExpiry is the finalize-vs-sweep race
// regression: a finalize arriving after the lease ran out must still
// archive the session's records, not find it swept out from under the
// handler. (The sweep used to run before the session was detached.)
func TestFleetFinalizeBeatsLeaseExpiry(t *testing.T) {
	reg := obs.NewRegistry(32)
	now := time.Unix(1000, 0)
	var nowMu sync.Mutex
	clock := func() time.Time {
		nowMu.Lock()
		defer nowMu.Unlock()
		return now
	}

	_, srv, _ := newFleetUnderTest(t, FleetOptions{
		Lease: time.Nanosecond, // zero-grace: everything is always expired
		Obs:   reg,
		Now:   clock,
	})
	c := rpc.Pipe(srv)
	defer c.Close()
	fc, err := OpenResilient(c, OpenRequest{RunID: "race", Workload: "synthetic"})
	if err != nil {
		t.Fatal(err)
	}
	const n = 20
	for _, rec := range sessionRecords(0, n) {
		if err := fc.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	nowMu.Lock()
	now = now.Add(time.Hour) // lease long gone
	nowMu.Unlock()

	info, err := fc.Finalize()
	if err != nil {
		t.Fatalf("finalize lost to the lease sweep: %v", err)
	}
	if info.Records != n {
		t.Fatalf("records = %d, want %d", info.Records, n)
	}
	if got := reg.Snapshot().Counters["fleet.sessions.expired"]; got != 0 {
		t.Fatalf("finalizing session was counted expired (%d)", got)
	}
}

// TestFleetResumeAfterCollectorRestart is the acceptance-criteria test:
// the collector dies mid-session, a new collector over the same store
// recovers the parked session, and the client resumes from the durable
// count — every record archived exactly once.
func TestFleetResumeAfterCollectorRestart(t *testing.T) {
	bucket := newBucket(t)
	const total = 50

	// First collector: stream half the records, then "crash" (the
	// fleet and its server are simply abandoned; only the bucket
	// survives, like a process kill).
	_, srv1 := newFleetOverBucket(t, bucket, FleetOptions{})
	c1 := rpc.Pipe(srv1)
	recs := sessionRecords(1, total)
	fc1, err := OpenResilient(c1, OpenRequest{RunID: "restarted", Workload: "synthetic"})
	if err != nil {
		t.Fatal(err)
	}
	token := fc1.Token()
	if token == "" {
		t.Fatal("open response carried no resume token")
	}
	const firstHalf = 23
	if err := fc1.AppendBatch(recs[:firstHalf]); err != nil {
		t.Fatal(err)
	}
	c1.Close()
	srv1.Close()

	// Second collector over the same store.
	reg := obs.NewRegistry(64)
	f2, srv2 := newFleetOverBucket(t, bucket, FleetOptions{Obs: reg})
	parked, err := f2.RecoverSessions()
	if err != nil {
		t.Fatal(err)
	}
	if len(parked) != 1 || parked[0] != token {
		t.Fatalf("parked = %v, want [%s]", parked, token)
	}

	c2 := rpc.Pipe(srv2)
	defer c2.Close()
	fc2, accepted, err := ResumeResilient(c2, token)
	if err != nil {
		t.Fatal(err)
	}
	if accepted != firstHalf {
		t.Fatalf("accepted = %d, want %d (every acked record must survive)", accepted, firstHalf)
	}
	// The client restreams exactly the unacked tail.
	if err := fc2.AppendBatch(recs[accepted:]); err != nil {
		t.Fatal(err)
	}
	info, err := fc2.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if info.Records != total {
		t.Fatalf("archived %d records, want %d (no loss, no duplicates)", info.Records, total)
	}

	// Zero-loss ledger on the new collector: everything that came in
	// after the restart was archived, plus exactly one resume.
	snap := reg.Snapshot()
	if in, arch := snap.Counters["fleet.records.in"], snap.Counters["fleet.records.archived"]; in != arch {
		t.Fatalf("records.in = %d != records.archived = %d", in, arch)
	}
	if got := snap.Counters["fleet.sessions.resumed"]; got != 1 {
		t.Fatalf("sessions.resumed = %d", got)
	}

	// The run's record stream has no duplicates: steps are the original
	// sequence exactly once.
	r2 := f2.repo
	_, a, err := r2.Get("restarted")
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := a.Records()
	if err != nil {
		t.Fatal(err)
	}
	if len(decoded) != total {
		t.Fatalf("decoded %d records, want %d", len(decoded), total)
	}
	for i, rec := range decoded {
		if rec.Seq != int64(i) {
			t.Fatalf("record %d has seq %d: stream reordered or duplicated", i, rec.Seq)
		}
	}

	// Durable session state was retired with the run.
	if names := bucket.List("sessions/"); len(names) != 0 {
		t.Fatalf("session state left behind: %v", names)
	}
}

// TestResumeResilientAcrossCollectorRestart: an agent that itself
// restarted holds nothing but the token it persisted. ResumeResilient
// reports the server's durable count, the agent restreams from there,
// and every record is archived exactly once. The client keeps only the
// records not yet acknowledged: a collector that comes back holding
// fewer records than it acknowledged is an error (the client no longer
// holds them and cannot resend them), and the refusal leaves the client
// able to finish once the log is whole again.
func TestResumeResilientAcrossCollectorRestart(t *testing.T) {
	bucket := newBucket(t)
	recs := sessionRecords(6, 20)
	agent := &swapCaller{}
	agent.restart(t, bucket)
	fc1, err := OpenResilient(agent, OpenRequest{RunID: "resumed", Workload: "synthetic"})
	if err != nil {
		t.Fatal(err)
	}
	// Two log frames, so the rewind below has a frame boundary to cut at.
	if err := fc1.AppendBatch(recs[:5]); err != nil {
		t.Fatal(err)
	}
	if err := fc1.AppendBatch(recs[5:11]); err != nil {
		t.Fatal(err)
	}
	token := fc1.Token()

	agent.restart(t, bucket) // and the agent restarts too: fc1 is gone
	fc2, accepted, err := ResumeResilient(agent, token)
	if err != nil {
		t.Fatal(err)
	}
	if accepted != 11 {
		t.Fatalf("resume reports %d durable records, want the 11 acked", accepted)
	}
	if err := fc2.AppendBatch(recs[accepted:]); err != nil {
		t.Fatal(err)
	}

	// The collector restarts with a log that lost everything after its
	// first frame: 5 records, below the 20 it acknowledged.
	logObj := sessionLogObject(token)
	whole, err := bucket.Get(logObj)
	if err != nil {
		t.Fatal(err)
	}
	firstFrame := frameOverhead + int(binary.LittleEndian.Uint32(whole.Data[:4]))
	if _, err := bucket.Put(logObj, whole.Data[:firstFrame]); err != nil {
		t.Fatal(err)
	}
	agent.restart(t, bucket)
	if _, err := fc2.Finalize(); err == nil || !strings.Contains(err.Error(), "fewer than the 20") {
		t.Fatalf("finalize over a log rewound below the resumed base: err = %v, want the rewind refused", err)
	}

	// The log is whole again: the same client resumes and finishes.
	if _, err := bucket.Put(logObj, whole.Data); err != nil {
		t.Fatal(err)
	}
	agent.restart(t, bucket)
	info, err := fc2.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if info.Records != int64(len(recs)) {
		t.Fatalf("archived %d records, want %d (no loss, no duplicates)", info.Records, len(recs))
	}
	_, a, err := New(bucket).Get("resumed")
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := a.Records()
	if err != nil {
		t.Fatal(err)
	}
	for i, rec := range decoded {
		if rec.Seq != int64(i) {
			t.Fatalf("record %d has seq %d: stream reordered or duplicated", i, rec.Seq)
		}
	}
}

// TestFleetAbortAfterCollectorRestart: an abort that reaches a
// restarted collector finds the session only as parked durable state.
// The client must resume by token and then abort, the way Finalize
// does, or sessions/<token>/{meta,log} stay parked forever.
func TestFleetAbortAfterCollectorRestart(t *testing.T) {
	bucket := newBucket(t)
	agent := &swapCaller{}
	agent.restart(t, bucket)
	fc, err := OpenResilient(agent, OpenRequest{RunID: "dropped", Workload: "synthetic"})
	if err != nil {
		t.Fatal(err)
	}
	if err := fc.AppendBatch(sessionRecords(7, 6)); err != nil {
		t.Fatal(err)
	}
	agent.restart(t, bucket)
	if err := fc.Abort(); err != nil {
		t.Fatalf("abort across a collector restart: %v", err)
	}
	if names := bucket.List("sessions/"); len(names) != 0 {
		t.Fatalf("aborted session left parked: %v", names)
	}
	if runs, err := New(bucket).List(Filter{}); err != nil || len(runs) != 0 {
		t.Fatalf("aborted session was archived: %v, %v", runs, err)
	}
}

// TestFleetResumeEvictsLiveSession: a client reconnecting to a living
// collector (network flap, not a crash) takes over its own session;
// the stale session's memory is discarded in favor of the log.
func TestFleetResumeEvictsLiveSession(t *testing.T) {
	f, srv, _ := newFleetUnderTest(t, FleetOptions{})
	c := rpc.Pipe(srv)
	defer c.Close()
	recs := sessionRecords(2, 30)
	fc, err := OpenResilient(c, OpenRequest{RunID: "flap", Workload: "synthetic"})
	if err != nil {
		t.Fatal(err)
	}
	if err := fc.AppendBatch(recs[:10]); err != nil {
		t.Fatal(err)
	}

	fc2, accepted, err := ResumeResilient(c, fc.Token())
	if err != nil {
		t.Fatal(err)
	}
	if accepted != 10 {
		t.Fatalf("accepted = %d, want 10", accepted)
	}
	if f.ActiveSessions() != 1 {
		t.Fatalf("active = %d, want 1 (stale session must be evicted)", f.ActiveSessions())
	}
	// The old handle is dead; the new one carries the session forward.
	// (Sent raw: the old client itself would resume by token and take
	// the session back.)
	if err := callAppendBatch(c, fc.id, trace.AppendFramedRecord(nil, recs[10])); !IsUnknownSession(err) {
		t.Fatalf("stale session handle: err = %v, want unknown session", err)
	}
	if err := fc2.AppendBatch(recs[10:]); err != nil {
		t.Fatal(err)
	}
	info, err := fc2.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if info.Records != 30 {
		t.Fatalf("records = %d, want 30", info.Records)
	}
}

// TestFleetResumeTrimsTornLogTail: a power cut mid-append leaves a
// torn frame at the log's tail; resume trims it and reports only the
// intact (acked) records, and the trimmed log accepts further appends.
// On the DirStore the torn bytes are a real short tail on the log file,
// and the appends after the trim extend the rewritten file in place.
func TestFleetResumeTrimsTornLogTail(t *testing.T) {
	for _, st := range testStores {
		t.Run(st.name, func(t *testing.T) { testFleetResumeTrimsTornLogTail(t, st.open(t)) })
	}
}

func testFleetResumeTrimsTornLogTail(t *testing.T, bucket Store) {
	_, srv1 := newFleetOverBucket(t, bucket, FleetOptions{})
	c1 := rpc.Pipe(srv1)
	recs := sessionRecords(3, 24)
	fc1, err := OpenResilient(c1, OpenRequest{RunID: "torn", Workload: "synthetic"})
	if err != nil {
		t.Fatal(err)
	}
	if err := fc1.AppendBatch(recs[:12]); err != nil {
		t.Fatal(err)
	}
	c1.Close()
	srv1.Close()

	// The crash tore the final durable append: half a frame landed.
	logObj := sessionLogObject(fc1.Token())
	if _, err := bucket.Append(logObj, []byte{0x99, 0x00, 0x00, 0x00, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	intact, err := bucket.Get(logObj)
	if err != nil {
		t.Fatal(err)
	}

	f2, srv2 := newFleetOverBucket(t, bucket, FleetOptions{})
	c2 := rpc.Pipe(srv2)
	defer c2.Close()
	fc2, accepted, err := ResumeResilient(c2, fc1.Token())
	if err != nil {
		t.Fatal(err)
	}
	if accepted != 12 {
		t.Fatalf("accepted = %d, want 12 (torn frame is unacked, intact frames are acked)", accepted)
	}
	trimmed, err := bucket.Get(logObj)
	if err != nil {
		t.Fatal(err)
	}
	if len(trimmed.Data) >= len(intact.Data) {
		t.Fatal("torn tail not trimmed from the durable log")
	}
	if err := fc2.AppendBatch(recs[12:]); err != nil {
		t.Fatal(err)
	}
	info, err := fc2.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if info.Records != 24 {
		t.Fatalf("records = %d, want 24", info.Records)
	}
	_, a, err := f2.repo.Get("torn")
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := a.Records()
	if err != nil {
		t.Fatal(err)
	}
	for i, rec := range decoded {
		if rec.Seq != recs[i].Seq {
			t.Fatalf("record %d has seq %d, want %d: the trim lost or reordered acked records", i, rec.Seq, recs[i].Seq)
		}
	}
}

// TestFleetRetiredSessionsLeaveNoDirectories: retiring a session
// deletes sessions/<token>/{meta,log}; on the DirStore that must take
// the token's directory (and its sidecar twin) with it, or every later
// List walks one dead directory per session ever collected.
func TestFleetRetiredSessionsLeaveNoDirectories(t *testing.T) {
	root := t.TempDir()
	store, err := storage.OpenDir(root)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	_, srv := newFleetOverBucket(t, store, FleetOptions{})
	c := rpc.Pipe(srv)
	defer c.Close()
	for i := 0; i < 100; i++ {
		fc, err := OpenResilient(c, OpenRequest{RunID: fmt.Sprintf("retired-%03d", i), Workload: "synthetic"})
		if err != nil {
			t.Fatal(err)
		}
		if err := fc.AppendBatch(sessionRecords(i, 2)); err != nil {
			t.Fatal(err)
		}
		if _, err := fc.Finalize(); err != nil {
			t.Fatal(err)
		}
	}
	if names := store.List("sessions/"); len(names) != 0 {
		t.Fatalf("retired sessions still listed: %v", names)
	}
	for _, dir := range []string{"sessions", ".dirstore/gen/sessions"} {
		left, err := os.ReadDir(filepath.Join(root, filepath.FromSlash(dir)))
		if err != nil && !errors.Is(err, os.ErrNotExist) {
			t.Fatal(err)
		}
		if len(left) != 0 {
			t.Fatalf("%d directories leaked under %s (first: %s)", len(left), dir, left[0].Name())
		}
	}
}

// TestFleetRecoverSessionsRetiresFinalized: durable state whose run
// already reached the manifest (crash between Save and retirement) is
// cleaned up at collector start, not offered for resume.
func TestFleetRecoverSessionsRetiresFinalized(t *testing.T) {
	bucket := newBucket(t)
	f1, srv1 := newFleetOverBucket(t, bucket, FleetOptions{})
	c1 := rpc.Pipe(srv1)
	fc, err := OpenResilient(c1, OpenRequest{RunID: "done", Workload: "synthetic"})
	if err != nil {
		t.Fatal(err)
	}
	if err := fc.AppendBatch(sessionRecords(4, 16)); err != nil {
		t.Fatal(err)
	}
	token := fc.Token()
	if _, err := fc.Finalize(); err != nil {
		t.Fatal(err)
	}
	c1.Close()

	// Re-create the crash window: the run is saved but retirement was
	// lost. (Finalize already retired, so put the meta back.)
	metaObj := sessionMetaObject(token)
	if bucket.Exists(metaObj) {
		t.Fatal("finalize left durable meta behind")
	}
	info, err := f1.repo.Info("done")
	if err != nil {
		t.Fatal(err)
	}
	mrec := sessionMetaRecord{Token: token}
	mrec.Meta.RunID = "done"
	mrec.Meta.CreatedSeq = info.CreatedSeq
	putSessionMeta(t, bucket, mrec)

	f2, _ := newFleetOverBucket(t, bucket, FleetOptions{})
	parked, err := f2.RecoverSessions()
	if err != nil {
		t.Fatal(err)
	}
	if len(parked) != 0 {
		t.Fatalf("parked = %v, want none", parked)
	}
	if names := bucket.List("sessions/"); len(names) != 0 {
		t.Fatalf("finalized session state not retired: %v", names)
	}
}

// TestFleetDurableAppendFailurePoisonsSession: when the durable log
// can't take an append, the record is NOT acked and the live session
// is killed — resuming from the log yields exactly the acked records.
func TestFleetDurableAppendFailurePoisonsSession(t *testing.T) {
	bucket := newBucket(t)
	hs := &hookStore{Store: bucket}
	r, _, err := Open(hs)
	if err != nil {
		t.Fatal(err)
	}
	f := NewFleet(r, FleetOptions{})
	srv := rpc.NewServer()
	f.Register(srv)
	t.Cleanup(srv.Close)
	c := rpc.Pipe(srv)
	defer c.Close()

	recs := sessionRecords(5, 3)
	fc, err := OpenResilient(c, OpenRequest{RunID: "poisoned", Workload: "synthetic"})
	if err != nil {
		t.Fatal(err)
	}
	if err := fc.Append(recs[0]); err != nil {
		t.Fatal(err)
	}

	// The store loses its durable log writes (disk full, say).
	hs.appendErr = func(name string) error {
		if strings.HasPrefix(name, "sessions/") {
			return errors.New("injected: log append failed")
		}
		return nil
	}
	if err := fc.Append(recs[1]); err == nil {
		t.Fatal("un-durable append was acked")
	}
	if f.ActiveSessions() != 0 {
		t.Fatal("poisoned session still live")
	}
	hs.appendErr = nil

	fc2, accepted, err := ResumeResilient(c, fc.Token())
	if err != nil {
		t.Fatal(err)
	}
	if accepted != 1 {
		t.Fatalf("accepted = %d, want 1 (only the acked record is durable)", accepted)
	}
	if err := fc2.AppendBatch(recs[1:]); err != nil {
		t.Fatal(err)
	}
	info, err := fc2.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if info.Records != 3 {
		t.Fatalf("records = %d, want 3", info.Records)
	}
}

// TestSessionTokenUniqueAcrossReuse: the token embeds the durable
// creation sequence, so reusing a run ID never collides.
func TestSessionTokenUniqueAcrossReuse(t *testing.T) {
	a := sessionToken("job/alpha", 7)
	b := sessionToken("job/alpha", 12)
	if a == b {
		t.Fatalf("tokens collide: %s", a)
	}
	for _, tok := range []string{a, b} {
		if strings.Contains(tok, "/") {
			t.Fatalf("token %q escapes the sessions/ subtree", tok)
		}
	}
	if sessionToken("x.7", 1) == sessionToken("x", 71) {
		t.Fatal("sanitized tokens collide across id/seq boundary")
	}
}

func putSessionMeta(t *testing.T, bucket *storage.Bucket, mrec sessionMetaRecord) {
	t.Helper()
	payload, err := json.Marshal(mrec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bucket.Put(sessionMetaObject(mrec.Token), payload); err != nil {
		t.Fatal(err)
	}
}

// TestStaleSessionIDAfterCollectorRestart: append, finalize and abort
// carry only the session id, and a restarted collector hands out ids
// afresh. Client A's id from the old process must not name the session
// client B resumed on the new one — A has to be told "unknown session"
// and resume by token, or its records land in B's run.
func TestStaleSessionIDAfterCollectorRestart(t *testing.T) {
	bucket := newBucket(t)
	_, srv1 := newFleetOverBucket(t, bucket, FleetOptions{})
	agentA, agentB := &swapCaller{rpc.Pipe(srv1)}, &swapCaller{rpc.Pipe(srv1)}
	recsA, recsB := sessionRecords(0, 12), sessionRecords(1, 12) // ops "Op0" and "Op1"

	a, err := OpenResilient(agentA, OpenRequest{RunID: "run-a", Workload: "synthetic"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := OpenResilient(agentB, OpenRequest{RunID: "run-b", Workload: "synthetic"})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.AppendBatch(recsA[:6]); err != nil {
		t.Fatal(err)
	}
	if err := b.AppendBatch(recsB[:6]); err != nil {
		t.Fatal(err)
	}

	// Collector 1 dies; collector 2 starts over the same store. B
	// reattaches first, so it is the first session the new process issues
	// an id for — as A was in the old one.
	agentA.Close()
	agentB.Close()
	_, srv2 := newFleetOverBucket(t, bucket, FleetOptions{})
	agentA.Caller, agentB.Caller = rpc.Pipe(srv2), rpc.Pipe(srv2)
	b2, accepted, err := ResumeResilient(agentB, b.Token())
	if err != nil {
		t.Fatal(err)
	}
	if accepted != 6 {
		t.Fatalf("B resumed at %d durable records, want 6", accepted)
	}
	// A still holds its handle from collector 1.
	if err := a.AppendBatch(recsA[6:]); err != nil {
		t.Fatal(err)
	}
	if a.Resumes() != 1 {
		t.Fatalf("A resumed %d times, want 1: its stale id was not refused", a.Resumes())
	}
	if err := b2.AppendBatch(recsB[6:]); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Finalize(); err != nil {
		t.Fatal(err)
	}
	if _, err := b2.Finalize(); err != nil {
		t.Fatal(err)
	}

	for _, run := range []struct {
		id, op string
		want   int
	}{{"run-a", "Op0", len(recsA)}, {"run-b", "Op1", len(recsB)}} {
		_, ar, err := New(bucket).Get(run.id)
		if err != nil {
			t.Fatal(err)
		}
		decoded, err := ar.Records()
		if err != nil {
			t.Fatal(err)
		}
		if len(decoded) != run.want {
			t.Fatalf("%s holds %d records, want %d", run.id, len(decoded), run.want)
		}
		for i, rec := range decoded {
			if rec.Seq != int64(i) {
				t.Fatalf("%s record %d has seq %d: lost, duplicated or reordered", run.id, i, rec.Seq)
			}
			if _, ok := rec.Steps[0].Op(trace.OpKey{Name: run.op, Device: trace.TPU}); !ok {
				t.Fatalf("%s record %d is another session's (no %s)", run.id, i, run.op)
			}
		}
	}
}

// resumeWindows is the session the decode-count guards stream: profile
// windows of 40 steps x 6 operators, decoded and in wire form.
func resumeWindows(windows int) (recs []*trace.ProfileRecord, wire [][]byte) {
	var ts simclock.Time
	for w := 0; w < windows; w++ {
		var events []trace.Event
		for s := 0; s < 40; s++ {
			for i, op := range []string{"InfeedDequeue", "Preprocess", "fusion", "Conv2D", "MatMul", "CrossReplicaSum"} {
				events = append(events, trace.Event{Name: op, Device: trace.Device(i / 2 % 2), Start: ts, Dur: 10, Step: int64(40*w + s)})
				ts = ts.Add(10)
			}
		}
		rec := trace.Reduce(int64(w), events[0].Start, events, 0.2, 0.4)
		recs, wire = append(recs, rec), append(wire, trace.MarshalRecord(rec))
	}
	return recs, wire
}

// decodeAll decodes a session's wire records once.
func decodeAll(t *testing.T, wire [][]byte) []*trace.ProfileRecord {
	recs := make([]*trace.ProfileRecord, len(wire))
	for i, b := range wire {
		var err error
		if recs[i], err = trace.UnmarshalRecord(b); err != nil {
			t.Fatal(err)
		}
	}
	return recs
}

// TestResumeDecodesEachLoggedRecordOnce: rebuilding a session from its
// log decodes every record to validate it, and the archive writer's
// counts and the streaming analyzer read that one decode. Allocation
// counts repeat exactly, so they can tell: what handleResume allocates
// beyond archiving the records and feeding them to a stream must stay
// under 1.3x what decoding them once allocates (it was about 2x when
// AddRaw decoded and the replay loop decoded again).
func TestResumeDecodesEachLoggedRecordOnce(t *testing.T) {
	recs, wire := resumeWindows(100)
	bucket := newBucket(t)
	f, srv := newFleetOverBucket(t, bucket, FleetOptions{})
	c, err := OpenResilient(rpc.Pipe(srv), OpenRequest{RunID: "replayed", Workload: "synthetic"})
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(recs); off += 10 {
		if err := c.AppendBatch(recs[off : off+10]); err != nil {
			t.Fatal(err)
		}
	}
	body, err := json.Marshal(ResumeRequest{Token: c.Token()})
	if err != nil {
		t.Fatal(err)
	}

	const runs = 5
	decodeOnce := testing.AllocsPerRun(runs, func() { decodeAll(t, wire) })
	decoded := decodeAll(t, wire)
	archiveFeed := testing.AllocsPerRun(runs, func() {
		w := archive.NewWriter(archive.Meta{RunID: "replayed", Workload: "synthetic"})
		stream := f.newSessionStream(archive.Meta{RunID: "replayed", Workload: "synthetic"})
		for i, rec := range decoded {
			w.AddEncoded(wire[i], rec)
			if err := stream.Feed(rec); err != nil {
				t.Fatal(err)
			}
		}
	})
	resume := testing.AllocsPerRun(runs, func() {
		resp, err := f.handleResume(body)
		if err != nil {
			t.Fatal(err)
		}
		var rr ResumeResponse
		if err := json.Unmarshal(resp, &rr); err != nil || rr.AcceptedRecords != int64(len(recs)) {
			t.Fatalf("resume: %v, %d records, want %d", err, rr.AcceptedRecords, len(recs))
		}
	})
	t.Logf("resume %.0f, archive+feed %.0f, decode once %.0f allocations", resume, archiveFeed, decodeOnce)
	if decodes := (resume - archiveFeed) / decodeOnce; decodes >= 1.3 {
		t.Fatalf("handleResume allocates %.0f, archiving and feeding the same records %.0f, decoding them once %.0f: "+
			"that is %.2f decodes per logged record, want 1", resume, archiveFeed, decodeOnce, decodes)
	}
}

// TestFinalizeDecodesNothing: finalize summarizes the stream the drain
// fed; it must not go back to the records. So what handleFinalize
// allocates — the summary, the archive blob, the save and the retirement
// — hardly grows with the session: finalizing 400 windows may allocate
// less than one more allocation per added window than finalizing 100
// (the footer's per-segment entries), where decoding the log again would
// add one decode, some 4 allocations, per window.
func TestFinalizeDecodesNothing(t *testing.T) {
	small, large := finalizeAllocs(t, 100), finalizeAllocs(t, 400)
	t.Logf("finalize allocates %.0f at 100 windows, %.0f at 400", small, large)
	if large-small >= 300 {
		t.Fatalf("handleFinalize allocates %.0f for 100 windows and %.0f for 400: %.0f more, want under 300 (a decode of 300 windows is some 1 200)",
			small, large, large-small)
	}
}

// finalizeAllocs streams a session of the given number of windows into a
// collector once per run (and once to warm up), lets every drain finish,
// and returns what one handleFinalize allocates.
func finalizeAllocs(t *testing.T, windows int) float64 {
	recs, _ := resumeWindows(windows)
	f, srv := newFleetOverBucket(t, newBucket(t), FleetOptions{})
	const runs = 3
	var bodies [][]byte
	for i := 0; i <= runs; i++ {
		c, err := OpenResilient(rpc.Pipe(srv), OpenRequest{RunID: fmt.Sprintf("run-%d", i), Workload: "synthetic"})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.AppendBatch(recs); err != nil {
			t.Fatal(err)
		}
		body, err := json.Marshal(sessionRequest{SessionID: c.id})
		if err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, body)
	}
	// Let every drain finish: its work must not be counted as finalize's.
	f.mu.Lock()
	sessions := make([]*session, 0, len(f.sessions))
	for _, s := range f.sessions {
		sessions = append(sessions, s)
	}
	f.mu.Unlock()
	for _, s := range sessions {
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
			n := s.archived.Load()
			if n == int64(len(recs)) {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("session %d drained %d of %d records", s.id, n, len(recs))
			}
		}
	}
	return testing.AllocsPerRun(runs, func() {
		resp, err := f.handleFinalize(bodies[0])
		if err != nil {
			t.Fatal(err)
		}
		var info RunInfo
		if err := json.Unmarshal(resp, &info); err != nil || info.Records != int64(len(recs)) {
			t.Fatalf("finalize: %v, %d records, want %d", err, info.Records, len(recs))
		}
		bodies = bodies[1:]
	})
}

// TestSessionLogCorruptFrameStopsRead: a CRC-failing frame truncates the
// readable history at that point instead of erroring out.
func TestSessionLogCorruptFrameStopsRead(t *testing.T) {
	bucket := newTestBucket(t)
	log := sessionLogObject("corrupt")
	for _, payload := range []string{"first", "second"} {
		if err := appendFrame(bucket, log, []byte(payload)); err != nil {
			t.Fatal(err)
		}
	}
	obj, err := bucket.Get(log)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte in the second frame.
	firstLen := frameOverhead + len("first")
	corrupted := append([]byte(nil), obj.Data...)
	corrupted[firstLen+frameOverhead] ^= 0xff
	if _, err := bucket.Put(log, corrupted); err != nil {
		t.Fatal(err)
	}
	frames, intact, torn, err := readFrames(bucket, log, maxSessionLogFrame)
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 1 || string(frames[0]) != "first" {
		t.Fatalf("frames = %q, want just the intact first frame", frames)
	}
	if intact != firstLen || torn != len(corrupted)-firstLen {
		t.Fatalf("intact, torn = %d, %d; want %d, %d", intact, torn, firstLen, len(corrupted)-firstLen)
	}
}

// TestSessionLogFrameCRC: a stored frame's header carries its payload's
// length and a CRC-32C over exactly that payload.
func TestSessionLogFrameCRC(t *testing.T) {
	bucket := newTestBucket(t)
	log := sessionLogObject("crc")
	if err := appendFrame(bucket, log, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	obj, err := bucket.Get(log)
	if err != nil {
		t.Fatal(err)
	}
	n := int(binary.LittleEndian.Uint32(obj.Data[:4]))
	want := binary.LittleEndian.Uint32(obj.Data[4:8])
	if n != len("payload") || len(obj.Data) != frameOverhead+n {
		t.Fatalf("frame of %d bytes declares a %d-byte payload", len(obj.Data), n)
	}
	if crc32.Checksum(obj.Data[frameOverhead:], frameTable) != want {
		t.Fatal("stored frame CRC does not cover the payload")
	}
}
