// ResilientClient: the one session client, and the agent-side half of
// exactly-once ingest across replica failover.
//
// The server half already exists: every accepted record is durable in
// the session log BEFORE the ack (logAccepted), and fleet.Resume replays
// the log and answers with exactly how many records are durable. Client
// and server share one number, a record's session index: every
// AppendBatch names the index of its first record and the server skips
// the records it already holds. What the agent must add is memory: it
// retains every record not yet acknowledged, and resends them — after a
// lost answer to the same session, or, when a call lands on a replica
// that does not know the session (the owner crashed and restarted, or
// failover re-aimed the endpoint-set client at a survivor that
// redirects Resume to the restarted owner), after resuming with the
// durable token. Records the server holds are never logged twice (no
// duplicates); the rest are all resent (no loss): exactly once, with
// the server's durable count as the single source of truth.
package repo

import (
	"encoding/binary"
	"encoding/json"
	"fmt"

	"repro/internal/rpc"
	"repro/internal/storage"
	"repro/internal/trace"
)

// ResilientClient is the profiler-side handle on one collection
// session, with send-buffer retention and automatic
// resume-on-unknown-session. It implements profiler.RecordStore, so a
// profiler streams into the fleet endpoint by setting it as its Bucket.
// Use one per run, from one goroutine. The rpc.Caller should be an
// endpoint-set ReconnectClient so transport failures and placement
// redirects are already absorbed below this layer (a single endpoint is
// the degenerate set); this layer handles the one failure class that
// survives reconnection — the server forgetting the in-memory session.
type ResilientClient struct {
	c     rpc.Caller
	id    uint64 // the server's in-memory handle; replaced by every resume
	token string // the durable identity resume presents

	// next is the session index of pending[0]: every record below it
	// is durable on the server. pending holds the framed records not yet
	// acknowledged, in session order.
	next    int
	pending [][]byte
	// lastPut names the last Put object retained in pending.
	lastPut string
	// resumes counts recoveries, for tests and diagnostics.
	resumes int
}

// OpenResilient opens a session and returns a client that survives
// collector crashes and failovers.
func OpenResilient(c rpc.Caller, req OpenRequest) (*ResilientClient, error) {
	var resp OpenResponse
	if err := callJSON(c, MethodFleetOpen, req, &resp); err != nil {
		return nil, err
	}
	return &ResilientClient{c: c, id: resp.SessionID, token: resp.Token}, nil
}

// callJSON is one control round trip: req marshalled as the body, the
// answer decoded into resp (nil when the verb answers nothing).
func callJSON(c rpc.Caller, method string, req, resp any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	out, err := c.Call(method, body)
	if err != nil || resp == nil {
		return err
	}
	if err := json.Unmarshal(out, resp); err != nil {
		return fmt.Errorf("%s: bad response: %w", method, err)
	}
	return nil
}

// ResumeResilient reattaches an agent that itself restarted, with
// nothing but the token it persisted: it returns the client and how
// many records the server holds durably. The caller restreams its
// records from that index; the client's next index starts there, so a
// later resume that finds fewer is an error — the records below it are
// not retained here to resend.
func ResumeResilient(c rpc.Caller, token string) (*ResilientClient, int64, error) {
	var resp ResumeResponse
	if err := callJSON(c, MethodFleetResume, ResumeRequest{Token: token}, &resp); err != nil {
		return nil, 0, err
	}
	rc := &ResilientClient{c: c, id: resp.SessionID, token: token, next: int(resp.AcceptedRecords)}
	return rc, resp.AcceptedRecords, nil
}

// Token returns the durable resume token. An agent that wants to
// survive its own restart persists it and hands it to ResumeResilient.
func (rc *ResilientClient) Token() string { return rc.token }

// Resumes reports how many times the client recovered a lost session.
func (rc *ResilientClient) Resumes() int { return rc.resumes }

// Append streams one record, recovering the session if the collector
// lost it.
func (rc *ResilientClient) Append(rec *trace.ProfileRecord) error {
	rc.pending = append(rc.pending, trace.AppendFramedRecord(nil, rec))
	return rc.flush()
}

// Put accepts one record's wire bytes — profiler.RecordStore. The name
// is the profiler's local object name and is not persisted (the session
// orders records by arrival); data is retained until acknowledged.
func (rc *ResilientClient) Put(name string, data []byte) (*storage.Object, error) {
	if !rc.retried(name) {
		rc.pending = append(rc.pending, frameOne(data))
	}
	if err := rc.flush(); err != nil {
		return nil, err
	}
	return &storage.Object{Name: name}, nil
}

// retried reports whether name is the object the previous Put retained,
// and notes it otherwise. The profiler retries a failed write under the
// same name, and such a retry only flushes: retaining its record again
// would archive it twice, while dropping the first copy on failure would
// lose it when the batch never reached the server. An empty name
// identifies nothing and is never a retry.
func (rc *ResilientClient) retried(name string) bool {
	if name != "" && name == rc.lastPut {
		return true
	}
	rc.lastPut = name
	return false
}

// AppendBatch streams records, recovering the session if needed.
func (rc *ResilientClient) AppendBatch(recs []*trace.ProfileRecord) error {
	for _, r := range recs {
		rc.pending = append(rc.pending, trace.AppendFramedRecord(nil, r))
	}
	return rc.flush()
}

// withSession runs call against the live session. On unknown-session it
// resumes by token and runs call once more: a second unknown-session
// right after a successful Resume means the fleet is flapping faster
// than we can reattach — surface it.
func (rc *ResilientClient) withSession(call func() error) error {
	err := call()
	if !IsUnknownSession(err) {
		return err
	}
	if rerr := rc.resume(); rerr != nil {
		return fmt.Errorf("session lost and resume failed: %w", rerr)
	}
	return call()
}

// flush pushes the unacked tail, resuming on unknown-session.
func (rc *ResilientClient) flush() error { return rc.withSession(rc.sendTail) }

// sendTail sends every pending record in one AppendBatch frame (u64le
// session id, u64le session index of the first pending record, then the
// framed records). The server skips the records it already holds, so a
// resend after a lost answer logs nothing twice; its answer means every
// pending record is durable.
func (rc *ResilientClient) sendTail() error {
	if len(rc.pending) == 0 {
		return nil
	}
	size := 16
	for _, raw := range rc.pending {
		size += len(raw)
	}
	body := binary.LittleEndian.AppendUint64(make([]byte, 0, size), rc.id)
	body = binary.LittleEndian.AppendUint64(body, uint64(rc.next))
	for _, raw := range rc.pending {
		body = append(body, raw...)
	}
	if _, err := rc.c.Call(MethodFleetAppendBatch, body); err != nil {
		return err
	}
	rc.next += len(rc.pending)
	clear(rc.pending)
	rc.pending = rc.pending[:0]
	return nil
}

// resume reattaches via the durable token. The server must hold at
// least the next records this client dropped as acknowledged — acked ⇒
// durable — and at most those plus the pending ones; the next send
// names its index, so the server skips what it already holds.
func (rc *ResilientClient) resume() error {
	var resp ResumeResponse
	if err := callJSON(rc.c, MethodFleetResume, ResumeRequest{Token: rc.token}, &resp); err != nil {
		return err
	}
	if resp.AcceptedRecords < int64(rc.next) {
		return fmt.Errorf("fleet: server has %d records durable, fewer than the %d it acknowledged",
			resp.AcceptedRecords, rc.next)
	}
	if resp.AcceptedRecords > int64(rc.next+len(rc.pending)) {
		return fmt.Errorf("fleet: server has %d records durable, client only sent %d",
			resp.AcceptedRecords, rc.next+len(rc.pending))
	}
	rc.id = resp.SessionID
	rc.resumes++
	return nil
}

// Finalize closes the session; the server analyzes, archives, and
// indexes the run, returning its manifest entry. Any unacked tail is
// flushed first — and again after a resume, when the collector lost the
// session between our last append and this call — so the archive always
// holds every record the caller appended.
func (rc *ResilientClient) Finalize() (RunInfo, error) {
	var info RunInfo
	err := rc.withSession(func() error {
		if err := rc.sendTail(); err != nil {
			return err
		}
		return callJSON(rc.c, MethodFleetFinalize, sessionRequest{SessionID: rc.id}, &info)
	})
	return info, err
}

// Abort discards the session without archiving; the retained buffer is
// dropped client-side. A collector that restarted holds the session
// only as parked durable state, so the abort resumes it first: the
// server retires sessions/<token>/ only through a live session.
func (rc *ResilientClient) Abort() error {
	err := rc.withSession(func() error {
		return callJSON(rc.c, MethodFleetAbort, sessionRequest{SessionID: rc.id}, nil)
	})
	rc.pending = nil
	return err
}
