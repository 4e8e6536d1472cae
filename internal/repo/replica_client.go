// ResilientClient: the one session client, and the agent-side half of
// exactly-once ingest across replica failover.
//
// The server half already exists: every accepted record is durable in
// the session log BEFORE the ack (logAccepted), AppendBatch acks a
// durable prefix count, and fleet.Resume replays the log and answers
// with exactly how many records are durable. What the agent must add
// is memory: it retains every record it has sent, and when a call
// lands on a replica that does not know the session — because the
// owner crashed and restarted, or failover re-aimed the endpoint-set
// client at a survivor that redirects Resume to the restarted owner —
// it resumes with the durable token, reads the server's accepted count
// k, and resends records[k:]. Records [0,k) are never resent (no
// duplicates); records [k,n) are all resent (no loss): exactly once,
// with the server's durable count as the single source of truth.
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

	// base is how many records the server already held when this client
	// attached by token (ResumeResilient; 0 after OpenResilient). sent is
	// every record framed since, in accepted order — sent[i] is the
	// session's record base+i — and acked counts how many of them the
	// server has durably acknowledged.
	base  int
	sent  [][]byte
	acked int
	// lastPut names the last Put object retained in sent.
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
// records from that index; the client's watermark starts there, so a
// later resume that finds fewer is an error — the records below it are
// not retained here to resend.
func ResumeResilient(c rpc.Caller, token string) (*ResilientClient, int64, error) {
	var resp ResumeResponse
	if err := callJSON(c, MethodFleetResume, ResumeRequest{Token: token}, &resp); err != nil {
		return nil, 0, err
	}
	rc := &ResilientClient{c: c, id: resp.SessionID, token: token, base: int(resp.AcceptedRecords)}
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
	rc.sent = append(rc.sent, trace.AppendFramedRecord(nil, rec))
	return rc.flush()
}

// Put accepts one record's wire bytes — profiler.RecordStore. The name
// is the profiler's local object name and is not persisted (the session
// orders records by arrival); data is retained for failover resend.
func (rc *ResilientClient) Put(name string, data []byte) (*storage.Object, error) {
	if !rc.retried(name) {
		rc.sent = append(rc.sent, frameOne(data))
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
// break resume when it was the ack that got lost. An empty name
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
		rc.sent = append(rc.sent, trace.AppendFramedRecord(nil, r))
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

// sendTail transmits sent[acked:] in one AppendBatch frame per round
// trip (u64le session id, then the framed records), advancing acked by
// the server's durable-prefix acknowledgements: under backpressure the
// server accepts a prefix and only the rest is resent, so records are
// never duplicated.
func (rc *ResilientClient) sendTail() error {
	for rc.acked < len(rc.sent) {
		size := 8
		for _, raw := range rc.sent[rc.acked:] {
			size += len(raw)
		}
		body := binary.LittleEndian.AppendUint64(make([]byte, 0, size), rc.id)
		for _, raw := range rc.sent[rc.acked:] {
			body = append(body, raw...)
		}
		out, err := rc.c.Call(MethodFleetAppendBatch, body)
		if err != nil {
			return err
		}
		var resp AppendBatchResponse
		if err := json.Unmarshal(out, &resp); err != nil {
			return fmt.Errorf("fleet: bad append-batch response: %w", err)
		}
		if resp.Accepted <= 0 {
			return fmt.Errorf("fleet: append-batch accepted 0 of %d records", len(rc.sent)-rc.acked)
		}
		rc.acked += resp.Accepted
	}
	return nil
}

// resume reattaches via the durable token. The server's accepted
// count REWINDS our ack watermark when the crash ate acked-in-memory-
// only records (it cannot: logAccepted precedes every ack — but the
// watermark trusts the server regardless, which also makes the client
// correct against a server that loses its tail to a torn log trim).
func (rc *ResilientClient) resume() error {
	var resp ResumeResponse
	if err := callJSON(rc.c, MethodFleetResume, ResumeRequest{Token: rc.token}, &resp); err != nil {
		return err
	}
	held := int(resp.AcceptedRecords) - rc.base
	if held < 0 {
		return fmt.Errorf("fleet: server has %d records durable, fewer than the %d this client resumed at",
			resp.AcceptedRecords, rc.base)
	}
	if held > len(rc.sent) {
		return fmt.Errorf("fleet: server has %d records durable, client only sent %d",
			resp.AcceptedRecords, rc.base+len(rc.sent))
	}
	rc.id, rc.acked = resp.SessionID, held
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
	rc.sent, rc.acked = nil, 0
	return err
}
