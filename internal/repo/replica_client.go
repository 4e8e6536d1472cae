// ResilientClient: the agent-side half of exactly-once ingest across
// replica failover.
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

// appendBatchRaw sends one AppendBatch round trip of pre-framed
// records and returns the server's durable-prefix acceptance count —
// the primitive both batch senders loop over (FleetClient.PutBatch, and
// ResilientClient.sendTail, whose watermark must survive session
// replacement).
func (fc *FleetClient) appendBatchRaw(framed []byte) (int, error) {
	if len(framed) == 0 {
		return 0, nil
	}
	body := make([]byte, 8+len(framed))
	binary.LittleEndian.PutUint64(body[:8], fc.id)
	copy(body[8:], framed)
	out, err := fc.c.Call(MethodFleetAppendBatch, body)
	if err != nil {
		return 0, err
	}
	var resp AppendBatchResponse
	if err := json.Unmarshal(out, &resp); err != nil {
		return 0, fmt.Errorf("fleet: bad append-batch response: %w", err)
	}
	if resp.Accepted < 0 {
		return 0, nil
	}
	return resp.Accepted, nil
}

// ResilientClient wraps a FleetClient with send-buffer retention and
// automatic resume-on-unknown-session. Use one per run, from one
// goroutine (matching FleetClient). The rpc.Caller should be an
// endpoint-set ReconnectClient so transports failures and placement
// redirects are already absorbed below this layer; this layer handles
// the one failure class that survives reconnection — the server
// forgetting the in-memory session.
type ResilientClient struct {
	c  rpc.Caller
	fc *FleetClient

	// sent is every record framed in accepted order; acked counts how
	// many of them the server has durably acknowledged.
	sent  [][]byte
	acked int
	// resumes counts recoveries, for tests and diagnostics.
	resumes int
}

// OpenResilient opens a session and returns a client that survives
// collector crashes and failovers.
func OpenResilient(c rpc.Caller, req OpenRequest) (*ResilientClient, error) {
	fc, err := OpenSession(c, req)
	if err != nil {
		return nil, err
	}
	return &ResilientClient{c: c, fc: fc}, nil
}

// Token returns the durable resume token.
func (rc *ResilientClient) Token() string { return rc.fc.Token() }

// Resumes reports how many times the client recovered a lost session.
func (rc *ResilientClient) Resumes() int { return rc.resumes }

// Append streams one record, recovering the session if the collector
// lost it.
func (rc *ResilientClient) Append(rec *trace.ProfileRecord) error {
	rc.sent = append(rc.sent, trace.AppendFramedRecord(nil, rec))
	return rc.flush()
}

// Put accepts one record's wire bytes — profiler.RecordStore, so a
// profiler can stream straight into a resilient session the way it
// does into a FleetClient. The name is advisory (the session orders
// records); data is retained for failover resend.
func (rc *ResilientClient) Put(name string, data []byte) (*storage.Object, error) {
	rc.sent = append(rc.sent, frameOne(data))
	if err := rc.flush(); err != nil {
		return nil, err
	}
	return &storage.Object{Name: name}, nil
}

// PutBatch accepts a framed record stream — profiler.BatchStore. The
// stream is split back into per-record frames because the resend
// watermark counts records, not batches: a failover mid-batch resends
// exactly the unacknowledged tail.
func (rc *ResilientClient) PutBatch(name string, framed []byte, count int) (*storage.Object, error) {
	payloads, err := trace.SplitFramed(framed)
	if err != nil {
		return nil, err
	}
	if count >= 0 && len(payloads) != count {
		return nil, fmt.Errorf("fleet: batch holds %d records, caller claims %d", len(payloads), count)
	}
	for _, p := range payloads {
		rc.sent = append(rc.sent, frameOne(p))
	}
	if err := rc.flush(); err != nil {
		return nil, err
	}
	return &storage.Object{Name: name}, nil
}

// AppendBatch streams records, recovering the session if needed.
func (rc *ResilientClient) AppendBatch(recs []*trace.ProfileRecord) error {
	for _, r := range recs {
		rc.sent = append(rc.sent, trace.AppendFramedRecord(nil, r))
	}
	return rc.flush()
}

// flush pushes the unacked tail, resuming on unknown-session. One
// resume per flush attempt: a second unknown-session right after a
// successful Resume means the fleet is flapping faster than we can
// reattach — surface it.
func (rc *ResilientClient) flush() error {
	err := rc.sendTail()
	if err == nil {
		return nil
	}
	if !IsUnknownSession(err) {
		return err
	}
	if rerr := rc.resume(); rerr != nil {
		return fmt.Errorf("session lost and resume failed: %w", rerr)
	}
	return rc.sendTail()
}

// sendTail transmits sent[acked:] in one batch frame, advancing acked
// by the server's durable-prefix acknowledgements.
func (rc *ResilientClient) sendTail() error {
	for rc.acked < len(rc.sent) {
		var framed []byte
		for _, raw := range rc.sent[rc.acked:] {
			framed = append(framed, raw...)
		}
		n, err := rc.fc.appendBatchRaw(framed)
		rc.acked += n
		if err != nil {
			return err
		}
		if n == 0 {
			return fmt.Errorf("fleet: append-batch accepted 0 of %d records", len(rc.sent)-rc.acked)
		}
	}
	return nil
}

// resume reattaches via the durable token. The server's accepted
// count REWINDS our ack watermark when the crash ate acked-in-memory-
// only records (it cannot: logAccepted precedes every ack — but the
// watermark trusts the server regardless, which also makes the client
// correct against a server that loses its tail to a torn log trim).
func (rc *ResilientClient) resume() error {
	fc, accepted, err := ResumeSession(rc.c, rc.fc.Token())
	if err != nil {
		return err
	}
	if accepted > int64(len(rc.sent)) {
		return fmt.Errorf("fleet: server has %d records durable, client only sent %d", accepted, len(rc.sent))
	}
	rc.fc = fc
	rc.acked = int(accepted)
	rc.resumes++
	return nil
}

// Finalize archives the run, recovering the session if needed. Any
// unacked tail is flushed first, so the archive always holds every
// record the caller appended.
func (rc *ResilientClient) Finalize() (RunInfo, error) {
	if err := rc.flush(); err != nil {
		return RunInfo{}, err
	}
	info, err := rc.fc.Finalize()
	if err == nil || !IsUnknownSession(err) {
		return info, err
	}
	// The collector lost the session between our last append and this
	// finalize. Resume replays the durable log (everything is already
	// acked) and the retry finalizes the recovered session.
	if rerr := rc.resume(); rerr != nil {
		return RunInfo{}, fmt.Errorf("session lost and resume failed: %w", rerr)
	}
	if err := rc.flush(); err != nil {
		return RunInfo{}, err
	}
	return rc.fc.Finalize()
}

// Abort discards the session server-side; the retained buffer is
// dropped client-side.
func (rc *ResilientClient) Abort() error {
	rc.sent, rc.acked = nil, 0
	return rc.fc.Abort()
}
