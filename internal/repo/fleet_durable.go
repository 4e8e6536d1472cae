// Durable fleet sessions: the crash-survivable half of the collection
// endpoint. Every accepted record is appended to a per-session durable
// log *before* the client sees its ack, so a collector that dies
// mid-session loses nothing a client was told is safe. The client
// carries an opaque resume token; after the collector restarts it calls
// fleet.Resume with the token, the server rebuilds the session's
// archive writer from the log, and the client continues streaming from
// the durably-accepted record count — no loss, no duplicates. Every
// append names the session index of its first record, so a batch sent
// twice (its answer lost, or a transport retry racing the original) is
// logged once.
//
// Durable layout, next to the run data the sessions become:
//
//	sessions/<token>/meta  JSON {token, archive.Meta}
//	sessions/<token>/log   CRC frames; each frame's payload is a
//	                       uvarint-framed record stream
//
// A frame is u32 payloadLen | u32 crc32c(payload) | payload
// (little-endian), so a torn tail — the power cut landing inside the
// final append — is detected and trimmed on resume. Records inside an
// intact frame were acked; records in a torn frame were not, so
// trimming them never loses an acknowledged record.
//
// Lifecycle: Open writes meta (and implicitly an empty log), every
// accepted append lands one log frame, Finalize and Abort retire both
// objects after the run is saved (or discarded). A collector crash
// between Save and retirement is reconciled by RecoverSessions, which
// retires any session whose run already reached the manifest and
// reports the rest as parked, ready for fleet.Resume.
package repo

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"sort"
	"strings"

	"repro/internal/archive"
	"repro/internal/rpc"
	"repro/internal/storage"
	"repro/internal/trace"
)

// MethodFleetResume is the RPC verb reattaching a client to a durable
// session after a collector restart.
const MethodFleetResume = "fleet.Resume"

// maxSessionLogFrame bounds one durable log frame on read. A frame
// holds at most one append batch, which the rpc layer already caps well
// below this; anything larger is corruption.
const maxSessionLogFrame = 64 << 20

// frameOverhead is the per-frame cost: u32 length + u32 crc32c.
const frameOverhead = 8

var frameTable = crc32.MakeTable(crc32.Castagnoli)

// appendFramed CRC-frames a payload in place and appends the frame to
// object: frame is frameOverhead bytes of room for the header, then the
// payload. The append is a session log's durability point: a frame
// either lands whole or its torn prefix is detected and trimmed by
// readFrames.
func appendFramed(store Store, object string, frame []byte) error {
	payload := frame[frameOverhead:]
	binary.LittleEndian.PutUint32(frame[:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(payload, frameTable))
	_, err := store.Append(object, frame)
	return err
}

// appendFrame is appendFramed for a payload without header room: it
// copies payload into a new frame.
func appendFrame(store Store, object string, payload []byte) error {
	frame := make([]byte, frameOverhead+len(payload))
	copy(frame[frameOverhead:], payload)
	return appendFramed(store, object, frame)
}

// readFrames decodes a CRC-framed object leniently: it stops at the
// first torn or checksum-failing frame and reports both the intact
// prefix length and how many tail bytes it discarded. A missing object
// is an empty history. maxPayload bounds a single frame (anything
// larger is corruption, not data).
func readFrames(store Store, object string, maxPayload int) (frames [][]byte, intact, torn int, err error) {
	obj, err := store.Get(object)
	if errors.Is(err, storage.ErrNotFound) {
		return nil, 0, 0, nil
	}
	if err != nil {
		return nil, 0, 0, err
	}
	data := obj.Data
	pos := 0
	for pos+frameOverhead <= len(data) {
		n := int(binary.LittleEndian.Uint32(data[pos : pos+4]))
		want := binary.LittleEndian.Uint32(data[pos+4 : pos+8])
		if n > maxPayload || pos+frameOverhead+n > len(data) {
			break
		}
		payload := data[pos+frameOverhead : pos+frameOverhead+n]
		if crc32.Checksum(payload, frameTable) != want {
			break
		}
		frames = append(frames, payload)
		pos += frameOverhead + n
	}
	return frames, pos, len(data) - pos, nil
}

// sessionMetaObject and sessionLogObject name a session's durable
// state. The token doubles as the directory name.
func sessionMetaObject(token string) string { return "sessions/" + token + "/meta" }
func sessionLogObject(token string) string  { return "sessions/" + token + "/log" }

// sessionToken derives the durable token for a session: the run ID
// (sanitized so it can't escape the sessions/ subtree) plus the
// creation sequence, which the manifest allocates durably and
// monotonically — two sessions can never share a token, even across
// collector restarts or for the same run ID.
func sessionToken(runID string, createdSeq uint64) string {
	id := strings.NewReplacer("/", "_", "\\", "_", ".", "_").Replace(runID)
	return fmt.Sprintf("%s.%d", id, createdSeq)
}

// sessionMetaRecord is the durable meta document.
type sessionMetaRecord struct {
	Token string       `json:"token"`
	Meta  archive.Meta `json:"meta"`
}

// ResumeRequest reattaches to a durable session by token.
type ResumeRequest struct {
	Token string `json:"token"`
}

// ResumeResponse returns the fresh session handle and how many records
// the durable log already holds — the client restreams from there.
type ResumeResponse struct {
	SessionID uint64 `json:"session_id"`
	Token     string `json:"token"`
	// AcceptedRecords is the durably-accepted record count: everything
	// the pre-crash collector acked survived into the rebuilt session.
	AcceptedRecords int64 `json:"accepted_records"`
}

// writeSessionMeta persists the session's durable identity at open.
func (f *Fleet) writeSessionMeta(s *session) error {
	payload, err := json.Marshal(sessionMetaRecord{Token: s.token, Meta: s.meta})
	if err != nil {
		return err
	}
	if _, err := f.repo.store.Put(sessionMetaObject(s.token), payload); err != nil {
		return fmt.Errorf("fleet: session meta: %w", err)
	}
	return nil
}

// logAccepted durably appends the uvarint-framed stream of records the
// server just accepted, as one CRC frame: frame is that stream behind
// frameOverhead bytes of header room, which appendFramed fills in
// place. This happens after the records entered the in-memory queue but
// before the client's ack, under s.mu: an append the client saw succeed
// is always in the session log.
//
// A failed durable append poisons the live session — it is removed from
// the table and its queue closed, so the client's next call fails and
// it must Resume from the log. The in-memory copy of the un-logged
// records dies with the session; the rebuilt one won't have them, the
// client was never acked, and it resends them. That asymmetry (drop
// memory, trust the log) is what keeps the no-duplicates invariant.
func (f *Fleet) logAccepted(s *session, frame []byte) error {
	if err := appendFramed(f.repo.store, sessionLogObject(s.token), frame); err != nil {
		f.poison(s)
		return fmt.Errorf("fleet: session %d durable log: %w", s.id, err)
	}
	return nil
}

// poison removes a session whose durable log diverged from memory. The
// failed append holds s.mu.
func (f *Fleet) poison(s *session) {
	s.closeLocked()
	f.mu.Lock()
	if f.sessions[s.id] == s {
		delete(f.sessions, s.id)
	}
	f.m.active.Set(int64(len(f.sessions)))
	f.mu.Unlock()
	<-s.done
	f.opts.Obs.Emit("fleet", "session-poisoned",
		fmt.Sprintf("session %d (run %q): durable log append failed; client must resume", s.id, s.meta.RunID))
}

// retireSession deletes a session's durable state once its run is
// saved or aborted. Best-effort: a crash in between leaves the state
// for RecoverSessions to retire.
func (f *Fleet) retireSession(token string) {
	_ = f.repo.store.Delete(sessionLogObject(token))
	_ = f.repo.store.Delete(sessionMetaObject(token))
}

// readSessionLog rebuilds the durably-accepted record stream: the raw
// wire bytes of every record in every intact log frame, plus the byte
// offset where the intact prefix ends (for torn-tail truncation).
func readSessionLog(store Store, token string) (recs [][]byte, intact int, torn int, err error) {
	frames, intact, torn, err := readFrames(store, sessionLogObject(token), maxSessionLogFrame)
	if err != nil {
		return nil, 0, 0, err
	}
	pos := 0
	for _, payload := range frames {
		split, err := trace.SplitFramed(payload)
		if err != nil {
			// The frame passed its CRC but doesn't decode — treat it and
			// everything after as torn rather than guess at contents.
			torn += intact - pos
			return recs, pos, torn, nil
		}
		recs = append(recs, split...)
		pos += frameOverhead + len(payload)
	}
	return recs, intact, torn, nil
}

// handleResume reattaches a client to a durable session. Any live
// session holding the same token is discarded first — its memory is a
// subset-or-equal of the log, so the log alone is authoritative.
func (f *Fleet) handleResume(body []byte) ([]byte, error) {
	f.sweepExpired()
	var req ResumeRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, fmt.Errorf("fleet: bad resume request: %w", err)
	}
	metaObj, err := f.repo.store.Get(sessionMetaObject(req.Token))
	if err != nil {
		return nil, fmt.Errorf("fleet: unknown session token %q", req.Token)
	}
	var mrec sessionMetaRecord
	if err := json.Unmarshal(metaObj.Data, &mrec); err != nil {
		return nil, fmt.Errorf("fleet: session %q meta corrupt: %w", req.Token, err)
	}
	// Route by the run's CURRENT owner, not the replica named in the
	// token prefix: any replica can read the shared meta, but only the
	// owner may append to the shard — after a reconfiguration, that may
	// be a different replica than the one that opened the session.
	if err := f.placeRun(mrec.Meta.RunID); err != nil {
		return nil, err
	}

	// Evict any live session with this token: the resuming client owns
	// it now, and the durable log supersedes the old session's memory.
	f.mu.Lock()
	var stale *session
	for id, s := range f.sessions {
		if s.token == req.Token {
			delete(f.sessions, id)
			stale = s
			break
		}
	}
	f.m.active.Set(int64(len(f.sessions)))
	f.mu.Unlock()
	if stale != nil {
		stale.close()
	}

	recs, intactEnd, torn, err := readSessionLog(f.repo.store, req.Token)
	if err != nil {
		return nil, err
	}
	if torn > 0 {
		// Trim the torn tail now: later appends after it would be
		// unreadable, silently orphaning acked records.
		if obj, err := f.repo.store.Get(sessionLogObject(req.Token)); err == nil {
			if _, err := f.repo.store.Put(sessionLogObject(req.Token), obj.Data[:intactEnd]); err != nil {
				return nil, fmt.Errorf("fleet: session %q log trim: %w", req.Token, err)
			}
		}
	}

	s := f.newSession(req.Token, mrec.Meta)
	s.logged = int64(len(recs))
	s.archived.Store(s.logged)
	for _, raw := range recs {
		rec, err := s.w.AddRaw(raw)
		if err != nil {
			return nil, fmt.Errorf("fleet: session %q log replay: %w", req.Token, err)
		}
		// Replay rebuilds the analyzer to the exact pre-crash state: the
		// log holds the order the old drain folded, and the analysis is a
		// pure function of that sequence.
		s.fold(rec)
	}
	if err := f.register(s); err != nil {
		return nil, err
	}
	go s.drain(f.m)
	f.m.resumed.Inc()
	f.opts.Obs.Emit("fleet", "session-resumed",
		fmt.Sprintf("session %d (run %q): resumed at %d durable records (%d torn bytes trimmed)",
			s.id, s.meta.RunID, len(recs), torn))
	return json.Marshal(ResumeResponse{SessionID: s.id, Token: s.token, AcceptedRecords: int64(len(recs))})
}

// RecoverSessions reconciles durable session state at collector start:
// sessions whose run already reached the manifest (the crash hit
// between Save and retirement) are retired, the rest are parked —
// their durable state intact, waiting for the client's fleet.Resume.
// Returns the parked tokens, sorted.
func (f *Fleet) RecoverSessions() ([]string, error) {
	var parked []string
	for _, name := range f.repo.store.List("sessions/") {
		if !strings.HasSuffix(name, "/meta") {
			continue
		}
		obj, err := f.repo.store.Get(name)
		if err != nil {
			continue
		}
		var mrec sessionMetaRecord
		if err := json.Unmarshal(obj.Data, &mrec); err != nil || mrec.Token == "" {
			continue
		}
		// Replica mode: adopt only sessions whose shard this replica
		// currently owns. That filter IS cross-replica recovery — when a
		// replica is removed and the survivors' configs shrink, its
		// orphaned sessions hash to surviving owners, who retire or park
		// them here exactly as if they had opened them.
		if owned, oerr := f.ownsRun(mrec.Meta.RunID); oerr != nil || !owned {
			continue
		}
		info, err := f.repo.Info(mrec.Meta.RunID)
		if err == nil && info.CreatedSeq == mrec.Meta.CreatedSeq {
			// The run landed; only retirement was lost.
			f.retireSession(mrec.Token)
			f.opts.Obs.Emit("fleet", "session-retired",
				fmt.Sprintf("session %q: run %q already archived", mrec.Token, mrec.Meta.RunID))
			continue
		}
		parked = append(parked, mrec.Token)
	}
	sort.Strings(parked)
	return parked, nil
}

// SessionRecords returns the wire records durably accepted into a
// session's log — the intact prefix, in accepted order; a torn tail is
// ignored. This is the read side `tpupoint watch -session` tails.
func SessionRecords(store Store, token string) ([][]byte, error) {
	if _, err := store.Get(sessionMetaObject(token)); err != nil {
		return nil, fmt.Errorf("fleet: unknown session token %q", token)
	}
	recs, _, _, err := readSessionLog(store, token)
	return recs, err
}

// frameOne wraps one record's wire bytes as a single-record
// uvarint-framed stream (the durable log's payload format).
func frameOne(rec []byte) []byte {
	framed := binary.AppendUvarint(make([]byte, 0, len(rec)+4), uint64(len(rec)))
	return append(framed, rec...)
}

// register installs a session in the table under the capacity limit.
func (f *Fleet) register(s *session) error {
	f.mu.Lock()
	if len(f.sessions) >= f.opts.MaxSessions {
		f.mu.Unlock()
		f.m.rejected.Inc()
		return fmt.Errorf("%w: %d collection sessions open (limit %d)",
			rpc.ErrBusy, f.opts.MaxSessions, f.opts.MaxSessions)
	}
	s.id = f.nextID
	f.nextID++
	f.sessions[s.id] = s
	f.m.active.Set(int64(len(f.sessions)))
	f.mu.Unlock()
	return nil
}
