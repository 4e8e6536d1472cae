// Write-ahead intent journal: the crash-consistency spine of the
// repository. Every mutating operation (Save, Delete, GC, Compact, and
// the fleet's finalize, which lands as a Save) appends a CRC-framed
// intent record to its shard's journal object *before* it touches any
// blob or manifest, and a matching done record after the mutation
// fully commits or fully rolls back. A process that dies mid-mutation
// leaves an open intent behind; Recover replays every journal on open
// and drives each open intent to one of the two legal end states, so
// the manifests and the blob set always reconverge:
//
//   - save-batch intent, member by member: run in manifest → committed,
//     nothing to do; run absent → roll back: reclaim the orphan blob
//   - delete intent, run still in manifest → mutation never took effect; no-op
//   - delete intent, run absent           → complete: reclaim the leftover
//     object unless other runs still reference it (a shared pack)
//   - gc intent                           → complete: reclaim every recorded
//     victim object no longer referenced by any manifest
//   - compact intent, pack absent          → roll back: nothing durable
//     happened, the member blobs are untouched
//   - compact intent, pack present+valid   → roll forward: repoint members
//     still on their old blobs, reclaim superseded blobs
//
// An open intent of any other operation stops the replay with an error:
// a journal this build cannot settle is never truncated.
//
// Journal frame layout (little-endian), chosen so a torn tail — the
// power cut landing mid-append — is detectable and trimmable:
//
//	u32 payloadLen | u32 crc32c(payload) | payload (JSON journalRecord)
//
// Journals are append-only objects (storage.Bucket.Append); the only
// non-append writes are the compaction rewrites at the end of a
// successful Recover, once every intent is settled. There is one
// journal per shard (runs/.journal-<i>), all sharing a single
// in-process seq counter so intent/done pairs stay unambiguous across
// journals.
package repo

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
	"sort"
	"strings"
	"sync/atomic"

	"repro/internal/archive"
	"repro/internal/storage"
)

// journalFrameOverhead is the per-record framing cost: u32 length +
// u32 crc32c.
const journalFrameOverhead = 8

// maxJournalPayload bounds a single journal record on read; anything
// larger is corruption, not data (records are small JSON documents).
const maxJournalPayload = 1 << 20

var journalTable = crc32.MakeTable(crc32.Castagnoli)

// Journal operation and phase names.
const (
	opDelete  = "delete"
	opGC      = "gc"
	opCompact = "compact"
	// opSaveBatch is a commit round's intent (Repo.commitShardSaves):
	// its Members list carries one {RunID, Object} pair per save in the
	// round — one for a plain Save — and recovery replays it member-wise
	// as k independent save intents.
	opSaveBatch = "save-batch"

	phaseIntent = "intent"
	phaseDone   = "done"
)

// packMember is one run's slot in a compaction intent: where its bytes
// lived before the pack and where they land inside it.
type packMember struct {
	RunID  string `json:"run_id"`
	Object string `json:"object"` // pre-compaction blob
	Offset int64  `json:"offset"`
	Length int64  `json:"length"`
}

// journalRecord is one framed journal entry. Seq pairs an intent with
// its done record; an intent whose seq has no done record is open.
type journalRecord struct {
	Seq     uint64   `json:"seq"`
	Op      string   `json:"op"`
	Phase   string   `json:"phase"`
	RunID   string   `json:"run_id,omitempty"`
	Object  string   `json:"object,omitempty"`
	Victims []string `json:"victims,omitempty"`
	// Objects lists the victim *objects* of a GC intent — distinct from
	// Victims (run IDs) because a packed victim's object is a shared
	// pack that recovery must reference-check before reclaiming.
	Objects []string `json:"objects,omitempty"`
	// Members is a compaction intent's layout of the pack in Object.
	Members []packMember `json:"members,omitempty"`
}

// appendFrame CRC-frames payload and appends it to object. The append
// is the durability point for both the intent journals and the fleet's
// per-session logs: a frame either lands whole or its torn prefix is
// detected and trimmed by readFrames.
func appendFrame(store Store, object string, payload []byte) error {
	frame := make([]byte, journalFrameOverhead+len(payload))
	binary.LittleEndian.PutUint32(frame[:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(payload, journalTable))
	copy(frame[journalFrameOverhead:], payload)
	_, err := store.Append(object, frame)
	return err
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
	for pos < len(data) {
		if pos+journalFrameOverhead > len(data) {
			break
		}
		n := int(binary.LittleEndian.Uint32(data[pos : pos+4]))
		want := binary.LittleEndian.Uint32(data[pos+4 : pos+8])
		if n > maxPayload || pos+journalFrameOverhead+n > len(data) {
			break
		}
		payload := data[pos+journalFrameOverhead : pos+journalFrameOverhead+n]
		if crc32.Checksum(payload, journalTable) != want {
			break
		}
		frames = append(frames, payload)
		pos += journalFrameOverhead + n
	}
	return frames, pos, len(data) - pos, nil
}

// appendJournalTo frames rec and appends it to the named journal.
func (r *Repo) appendJournalTo(journal string, rec journalRecord) error {
	payload, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	if err := appendFrame(r.store, journal, payload); err != nil {
		return fmt.Errorf("repo: journal append: %w", err)
	}
	return nil
}

// logIntentAt stamps rec as an intent with a fresh seq, appends it to
// the named journal, and returns the seq for the matching done record.
func (r *Repo) logIntentAt(journal string, rec journalRecord) (uint64, error) {
	rec.Seq = atomic.AddUint64(&r.journalSeq, 1)
	rec.Phase = phaseIntent
	return rec.Seq, r.appendJournalTo(journal, rec)
}

// logDoneAt appends the done record closing intent seq to the journal
// that holds it. A failure here is harmless-by-design: the next
// Recover replays the intent, finds the mutation already settled, and
// closes it then.
func (r *Repo) logDoneAt(journal string, seq uint64, op string) {
	_ = r.appendJournalTo(journal, journalRecord{Seq: seq, Op: op, Phase: phaseDone})
}

// readJournalObject decodes one journal leniently: it stops at the
// first torn or CRC-failing frame (the bytes a power cut left behind)
// and reports how many tail bytes it discarded. A missing or empty
// journal is an empty history.
func readJournalObject(store Store, object string) (recs []journalRecord, tornBytes int, err error) {
	frames, _, torn, err := readFrames(store, object, maxJournalPayload)
	if err != nil {
		return nil, 0, err
	}
	for i, payload := range frames {
		var rec journalRecord
		if err := json.Unmarshal(payload, &rec); err != nil {
			// A framed-but-undecodable record poisons the tail: the
			// bytes from this frame on count as torn.
			for _, rest := range frames[i:] {
				torn += journalFrameOverhead + len(rest)
			}
			return recs, torn, nil
		}
		recs = append(recs, rec)
	}
	return recs, torn, nil
}

// RecoveryReport summarizes one replay over every journal.
type RecoveryReport struct {
	// Records is how many intact journal records the replay scanned.
	Records int
	// TornBytes is the size of the discarded torn tails, if any.
	TornBytes int
	// OpenIntents is how many intents had no done record and were
	// reconciled.
	OpenIntents int
	// Completed counts open intents whose mutation had already fully
	// committed (only the done record was missing).
	Completed int
	// RolledBack counts open intents whose mutation was undone.
	RolledBack int
	// OrphansReclaimed lists blob objects deleted during replay —
	// save rollbacks, unfinished GC victims, superseded or abandoned
	// compaction state.
	OrphansReclaimed []string
}

// Clean reports whether the replay found nothing to repair.
func (rr *RecoveryReport) Clean() bool {
	return rr.OpenIntents == 0 && rr.TornBytes == 0
}

// journalState is one journal's decoded history plus whether the
// stored object has any bytes worth compacting away.
type journalState struct {
	name string
	recs []journalRecord
	torn int
}

// openIntents returns the intents in one journal's records that no done
// record closes. Matching must stay per journal: every writer logs an
// intent and its done to the same journal object, but two replica
// processes each start their own journalSeq counter — a seq is only
// unique per (process, journal), so a global match could let replica
// A's done mask replica B's open intent.
func openIntents(recs []journalRecord) []journalRecord {
	done := make(map[uint64]bool)
	for _, rec := range recs {
		if rec.Phase == phaseDone {
			done[rec.Seq] = true
		}
	}
	var open []journalRecord
	for _, rec := range recs {
		if rec.Phase == phaseIntent && !done[rec.Seq] {
			open = append(open, rec)
		}
	}
	return open
}

// recoverJournals lists the journals Recover may replay. A standalone
// repository replays every shard's; a replica-scoped one
// (OpenShardsOwned) replays only its owned shards' journals — peers may
// be alive with open intents in theirs, and rolling those back would
// destroy in-flight saves.
func (r *Repo) recoverJournals(ss shardSet) []string {
	var names []string
	for i := 0; i < ss.n; i++ {
		if r.recoverOwned == nil || slices.Contains(r.recoverOwned, i) {
			names = append(names, ss.journalObject(i))
		}
	}
	return names
}

// Recover replays every intent journal and reconciles every open
// intent, returning what it did. It must be called before the
// repository serves mutations when the underlying store may hold the
// debris of a crashed writer — Open does it automatically. Recover is
// idempotent: a second replay over the same store finds clean
// journals.
func (r *Repo) Recover() (*RecoveryReport, error) {
	ss, err := r.resolveShards()
	if err != nil {
		return nil, err
	}
	rep := &RecoveryReport{}
	var states []journalState
	maxSeq := uint64(0)
	for _, name := range r.recoverJournals(ss) {
		recs, torn, err := readJournalObject(r.store, name)
		if err != nil {
			return nil, err
		}
		states = append(states, journalState{name: name, recs: recs, torn: torn})
		rep.Records += len(recs)
		rep.TornBytes += torn
		for _, rec := range recs {
			maxSeq = max(maxSeq, rec.Seq)
		}
	}
	// Future intents must not collide with replayed seqs.
	for {
		cur := atomic.LoadUint64(&r.journalSeq)
		if cur >= maxSeq || atomic.CompareAndSwapUint64(&r.journalSeq, cur, maxSeq) {
			break
		}
	}

	// Open intents, globally seq-ordered (the seq counter is shared
	// across journals). Compaction intents reconcile after the others:
	// they re-read the manifests they mutate, so they must see the
	// final word on every save/delete/gc rollback first.
	var open []journalRecord
	for _, st := range states {
		for _, rec := range openIntents(st.recs) {
			switch rec.Op {
			case opSaveBatch, opDelete, opGC, opCompact:
				open = append(open, rec)
			default:
				return nil, fmt.Errorf("repo: journal %s holds an open %q intent (seq %d), an operation this build cannot replay",
					st.name, rec.Op, rec.Seq)
			}
		}
	}
	sort.Slice(open, func(i, j int) bool {
		if ci, cj := open[i].Op == opCompact, open[j].Op == opCompact; ci != cj {
			return cj
		}
		return open[i].Seq < open[j].Seq
	})
	rep.OpenIntents = len(open)
	if rep.Clean() {
		return rep, nil
	}

	ms, _, err := r.loadAllShards(ss)
	if err != nil {
		return nil, err
	}
	// Objects protected from reclamation: everything any manifest
	// references (a pack stays protected while one member survives).
	refs := referencedObjects(ms)
	reclaim := func(object string) error { return r.reclaim(rep, refs, object) }

	for _, intent := range open {
		switch intent.Op {
		case opSaveBatch:
			// Member-wise replay: each member is an independent save —
			// committed if its run reached the manifest (only the done
			// record is missing), otherwise acceptance never became
			// durable and its blob is reclaimed.
			rolled := false
			for _, mb := range intent.Members {
				if findRun(ms, mb.RunID) != nil {
					continue
				}
				if err := reclaim(mb.Object); err != nil {
					return nil, err
				}
				rolled = true
			}
			if rolled {
				rep.RolledBack++
			} else {
				rep.Completed++
			}
		case opDelete:
			if findRun(ms, intent.RunID) != nil {
				// Manifest untouched: the delete never took effect and
				// the caller never got an ack. Leave the run alone.
				rep.RolledBack++
			} else {
				if err := reclaim(intent.Object); err != nil {
					return nil, err
				}
				rep.Completed++
			}
		case opGC:
			// The victim set recorded at intent time may be stale
			// (the CAS loop can recompute it); reclaim exactly the
			// recorded victims that did lose their manifest entry.
			for _, id := range intent.Victims {
				if findRun(ms, id) != nil {
					continue
				}
				if err := reclaim(runObject(id)); err != nil {
					return nil, err
				}
			}
			// Packed victims recorded their shared object explicitly;
			// refs protects it while any sibling survives.
			for _, object := range intent.Objects {
				if err := reclaim(object); err != nil {
					return nil, err
				}
			}
			rep.Completed++
		case opCompact:
			if err := r.recoverCompact(ss, intent, rep); err != nil {
				return nil, err
			}
		}
		r.logReplay(intent)
	}

	// Compact: every intent is settled, so each journal's history (and
	// any torn tail) can be dropped wholesale.
	for _, st := range states {
		if len(st.recs) == 0 && st.torn == 0 {
			continue
		}
		if _, err := r.store.Put(st.name, nil); err != nil {
			return nil, fmt.Errorf("repo: journal compact: %w", err)
		}
	}
	r.m.journalReplays.Add(int64(rep.OpenIntents))
	return rep, nil
}

// reclaim deletes object during replay unless refs — the objects the
// index addresses — protects it, and records the deletion in rep.
func (r *Repo) reclaim(rep *RecoveryReport, refs map[string]bool, object string) error {
	if object == "" || refs[object] || !r.store.Exists(object) {
		return nil
	}
	if err := r.remove(object); err != nil {
		return err
	}
	rep.OrphansReclaimed = append(rep.OrphansReclaimed, object)
	return nil
}

// recoverCompact reconciles one open compaction intent. The pack Put
// is the commit point: a missing pack means nothing durable happened
// (pure rollback); a present, valid pack rolls forward — members whose
// entries still address their old blobs are repointed into it and
// superseded blobs are reclaimed. Put is atomic, so an invalid pack is
// bit rot, not a torn write: nothing is repointed into it and no member
// is touched. Either way a pack no entry references is dropped (one
// that is referenced but invalid is Fsck's to repair).
func (r *Repo) recoverCompact(ss shardSet, intent journalRecord, rep *RecoveryReport) error {
	pack := intent.Object
	valid := true
	for _, mb := range intent.Members {
		blob, err := r.readEntryBytes(RunInfo{Object: pack, Offset: mb.Offset, Length: mb.Length})
		switch {
		case errors.Is(err, storage.ErrNotFound):
			rep.RolledBack++
			return nil
		case errors.Is(err, storage.ErrRangeOutsideObject):
			valid = false
		case err != nil:
			return err
		default:
			if _, aerr := archive.Open(blob); aerr != nil {
				valid = false
			}
		}
	}
	if valid {
		if _, err := r.repointMembers(ss, pack, intent.Members); err != nil {
			return err
		}
	}
	// Replay is the sole writer, so the index scan alone decides what is
	// superseded: a member's old blob goes unless some entry (a re-save
	// of the run lands at the same object name) still addresses it. The
	// repoint outcome cannot decide — a cut between repoint and delete
	// leaves a repointed entry whose old blob lingers. Live compaction
	// (compactGroup) must not use this rule; see there.
	ms, _, err := r.loadAllShards(ss)
	if err != nil {
		return err
	}
	refs := referencedObjects(ms)
	if valid {
		for _, mb := range intent.Members {
			if err := r.reclaim(rep, refs, mb.Object); err != nil {
				return err
			}
		}
	}
	if err := r.reclaim(rep, refs, pack); err != nil {
		return err
	}
	if valid {
		rep.Completed++
	} else {
		rep.RolledBack++
	}
	return nil
}

func (r *Repo) logReplay(intent journalRecord) {
	r.obs.Emit("repo", "journal-replay",
		fmt.Sprintf("replayed open %s intent seq %d (run %q)", intent.Op, intent.Seq, intent.RunID))
}

// compactJournalIfSettled opportunistically truncates each journal
// once it grows past threshold bytes, but only when every intent it
// records is closed — an open intent belongs to a mutation still in
// flight (or to a crashed writer, which Recover owns).
func (r *Repo) compactJournalIfSettled(threshold int) {
	ss, err := r.resolveShards()
	if err != nil {
		return
	}
	// Same scoping as Recover: a replica truncates only its own
	// journals (the generation-checked swap already tolerates races,
	// but a peer's journal is simply not ours to rewrite).
	for _, name := range r.recoverJournals(ss) {
		r.compactJournalObject(name, threshold)
	}
}

func (r *Repo) compactJournalObject(name string, threshold int) {
	obj, err := r.store.Get(name)
	if err != nil || len(obj.Data) < threshold {
		return
	}
	recs, torn, err := readJournalObject(r.store, name)
	if err != nil || torn > 0 || len(openIntents(recs)) > 0 {
		return
	}
	// A concurrent mutation may append between the read and this
	// rewrite; tolerate losing the race by writing only when the
	// object is unchanged (generation-checked swap).
	_, _ = r.store.PutIf(name, nil, obj.Generation)
}

// journalCompactThreshold is the journal size past which settled
// history is opportunistically truncated.
const journalCompactThreshold = 256 << 10

// sortedUnique returns a sorted copy of ids with duplicates removed —
// journal victim lists stay deterministic regardless of map order.
func sortedUnique(ids []string) []string {
	out := append([]string(nil), ids...)
	sort.Strings(out)
	j := 0
	for i, id := range out {
		if i == 0 || id != out[j-1] {
			out[j] = id
			j++
		}
	}
	return out[:j]
}

// isRepoInternalObject reports whether name is repository bookkeeping
// rather than run data — the manifests, journals, and layout object
// live under the runs/ prefix but index it. Pack objects are data, not
// bookkeeping: Fsck verifies them through the entries that reference
// them.
func isRepoInternalObject(name string) bool {
	return name == LayoutObject || isShardManifestObject(name) || isShardJournalObject(name)
}

// runIDFromObject inverts runObject: runs/<id>/archive → <id>, "" for
// anything else.
func runIDFromObject(name string) string {
	if !strings.HasPrefix(name, "runs/") || !strings.HasSuffix(name, "/archive") {
		return ""
	}
	id := strings.TrimSuffix(strings.TrimPrefix(name, "runs/"), "/archive")
	if id == "" || strings.Contains(id, "/") {
		return ""
	}
	return id
}
