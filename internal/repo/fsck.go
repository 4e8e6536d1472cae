// Recovery and repository fsck: the two passes that walk runs/ against
// the manifests, with two policies on purpose.
//
// Recover, which Open runs, makes crashes of *this* code reconverge:
// the manifest CAS is the only commit point, so an object no manifest
// references on a shard this handle owns is an unacknowledged write or
// the leftover of a committed un-reference, and Recover reclaims it.
//
// Fsck catches everything else — bit rot, truncated uploads,
// hand-edited repositories, debris from older versions — and with
// repair re-adopts what it can, because an operator asked to recover
// data. Repairs converge without bookkeeping of their own: every repair
// either completes or leaves a state a re-run classifies again (a
// half-moved quarantine copy is re-detected as an orphan; a rebuilt
// blob whose manifest update was lost shows up as a count mismatch).
//
// Sharded repositories are checked over the merged view: entries come
// from every shard, repairs route to the shard owning the run, and
// pack objects (compact.go) are verified through the entries that
// reference them — a pack window that fails to decode condemns the
// entry, not the shared pack.
//
// Every repair that has to re-create a blob — Salvage, a corrupt
// indexed entry, a damaged orphan — goes through rebuildRun; the three
// differ only in what they do when nothing is salvageable.
package repo

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strconv"
	"strings"

	"repro/internal/archive"
	"repro/internal/storage"
)

// QuarantinePrefix is where fsck -repair moves objects it cannot
// classify or salvage: the original object name, prefixed. Quarantined
// objects are never read back by the repository; they exist so repair
// is not destruction.
const QuarantinePrefix = "quarantine/"

// legacyJournalPrefix names the per-shard intent journals older builds
// wrote (runs/.journal-<i>). Nothing writes one now: Fsck treats it as
// bookkeeping and its shard owner's Recover deletes it, since every
// state an open intent could describe is one the sweep settles.
const legacyJournalPrefix = "runs/.journal-"

// The kinds of object under runs/.
const (
	kindForeign = iota // neither bookkeeping nor run data
	kindIndex          // a shard manifest or the layout object
	kindJournal        // an older build's intent journal
	kindRunBlob        // a run's private blob, runs/<id>/archive
	kindPack           // a compaction pack
)

// runsObject is an object under runs/ as classifyObject, the one
// reading of such a name that Recover and Fsck share, sees it: its
// kind, the run a blob holds, and the shard a journal's or pack's name
// carries. A pack named by an older build (runs/.pack/<workload>-<hash>)
// carries none: -1.
type runsObject struct {
	name, runID string
	kind, shard int
}

func classifyObject(name string) runsObject {
	o := runsObject{name: name, shard: -1}
	switch {
	case name == LayoutObject || isShardManifestObject(name):
		o.kind = kindIndex
	case strings.HasPrefix(name, legacyJournalPrefix):
		o.kind, o.shard = kindJournal, shardNumber(strings.TrimPrefix(name, legacyJournalPrefix))
	case strings.HasPrefix(name, PackPrefix):
		o.kind = kindPack
		if dir, _, ok := strings.Cut(strings.TrimPrefix(name, PackPrefix), "/"); ok {
			o.shard = shardNumber(dir)
		}
	default:
		if o.runID = runIDFromObject(name); o.runID != "" {
			o.kind = kindRunBlob
		}
	}
	return o
}

// shardNumber parses a shard index out of an object name's part, -1
// when it is none.
func shardNumber(s string) int {
	if i, err := strconv.Atoi(s); err == nil && i >= 0 {
		return i
	}
	return -1
}

// bookkeeping reports whether the object indexes runs/ rather than
// holding run data. Packs are data: Fsck verifies them through the
// entries that reference them.
func (o runsObject) bookkeeping() bool { return o.kind == kindIndex || o.kind == kindJournal }

// isRepoInternalObject reports whether name is repository bookkeeping.
func isRepoInternalObject(name string) bool { return classifyObject(name).bookkeeping() }

// walkRuns is the one walk of runs/ that Recover and Fsck share: every
// object under it, classified, and the manifests. It lists before it
// loads, so an object committed between the two reads counts as
// referenced instead of as debris.
func (r *Repo) walkRuns(ss shardSet) ([]runsObject, []*manifest, error) {
	names := r.store.List("runs/")
	ms, _, err := r.loadAllShards(ss)
	objs := make([]runsObject, len(names))
	for i, name := range names {
		objs[i] = classifyObject(name)
	}
	return objs, ms, err
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

// RecoveryReport is what one Recover sweep reclaimed.
type RecoveryReport struct {
	// Reclaimed lists the deleted objects: run blobs and packs no
	// manifest references, and older builds' intent journals.
	Reclaimed []string
}

// Clean reports whether the sweep found nothing to reclaim.
func (rr *RecoveryReport) Clean() bool { return len(rr.Reclaimed) == 0 }

// Recover reclaims every object on this handle's shards that no
// manifest references. Objects are written before the manifest CAS
// that references them, and only a shard's owner writes its objects,
// so such an object is an unacknowledged write or the leftover of a
// committed delete, GC or compaction: reclaiming it is the one end
// state that needs no record of what was in flight. Open runs it
// before the repository serves mutations; it is idempotent.
func (r *Repo) Recover() (*RecoveryReport, error) {
	ss, err := r.resolveShards()
	if err != nil {
		return nil, err
	}
	objs, ms, err := r.walkRuns(ss)
	if err != nil {
		return nil, err
	}
	refs := referencedObjects(ms)
	rep := &RecoveryReport{}
	for _, o := range objs {
		if refs[o.name] || !r.sweepable(ss, o) {
			continue
		}
		if err := r.remove(o.name); err != nil {
			return nil, err
		}
		rep.Reclaimed = append(rep.Reclaimed, o.name)
	}
	r.m.reclaimed.Add(int64(len(rep.Reclaimed)))
	if !rep.Clean() {
		r.obs.Emit("repo", "recover", fmt.Sprintf("reclaimed %d unreferenced objects", len(rep.Reclaimed)))
	}
	return rep, nil
}

// sweepable reports whether Recover may reclaim o once no manifest
// references it: a run blob, a pack or a legacy journal of a shard this
// handle owns. A pack named by an older build carries no shard; no
// current writer names a pack that way, so nothing can be in flight on
// one and every handle, a replica's too, reclaims it. Manifests, the
// layout and foreign objects are never swept.
func (r *Repo) sweepable(ss shardSet, o runsObject) bool {
	switch o.kind {
	case kindRunBlob:
		return r.ownsShard(ss.shardOf(o.runID))
	case kindJournal:
		return o.shard >= 0 && r.ownsShard(o.shard)
	case kindPack:
		return o.shard < 0 || r.ownsShard(o.shard)
	}
	return false
}

// ownsShard reports whether this handle is shard i's writer: every
// shard for a standalone repository, the owned ones for a replica's.
func (r *Repo) ownsShard(i int) bool {
	return r.owned == nil || slices.Contains(r.owned, i)
}

// Fsck issue kinds.
const (
	// IssueMissingBlob: a manifest entry whose blob (or pack) object is
	// gone. Repair drops the phantom entry.
	IssueMissingBlob = "missing-blob"
	// IssueCorruptBlob: a referenced blob archive.Open rejects, or a
	// window its pack does not contain. Repair salvages what it can and
	// rebuilds the blob in place (a packed run is rebuilt into a private
	// blob; the shared pack is left for its siblings), or quarantines
	// it (and drops the entry) when nothing survives.
	IssueCorruptBlob = "corrupt-blob"
	// IssueCountMismatch: blob opens cleanly but some entry fields
	// disagree with it; the detail names each. Repair trusts the blob.
	IssueCountMismatch = "count-mismatch"
	// IssueOrphanBlob: a well-formed runs/<id>/archive object no
	// manifest entry references. Repair re-adopts it (directly, or via
	// salvage+rebuild) or quarantines it.
	IssueOrphanBlob = "orphan-blob"
	// IssueOrphanPack: a pack object no manifest entry references —
	// every member was deleted, or a crashed compaction was rolled
	// back without its cleanup. Repair quarantines it.
	IssueOrphanPack = "orphan-pack"
	// IssueForeignObject: an object under runs/ that is neither
	// repository bookkeeping nor a run blob. Repair quarantines it.
	IssueForeignObject = "foreign-object"
)

// FsckIssue is one finding, plus what -repair did about it.
type FsckIssue struct {
	Kind   string `json:"kind"`
	RunID  string `json:"run_id,omitempty"`
	Object string `json:"object,omitempty"`
	Detail string `json:"detail"`
	// Action describes the applied repair; empty in check-only mode or
	// when the repair itself failed (Detail then explains).
	Action string `json:"action,omitempty"`
}

// FsckReport is the result of one consistency pass.
type FsckReport struct {
	RunsChecked int
	Issues      []FsckIssue
	Repaired    int
}

// Clean reports whether the pass found nothing wrong.
func (fr *FsckReport) Clean() bool { return len(fr.Issues) == 0 }

// Fsck cross-checks every manifest entry (across all shards) against
// its blob and every runs/ object against the merged index. With
// repair=false it only reports; with repair=true it additionally drops
// phantom entries, rebuilds corrupt blobs from their salvageable
// segments, repairs stale counts, re-adopts orphaned archives, and
// quarantines what it cannot save. Unlike Open's sweep, repair
// re-adopts a well-formed orphan blob, so a crashed writer's debris
// found here comes back as a run.
func (r *Repo) Fsck(repair bool) (*FsckReport, error) {
	ss, err := r.resolveShards()
	if err != nil {
		return nil, err
	}
	objs, ms, err := r.walkRuns(ss)
	if err != nil {
		return nil, err
	}
	entries := mergedRuns(ms)
	rep := &FsckReport{RunsChecked: len(entries)}
	// note records one check's finding, repairing it first when asked:
	// the checks below only classify, so a check-only pass cannot write.
	note := func(issue *FsckIssue, fix fsckFix, err error) error {
		if err != nil || issue == nil {
			return err
		}
		if repair {
			if issue.Action, err = fix(); err != nil {
				return err
			}
		}
		rep.Issues = append(rep.Issues, *issue)
		if issue.Action != "" {
			rep.Repaired++
		}
		return nil
	}

	for _, e := range entries {
		if err := note(r.fsckEntry(e)); err != nil {
			return nil, err
		}
	}

	if rep.Repaired > 0 {
		// Repairs rewrote entries and blobs (a packed run rebuilt into a
		// private blob, a corrupt one quarantined): classify the objects
		// against the store and index as they are now, or the pass would
		// quarantine what it just rebuilt.
		if objs, ms, err = r.walkRuns(ss); err != nil {
			return nil, err
		}
	}
	referenced := referencedObjects(ms)
	for _, o := range objs {
		if o.bookkeeping() || referenced[o.name] {
			continue
		}
		if err := note(r.fsckUnreferenced(o, ms)); err != nil {
			return nil, err
		}
	}

	r.m.fsckIssues.Add(int64(len(rep.Issues)))
	r.m.fsckRepairs.Add(int64(rep.Repaired))
	if !rep.Clean() {
		r.obs.Emit("repo", "fsck",
			fmt.Sprintf("fsck: %d issues, %d repaired", len(rep.Issues), rep.Repaired))
	}
	return rep, nil
}

// fsckFix is the repair for one finding; it returns the Action to report.
type fsckFix func() (action string, err error)

// fsckEntry checks one manifest entry against its blob; a nil issue
// means the entry is healthy. The bytes come through readEntryBytes, so
// a packed entry costs a read of its window, not of the pack.
func (r *Repo) fsckEntry(e RunInfo) (*FsckIssue, fsckFix, error) {
	issue := func(kind, detail string) *FsckIssue {
		return &FsckIssue{Kind: kind, RunID: e.RunID, Object: e.Object, Detail: detail}
	}
	blob, cause := r.readEntryBytes(e, 0, wholeEntry)
	switch {
	case errors.Is(cause, storage.ErrNotFound):
		return issue(IssueMissingBlob, "manifest references a blob that does not exist"),
			func() (string, error) { return "dropped phantom manifest entry", r.dropEntry(e.RunID) }, nil
	case cause != nil && !errors.Is(cause, storage.ErrRangeOutsideObject):
		return nil, nil, cause
	}
	// Corrupt: the window is not in the pack, or archive.Open rejects
	// the bytes it holds.
	var a *archive.Archive
	if cause == nil {
		a, cause = archive.Open(blob)
	}
	if cause != nil {
		return issue(IssueCorruptBlob, cause.Error()), func() (string, error) { return r.repairCorrupt(e) }, nil
	}
	good := r.entryFor(a, e)
	if good == e {
		return nil, nil, nil
	}
	return issue(IssueCountMismatch, entryDiff(e, good)),
		func() (string, error) { return "manifest entry recomputed from blob", r.adopt(good) }, nil
}

// entryDiff names each field, by its manifest JSON name, in which the
// entry e differs from good, the entry its blob implies, with both values.
func entryDiff(e, good RunInfo) string {
	ve, vg := reflect.ValueOf(e), reflect.ValueOf(good)
	var parts []string
	for i := 0; i < ve.NumField(); i++ {
		if was, is := ve.Field(i).Interface(), vg.Field(i).Interface(); was != is {
			name, _, _ := strings.Cut(ve.Type().Field(i).Tag.Get("json"), ",")
			parts = append(parts, fmt.Sprintf("%s: manifest says %v, blob holds %v", name, was, is))
		}
	}
	return strings.Join(parts, "; ")
}

// fsckUnreferenced reports one non-bookkeeping runs/ object no entry of
// the index ms claims.
func (r *Repo) fsckUnreferenced(o runsObject, ms []*manifest) (*FsckIssue, fsckFix, error) {
	name, id := o.name, o.runID
	quarantine := func(action string) fsckFix {
		return func() (string, error) { return action, r.quarantine(name) }
	}
	switch o.kind {
	case kindPack:
		return &FsckIssue{Kind: IssueOrphanPack, Object: name,
			Detail: "pack object has no referencing manifest entries"}, quarantine("quarantined"), nil
	case kindForeign:
		return &FsckIssue{Kind: IssueForeignObject, Object: name,
			Detail: "object under runs/ is not a run blob"}, quarantine("quarantined"), nil
	}
	issue := &FsckIssue{Kind: IssueOrphanBlob, RunID: id, Object: name,
		Detail: "run blob has no manifest entry"}
	if findRun(ms, id) != nil {
		// A manifest entry for this run ID exists but points at a
		// different object (a packed window, or foreign debris); the
		// indexed entry wins, whatever state the orphan is in.
		return issue, quarantine("quarantined (run ID already indexed elsewhere)"), nil
	}
	return issue, func() (string, error) { return r.adoptOrphan(id) }, nil
}

// adoptOrphan indexes the unreferenced blob under id's own name:
// directly when it verifies and agrees about its own identity, through
// salvage otherwise, and into quarantine when nothing survives.
func (r *Repo) adoptOrphan(id string) (string, error) {
	name := runObject(id)
	obj, err := r.store.Get(name)
	if errors.Is(err, storage.ErrNotFound) {
		return "", nil // raced away; nothing left to repair
	}
	if err != nil {
		return "", err
	}
	if a, err := archive.Open(obj.Data); err == nil && a.Meta().RunID == id {
		return "re-adopted into manifest", r.adopt(r.entryFor(a, RunInfo{RunID: id}))
	}
	_, srep, err := r.rebuildRun(id, nil)
	if errors.Is(err, errUnsalvageable) {
		return "quarantined (nothing salvageable)", r.quarantine(name)
	}
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("re-adopted after salvage (%d/%d segments)", srep.SegmentsKept, srep.SegmentsTotal), nil
}

// repairCorrupt rebuilds a referenced-but-corrupt blob from its
// salvageable segments, or drops the entry when nothing survives. A
// private blob is rebuilt in place (or quarantined); a packed run is
// rebuilt into a private blob and its entry repointed — the shared
// pack is never quarantined on one member's account, its other
// windows may be healthy.
func (r *Repo) repairCorrupt(e RunInfo) (string, error) {
	_, srep, err := r.rebuildRun(e.RunID, &e)
	if errors.Is(err, errUnsalvageable) {
		action := "dropped entry (nothing salvageable from pack window)"
		if !e.packed() {
			if err := r.quarantine(e.Object); err != nil {
				return "", err
			}
			action = "quarantined blob and dropped entry (nothing salvageable)"
		}
		return action, r.dropEntry(e.RunID)
	}
	if err != nil {
		return "", err
	}
	how := "rebuilt from salvage"
	if e.packed() {
		how = "rebuilt out of pack into private blob"
	}
	return fmt.Sprintf("%s (%d/%d segments, %d records kept)",
		how, srep.SegmentsKept, srep.SegmentsTotal, srep.RecordsKept), nil
}

// errUnsalvageable is rebuildRun's "no intact record in these bytes";
// each caller has its own policy for it.
var errUnsalvageable = errors.New("no records recoverable")

// rebuildRun is the one way a damaged run becomes a valid one again:
// salvage every intact segment of the bytes entry addresses (for an
// orphan, entry nil, the private blob under runID's own name), re-archive
// them into a blob that verifies, store it as the run's private blob and
// index it. A window its object does not wholly contain is clamped to
// the bytes that exist, and a footer-torn blob takes its lost identity
// from the manifest entry. The report is nil when the bytes are not an
// archive at all.
func (r *Repo) rebuildRun(runID string, entry *RunInfo) (RunInfo, *archive.SalvageReport, error) {
	src := RunInfo{RunID: runID, Object: runObject(runID)}
	if entry != nil {
		src = *entry
	}
	blob, err := r.readEntryBytes(src, 0, wholeEntry)
	if errors.Is(err, storage.ErrRangeOutsideObject) {
		var obj *storage.Object
		if obj, err = r.store.Get(src.Object); err == nil {
			blob, _ = window(obj.Data, src.Offset, src.Length)
		}
	}
	if err != nil {
		return RunInfo{}, nil, err
	}
	res, err := archive.Salvage(blob)
	if err != nil {
		return RunInfo{}, nil, fmt.Errorf("%w: %v", errUnsalvageable, err)
	}
	if len(res.Records) == 0 {
		return RunInfo{}, &res.Report, errUnsalvageable
	}
	meta := res.Meta
	if meta.RunID != runID {
		if entry != nil {
			meta = entry.meta()
		}
		meta.RunID = runID
	}
	rebuilt := archive.Rebuild(meta, res)
	a, err := archive.Open(rebuilt)
	if err != nil {
		return RunInfo{}, &res.Report, fmt.Errorf("repo: rebuilt blob does not verify: %w", err)
	}
	info := r.entryFor(a, RunInfo{RunID: runID})
	if _, err := r.store.Put(info.Object, rebuilt); err != nil {
		return RunInfo{}, &res.Report, err
	}
	if err := r.adopt(info); err != nil {
		return RunInfo{}, &res.Report, err
	}
	r.m.salvagedSegs.Add(int64(res.Report.SegmentsKept))
	return info, &res.Report, nil
}

// entryFor computes the correct manifest entry for an opened archive,
// keeping base's identity and placement fields where the archive has
// none.
func (r *Repo) entryFor(a *archive.Archive, base RunInfo) RunInfo {
	meta := a.Meta()
	first, last := a.TimeRange()
	footerLen, footerCRC := a.Footer()
	info := RunInfo{
		RunID:      base.RunID,
		Workload:   meta.Workload,
		Label:      meta.Label,
		Tenant:     meta.Tenant,
		HostSpec:   meta.HostSpec,
		TPUVersion: meta.TPUVersion,
		CreatedSeq: meta.CreatedSeq,
		Records:    a.RecordCount(),
		Windows:    a.WindowCount(),
		Bytes:      a.Size(),
		TimeFirst:  first,
		TimeLast:   last,
		Object:     base.Object,
		Offset:     base.Offset,
		Length:     base.Length,
		FooterLen:  footerLen,
		FooterCRC:  footerCRC,
	}
	if info.RunID == "" {
		info.RunID = meta.RunID
	}
	if info.Object == "" {
		info.Object = runObject(info.RunID)
	}
	return info
}

// meta is entryFor's inverse for the identity fields: the archive
// metadata a manifest entry vouches for.
func (info RunInfo) meta() archive.Meta {
	return archive.Meta{
		RunID:      info.RunID,
		Workload:   info.Workload,
		Label:      info.Label,
		Tenant:     info.Tenant,
		HostSpec:   info.HostSpec,
		TPUVersion: info.TPUVersion,
		CreatedSeq: info.CreatedSeq,
	}
}

// dropEntry removes runID's manifest entry (no blob side effects).
func (r *Repo) dropEntry(runID string) error {
	return r.updateRun(runID, func(m *manifest) error {
		if i := m.find(runID); i >= 0 {
			m.Runs = append(m.Runs[:i], m.Runs[i+1:]...)
		}
		return nil
	})
}

// adopt indexes info on the shard owning its run ID, replacing any
// existing entry for the same run and advancing both the shard's
// stored sequence counter and this process's lease past the adopted
// sequence.
func (r *Repo) adopt(info RunInfo) error {
	ss, err := r.ensureShards()
	if err != nil {
		return err
	}
	si := ss.shardOf(info.RunID)
	if err := r.updateShardIdx(ss, si, func(m *manifest) error {
		if i := m.find(info.RunID); i >= 0 {
			m.Runs[i] = info
		} else {
			m.Runs = append(m.Runs, info)
		}
		if ln := localSeqAfter(info.CreatedSeq, ss.n, si); ln > m.NextSeq {
			m.NextSeq = ln
		}
		return nil
	}); err != nil {
		return err
	}
	r.noteSeq(info.CreatedSeq)
	return nil
}

// quarantine moves an object aside under QuarantinePrefix instead of
// deleting it. A crash between the copy and the delete leaves both;
// re-running fsck re-quarantines (the copy is overwritten) and
// finishes the delete.
func (r *Repo) quarantine(name string) error {
	obj, err := r.store.Get(name)
	if errors.Is(err, storage.ErrNotFound) {
		return nil
	}
	if err != nil {
		return err
	}
	if _, err := r.store.Put(QuarantinePrefix+name, obj.Data); err != nil {
		return err
	}
	return r.remove(name)
}

// Salvage recovers runID's blob in place: every intact segment is
// re-archived into a fresh, fully valid blob and the manifest entry is
// recomputed (or created, when the blob was an orphan). A packed run's
// window is salvaged out of its pack into a private blob. The report
// itemizes what the underlying archive.Salvage kept and lost.
func (r *Repo) Salvage(runID string) (RunInfo, *archive.SalvageReport, error) {
	ss, err := r.resolveShards()
	if err != nil {
		return RunInfo{}, nil, err
	}
	m, _, err := r.loadManifestObject(ss.manifestObject(ss.shardOf(runID)))
	if err != nil {
		return RunInfo{}, nil, err
	}
	var entry *RunInfo
	if i := m.find(runID); i >= 0 {
		entry = &m.Runs[i]
	}
	info, srep, err := r.rebuildRun(runID, entry)
	if errors.Is(err, storage.ErrNotFound) {
		return RunInfo{}, nil, fmt.Errorf("%w: %q has no blob to salvage", ErrRunNotFound, runID)
	}
	if err != nil {
		return RunInfo{}, srep, fmt.Errorf("repo: salvage %q: %w", runID, err)
	}
	r.obs.Emit("repo", "salvage",
		fmt.Sprintf("salvaged run %q: %d/%d segments, %d records",
			runID, srep.SegmentsKept, srep.SegmentsTotal, srep.RecordsKept))
	return info, srep, nil
}
