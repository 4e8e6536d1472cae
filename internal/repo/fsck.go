// Repository fsck: cross-checks the manifests against the stored blobs
// and (optionally) repairs what it finds. Fsck is the offline
// complement to the intent journal — the journal makes crashes of
// *this* code reconverge, fsck catches everything else: bit rot,
// truncated uploads, hand-edited repositories, debris from older
// versions. Repairs are designed to converge without their own
// journal entries: every repair either completes or leaves a state a
// re-run classifies again (a half-moved quarantine copy is re-detected
// as an orphan; a rebuilt blob whose manifest update was lost shows up
// as a count mismatch).
//
// Sharded repositories are checked over the merged view: entries come
// from every shard, repairs route to the shard owning the run, and
// pack objects (compact.go) are verified through the entries that
// reference them — a pack window that fails to decode condemns the
// entry, not the shared pack.
//
// Fsck with repair is also the one way a v1 single-manifest store
// becomes a sharded one (convertLegacy); nothing converts on open.
package repo

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"

	"repro/internal/archive"
	"repro/internal/storage"
)

// QuarantinePrefix is where fsck -repair moves objects it cannot
// classify or salvage: the original object name, prefixed. Quarantined
// objects are never read back by the repository; they exist so repair
// is not destruction.
const QuarantinePrefix = "quarantine/"

// Fsck issue kinds.
const (
	// IssueMissingBlob: a manifest entry whose blob (or pack) object is
	// gone. Repair drops the phantom entry.
	IssueMissingBlob = "missing-blob"
	// IssueCorruptBlob: a referenced blob archive.Open rejects. Repair
	// salvages what it can and rebuilds the blob in place (a packed
	// run is rebuilt into a private blob; the shared pack is left for
	// its siblings), or quarantines it (and drops the entry) when
	// nothing survives.
	IssueCorruptBlob = "corrupt-blob"
	// IssueCountMismatch: blob opens cleanly but its counts disagree
	// with the manifest entry. Repair trusts the blob.
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
// quarantines what it cannot save. Run Recover (or construct via Open)
// first so journal debris is not misreported as corruption. A v1 store
// is refused like any other read unless repair is set, which converts
// it first.
func (r *Repo) Fsck(repair bool) (*FsckReport, error) {
	ss, err := r.resolveShards()
	if repair && errors.Is(err, ErrLegacyLayout) {
		if ss, err = r.convertLegacy(); err == nil {
			_, err = r.Recover()
		}
	}
	if err != nil {
		return nil, err
	}
	ms, _, err := r.loadAllShards(ss)
	if err != nil {
		return nil, err
	}
	entries := mergedRuns(ms)
	rep := &FsckReport{RunsChecked: len(entries)}

	referenced := make(map[string]bool, len(entries))
	for _, e := range entries {
		referenced[e.Object] = true
	}

	for _, e := range entries {
		issue, err := r.fsckEntry(e, repair)
		if err != nil {
			return nil, err
		}
		if issue != nil {
			rep.add(*issue)
		}
	}

	indexed := func(id string) bool { return findRun(ms, id) != nil }
	for _, name := range r.store.List("runs/") {
		if isRepoInternalObject(name) || referenced[name] {
			continue
		}
		issue, err := r.fsckUnreferenced(name, indexed, repair)
		if err != nil {
			return nil, err
		}
		if issue != nil {
			rep.add(*issue)
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

func (fr *FsckReport) add(issue FsckIssue) {
	fr.Issues = append(fr.Issues, issue)
	if issue.Action != "" {
		fr.Repaired++
	}
}

// fsckEntry checks one manifest entry against its blob; nil means the
// entry is healthy.
func (r *Repo) fsckEntry(e RunInfo, repair bool) (*FsckIssue, error) {
	obj, err := r.store.Get(e.Object)
	if errors.Is(err, storage.ErrNotFound) {
		issue := &FsckIssue{Kind: IssueMissingBlob, RunID: e.RunID, Object: e.Object,
			Detail: "manifest references a blob that does not exist"}
		if repair {
			if err := r.dropEntry(e.RunID); err != nil {
				return nil, err
			}
			issue.Action = "dropped phantom manifest entry"
		}
		return issue, nil
	}
	if err != nil {
		return nil, err
	}

	blob := obj.Data
	if e.packed() {
		end := e.Offset + e.Length
		if e.Offset < 0 || end > int64(len(obj.Data)) {
			issue := &FsckIssue{Kind: IssueCorruptBlob, RunID: e.RunID, Object: e.Object,
				Detail: fmt.Sprintf("entry window [%d,%d) outside pack (%d bytes)",
					e.Offset, end, len(obj.Data))}
			if repair {
				action, err := r.repairCorrupt(e, nil)
				if err != nil {
					return nil, err
				}
				issue.Action = action
			}
			return issue, nil
		}
		blob = obj.Data[e.Offset:end]
	}

	a, openErr := archive.Open(blob)
	if openErr != nil {
		issue := &FsckIssue{Kind: IssueCorruptBlob, RunID: e.RunID, Object: e.Object,
			Detail: openErr.Error()}
		if repair {
			action, err := r.repairCorrupt(e, blob)
			if err != nil {
				return nil, err
			}
			issue.Action = action
		}
		return issue, nil
	}

	if good := r.entryFor(a, e); good != e {
		issue := &FsckIssue{Kind: IssueCountMismatch, RunID: e.RunID, Object: e.Object,
			Detail: fmt.Sprintf("manifest says %d records / %d bytes, blob holds %d / %d",
				e.Records, e.Bytes, a.RecordCount(), a.Size())}
		if repair {
			if err := r.replaceEntry(good); err != nil {
				return nil, err
			}
			issue.Action = "manifest entry recomputed from blob"
		}
		return issue, nil
	}
	return nil, nil
}

// fsckUnreferenced classifies one runs/ object no manifest entry
// claims; indexed reports whether a run ID exists anywhere in the
// merged index.
func (r *Repo) fsckUnreferenced(name string, indexed func(string) bool, repair bool) (*FsckIssue, error) {
	if strings.HasPrefix(name, PackPrefix) {
		issue := &FsckIssue{Kind: IssueOrphanPack, Object: name,
			Detail: "pack object has no referencing manifest entries"}
		if repair {
			if err := r.quarantine(name); err != nil {
				return nil, err
			}
			issue.Action = "quarantined"
		}
		return issue, nil
	}
	id := runIDFromObject(name)
	if id == "" {
		issue := &FsckIssue{Kind: IssueForeignObject, Object: name,
			Detail: "object under runs/ is not a run blob"}
		if repair {
			if err := r.quarantine(name); err != nil {
				return nil, err
			}
			issue.Action = "quarantined"
		}
		return issue, nil
	}

	issue := &FsckIssue{Kind: IssueOrphanBlob, RunID: id, Object: name,
		Detail: "run blob has no manifest entry"}
	if !repair {
		return issue, nil
	}

	obj, err := r.store.Get(name)
	if errors.Is(err, storage.ErrNotFound) {
		return nil, nil // raced away; nothing to report
	}
	if err != nil {
		return nil, err
	}

	// Adopt directly when the blob verifies and agrees about its own
	// identity; anything else goes through salvage.
	if a, err := archive.Open(obj.Data); err == nil && a.Meta().RunID == id {
		if indexed(id) {
			// A manifest entry for this run ID exists but points at a
			// different object (a packed window, or foreign debris);
			// the indexed entry wins.
			if err := r.quarantine(name); err != nil {
				return nil, err
			}
			issue.Action = "quarantined (run ID already indexed elsewhere)"
			return issue, nil
		}
		if err := r.adopt(r.entryFor(a, RunInfo{RunID: id, Object: name})); err != nil {
			return nil, err
		}
		issue.Action = "re-adopted into manifest"
		return issue, nil
	}

	res, serr := archive.Salvage(obj.Data)
	if serr != nil || len(res.Records) == 0 {
		if err := r.quarantine(name); err != nil {
			return nil, err
		}
		issue.Action = "quarantined (nothing salvageable)"
		return issue, nil
	}
	meta := res.Meta
	if meta.RunID != id {
		meta.RunID = id
	}
	rebuilt := archive.Rebuild(meta, res)
	a, err := archive.Open(rebuilt)
	if err != nil {
		return nil, fmt.Errorf("repo: fsck rebuilt blob does not verify: %w", err)
	}
	if _, err := r.store.Put(name, rebuilt); err != nil {
		return nil, err
	}
	if err := r.adopt(r.entryFor(a, RunInfo{RunID: id, Object: name})); err != nil {
		return nil, err
	}
	r.m.salvagedSegs.Add(int64(res.Report.SegmentsKept))
	issue.Action = fmt.Sprintf("re-adopted after salvage (%d/%d segments)",
		res.Report.SegmentsKept, res.Report.SegmentsTotal)
	return issue, nil
}

// repairCorrupt rebuilds a referenced-but-corrupt blob from its
// salvageable segments, or drops the entry when nothing survives. A
// private blob is rebuilt in place (or quarantined); a packed run is
// rebuilt into a private blob and its entry repointed — the shared
// pack is never quarantined on one member's account, its other
// windows may be healthy.
func (r *Repo) repairCorrupt(e RunInfo, blob []byte) (string, error) {
	res, serr := archive.Salvage(blob)
	if serr != nil || len(res.Records) == 0 {
		if e.packed() {
			if err := r.dropEntry(e.RunID); err != nil {
				return "", err
			}
			return "dropped entry (nothing salvageable from pack window)", nil
		}
		if err := r.quarantine(e.Object); err != nil {
			return "", err
		}
		if err := r.dropEntry(e.RunID); err != nil {
			return "", err
		}
		return "quarantined blob and dropped entry (nothing salvageable)", nil
	}
	meta := res.Meta
	if meta.RunID != e.RunID {
		// Footer lost: rebuild identity from the manifest entry.
		meta = archive.Meta{RunID: e.RunID, Workload: e.Workload, Label: e.Label,
			HostSpec: e.HostSpec, TPUVersion: e.TPUVersion, CreatedSeq: e.CreatedSeq}
	}
	rebuilt := archive.Rebuild(meta, res)
	a, err := archive.Open(rebuilt)
	if err != nil {
		return "", fmt.Errorf("repo: fsck rebuilt blob does not verify: %w", err)
	}
	target := e.Object
	if e.packed() {
		target = runObject(e.RunID)
	}
	if _, err := r.store.Put(target, rebuilt); err != nil {
		return "", err
	}
	good := r.entryFor(a, RunInfo{RunID: e.RunID, Object: target})
	if err := r.replaceEntry(good); err != nil {
		return "", err
	}
	r.m.salvagedSegs.Add(int64(res.Report.SegmentsKept))
	if e.packed() {
		return fmt.Sprintf("rebuilt out of pack into private blob (%d/%d segments, %d records kept)",
			res.Report.SegmentsKept, res.Report.SegmentsTotal, res.Report.RecordsKept), nil
	}
	return fmt.Sprintf("rebuilt from salvage (%d/%d segments, %d records kept)",
		res.Report.SegmentsKept, res.Report.SegmentsTotal, res.Report.RecordsKept), nil
}

// entryFor computes the correct manifest entry for an opened archive,
// keeping base's identity and placement fields where the archive has
// none.
func (r *Repo) entryFor(a *archive.Archive, base RunInfo) RunInfo {
	meta := a.Meta()
	first, last := a.TimeRange()
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
	}
	if info.RunID == "" {
		info.RunID = meta.RunID
	}
	if info.Object == "" {
		info.Object = runObject(info.RunID)
	}
	return info
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

// replaceEntry swaps runID's manifest entry for info.
func (r *Repo) replaceEntry(info RunInfo) error {
	return r.updateRun(info.RunID, func(m *manifest) error {
		if i := m.find(info.RunID); i >= 0 {
			m.Runs[i] = info
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
	if err := r.store.Delete(name); err != nil && !errors.Is(err, storage.ErrNotFound) {
		return err
	}
	return nil
}

// Salvage recovers runID's blob in place: every intact segment is
// re-archived into a fresh, fully valid blob and the manifest entry is
// recomputed (or created, when the blob was an orphan). A packed run's
// window is salvaged out of its pack into a private blob. The report
// itemizes what the underlying archive.Salvage kept and lost.
func (r *Repo) Salvage(runID string) (RunInfo, *archive.SalvageReport, error) {
	object := runObject(runID)
	ss, err := r.resolveShards()
	if err != nil {
		return RunInfo{}, nil, err
	}
	ms, _, err := r.loadAllShards(ss)
	if err != nil {
		return RunInfo{}, nil, err
	}
	entry := findRun(ms, runID)

	var blob []byte
	if entry != nil && entry.packed() {
		obj, gerr := r.store.Get(entry.Object)
		if errors.Is(gerr, storage.ErrNotFound) {
			return RunInfo{}, nil, fmt.Errorf("%w: %q has no blob to salvage", ErrRunNotFound, runID)
		}
		if gerr != nil {
			return RunInfo{}, nil, gerr
		}
		// Clamp the window so a corrupt offset still yields whatever
		// bytes exist for the salvager to chew on.
		off, end := entry.Offset, entry.Offset+entry.Length
		if off < 0 {
			off = 0
		}
		if end > int64(len(obj.Data)) {
			end = int64(len(obj.Data))
		}
		if off > end {
			off = end
		}
		blob = obj.Data[off:end]
	} else {
		obj, gerr := r.store.Get(object)
		if errors.Is(gerr, storage.ErrNotFound) {
			return RunInfo{}, nil, fmt.Errorf("%w: %q has no blob to salvage", ErrRunNotFound, runID)
		}
		if gerr != nil {
			return RunInfo{}, nil, gerr
		}
		blob = obj.Data
	}

	res, err := archive.Salvage(blob)
	if err != nil {
		return RunInfo{}, nil, fmt.Errorf("repo: salvage %q: %w", runID, err)
	}
	if len(res.Records) == 0 {
		return RunInfo{}, &res.Report, fmt.Errorf("repo: salvage %q: no records recoverable", runID)
	}
	meta := res.Meta
	if meta.RunID != runID {
		if entry != nil {
			meta = archive.Meta{RunID: runID, Workload: entry.Workload, Label: entry.Label,
				HostSpec: entry.HostSpec, TPUVersion: entry.TPUVersion, CreatedSeq: entry.CreatedSeq}
		} else {
			meta.RunID = runID
		}
	}
	rebuilt := archive.Rebuild(meta, res)
	a, err := archive.Open(rebuilt)
	if err != nil {
		return RunInfo{}, &res.Report, fmt.Errorf("repo: rebuilt blob does not verify: %w", err)
	}
	info := r.entryFor(a, RunInfo{RunID: runID, Object: object})

	// Journal the rewrite only for indexed runs: an open save intent on
	// an *unindexed* object would make a crash-time replay reclaim the
	// blob — for an orphan that means deleting the only copy. Leaving
	// the orphan adoption unjournaled is safe: a crash mid-way leaves a
	// valid orphan blob fsck re-adopts.
	jname := ss.journalObject(ss.shardOf(runID))
	var seq uint64
	journaled := entry != nil
	if journaled {
		intent := journalRecord{Op: opSaveBatch, Members: []packMember{{RunID: runID, Object: object}}}
		if seq, err = r.logIntentAt(jname, intent); err != nil {
			return RunInfo{}, &res.Report, err
		}
	}
	if _, err := r.store.Put(object, rebuilt); err != nil {
		return RunInfo{}, &res.Report, err
	}
	if err := r.adopt(info); err != nil {
		return RunInfo{}, &res.Report, err
	}
	if journaled {
		r.logDoneAt(jname, seq, opSaveBatch)
	}
	r.m.salvagedSegs.Add(int64(res.Report.SegmentsKept))
	r.obs.Emit("repo", "salvage",
		fmt.Sprintf("salvaged run %q: %d/%d segments, %d records",
			runID, res.Report.SegmentsKept, res.Report.SegmentsTotal, res.Report.RecordsKept))
	return info, &res.Report, nil
}

// convertLegacy rewrites a v1 single-manifest store as a sharded one
// of wantShards shards, in place — the only code that still reads
// ManifestObject and JournalObject. The caller must be the store's only
// writer. Write order makes a power cut at any boundary leave either a
// v1 store (still refused, convertible again) or a complete sharded one:
//
//  1. delete the shard documents and journals an interrupted conversion
//     to another count left (invisible while no layout object exists),
//  2. write the new shard documents, and the v1 journal's bytes as
//     shard 0's journal (still invisible) — replay does not care which
//     journal holds an intent, so the Recover that follows the
//     conversion reconciles what the v1 writer left open,
//  3. PutIf the layout object at generation 0 — the commit point,
//  4. delete the v1 manifest and journal; a cut before this leaves them
//     as foreign objects for a later fsck -repair to quarantine.
func (r *Repo) convertLegacy() (shardSet, error) {
	n := max(r.wantShards, 1)
	legacy, _, err := r.loadManifestObject(ManifestObject)
	if err != nil {
		return shardSet{}, err
	}
	maxSeq := legacy.NextSeq - 1
	for _, e := range legacy.Runs {
		if e.CreatedSeq > maxSeq {
			maxSeq = e.CreatedSeq
		}
	}
	target := shardSet{n: n, saved: true}
	docs := make([]*manifest, n)
	for i := range docs {
		docs[i] = &manifest{NextSeq: localSeqAfter(maxSeq, n, i)}
	}
	for _, e := range legacy.Runs {
		i := target.shardOf(e.RunID)
		docs[i].Runs = append(docs[i].Runs, e)
	}
	for _, prefix := range []string{shardManifestPrefix, shardJournalPrefix} {
		for _, name := range r.store.List(prefix) {
			if err := r.store.Delete(name); err != nil && !errors.Is(err, storage.ErrNotFound) {
				return shardSet{}, err
			}
		}
	}
	for i, doc := range docs {
		data, err := marshalManifest(doc)
		if err != nil {
			return shardSet{}, err
		}
		if _, err := r.store.Put(target.manifestObject(i), data); err != nil {
			return shardSet{}, err
		}
	}
	if j, err := r.store.Get(JournalObject); err == nil {
		if _, err := r.store.Put(target.journalObject(0), j.Data); err != nil {
			return shardSet{}, err
		}
	} else if !errors.Is(err, storage.ErrNotFound) {
		return shardSet{}, err
	}
	lay, err := json.Marshal(repoLayout{Version: 1, Shards: n})
	if err != nil {
		return shardSet{}, err
	}
	if _, err := r.store.PutIf(LayoutObject, lay, 0); err != nil {
		return shardSet{}, err
	}
	for _, name := range []string{ManifestObject, JournalObject} {
		if err := r.store.Delete(name); err != nil && !errors.Is(err, storage.ErrNotFound) {
			return shardSet{}, err
		}
	}
	r.layoutMu.Lock()
	r.shards = &target
	r.layoutMu.Unlock()
	r.noteSeq(maxSeq)
	r.obs.Emit("repo", "converted",
		fmt.Sprintf("converted v1 manifest (%d runs) to %d shards", len(legacy.Runs), n))
	return target, nil
}
