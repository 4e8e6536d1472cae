// Package repo is the multi-run profile repository: an index of
// profile archives (internal/archive) stored in a bucket, plus the
// cross-run diff engine the paper's evaluation implies — every table
// comparing BERT to DCGAN or TPUv2 to TPUv3 is a query over a
// collection of runs, and this package makes that collection durable
// and addressable.
//
// Layout inside the bucket:
//
//	runs/.layout           — the shard count M (1 unless asked otherwise)
//	runs/manifest-<i>.json — shard i's JSON index + seq allocator
//	runs/<run-id>/archive  — the archive blob
//
// The index is split across M manifest shards hashed by run ID (see
// shard.go), each with its own CAS loop. Small archives may be
// consolidated into pack objects under runs/.pack/ (see compact.go); a
// manifest entry then addresses a byte window of the shared pack.
// An entry also records its archive footer's length and CRC32C, so a
// diff (Compare) reads each run's footer with one ranged read, checked
// against the manifest (Summary), rather than the whole archive.
//
// Manifests are updated with a compare-and-swap loop over
// storage.Bucket.PutIf, so concurrent writers (the fleet endpoint
// finalizing several sessions at once) serialize safely: each retry
// re-reads the latest manifest at its generation, backs off with
// deterministic jitter, and re-applies its mutation.
//
// The manifest CAS is the only commit point. Every mutation writes its
// objects before the CAS that references them and deletes what it
// un-references after, so a process death at any write boundary leaves
// at worst objects no manifest references; Open reclaims those on the
// shards the handle owns (Recover in fsck.go) — see the recovery
// invariants in DESIGN.md and the power-cut property suite in
// crash_test.go.
package repo

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/archive"
	"repro/internal/obs"
	"repro/internal/prng"
	"repro/internal/rpc"
	"repro/internal/simclock"
	"repro/internal/storage"
)

// Store is the mutable object-store surface the repository (and the
// fleet endpoint's durable session logs) write through. *storage.Bucket
// and *storage.DirStore implement it directly; fault decorators
// (faultnet.CrashStore) wrap it to script power cuts at write
// boundaries. Put, PutIf and Append return the object's name and new
// generation only: contents come from Get, or from GetRange on stores
// that additionally implement storage.RangeReader, which serves a
// packed run without materializing the whole pack.
type Store interface {
	Get(name string) (*storage.Object, error)
	Put(name string, data []byte) (*storage.Object, error)
	PutIf(name string, data []byte, gen int64) (*storage.Object, error)
	Append(name string, data []byte) (*storage.Object, error)
	Delete(name string) error
	Exists(name string) bool
	List(prefix string) []string
}

var (
	_ Store = (*storage.Bucket)(nil)
	_ Store = (*storage.DirStore)(nil)
)

// legacyManifestObject is the object that held the run index in the v1
// single-manifest layout. Nothing reads or writes it; it is named only
// so that a store holding one is refused (resolveShards).
const legacyManifestObject = "runs/manifest.json"

// casRetries bounds a manifest shard's compare-and-swap loop. Every
// failed CAS proves some other writer committed, so with backoff the
// budget is consumed only while distinct writers keep winning — 512
// outlasts any realistic burst (256 concurrent agents each commit once
// and drain) without spinning forever on a truly wedged store.
const casRetries = 512

// Repository errors.
var (
	ErrRunExists   = errors.New("repo: run already exists")
	ErrRunNotFound = errors.New("repo: run not found")
	// ErrManifestContention wraps rpc.ErrBusy: a CAS loop that exhausts
	// its retries is a saturated-but-alive repository, exactly the
	// condition rpc.IsTransient tells ReconnectClient and fleet agents
	// to back off and retry rather than surface to an acked writer.
	ErrManifestContention = fmt.Errorf("repo: manifest contention: %w", rpc.ErrBusy)
	// ErrLegacyLayout refuses a store that holds the v1 single-manifest
	// index (runs/manifest.json) and no layout object. Every constructor
	// and every read returns it rather than treat the store as empty;
	// nothing converts it.
	ErrLegacyLayout = errors.New("repo: v1 single-manifest layout (" + legacyManifestObject + " without " +
		LayoutObject + ") is not supported")
)

// RunInfo is one manifest entry: everything list/show need without
// opening the archive blob. A packed run (compact.go) sets Object to
// the shared pack and Offset/Length to its byte window; Length == 0
// means the object is the run's private blob. FooterLen and FooterCRC
// are the archive footer's length and CRC32C (archive.Footer), which
// let Summary read and check the footer alone; an entry an older build
// wrote has neither, and Summary reads it whole.
type RunInfo struct {
	RunID      string        `json:"run_id"`
	Workload   string        `json:"workload"`
	Label      string        `json:"label,omitempty"`
	Tenant     string        `json:"tenant,omitempty"`
	HostSpec   string        `json:"host_spec,omitempty"`
	TPUVersion string        `json:"tpu_version,omitempty"`
	CreatedSeq uint64        `json:"created_seq"`
	Records    int64         `json:"records"`
	Windows    int64         `json:"windows"`
	Bytes      int64         `json:"bytes"`
	TimeFirst  simclock.Time `json:"time_first"`
	TimeLast   simclock.Time `json:"time_last"`
	Object     string        `json:"object"`
	Offset     int64         `json:"offset,omitempty"`
	Length     int64         `json:"length,omitempty"`
	FooterLen  int64         `json:"footer_len,omitempty"`
	FooterCRC  uint32        `json:"footer_crc,omitempty"`
}

// packed reports whether the entry addresses a window of a shared pack
// object rather than a private blob.
func (info RunInfo) packed() bool { return info.Length > 0 }

// manifest is the stored index document (one per shard; NextSeq is the
// shard-local sequence counter — see shard.go for the global mapping).
type manifest struct {
	NextSeq uint64    `json:"next_seq"`
	Runs    []RunInfo `json:"runs"`
}

func (m *manifest) find(runID string) int {
	for i := range m.Runs {
		if m.Runs[i].RunID == runID {
			return i
		}
	}
	return -1
}

// repoMetrics are the repository's recovery/durability instruments.
type repoMetrics struct {
	reclaimed    *obs.Counter
	fsckIssues   *obs.Counter
	fsckRepairs  *obs.Counter
	salvagedSegs *obs.Counter
	casRetries   *obs.Counter
	casExhausted *obs.Counter
	compactPacks *obs.Counter
	compactRuns  *obs.Counter
	compactBytes *obs.Counter
}

func newRepoMetrics(r *obs.Registry) repoMetrics {
	return repoMetrics{
		reclaimed:    r.Counter("repo.recover.reclaimed"),
		fsckIssues:   r.Counter("repo.fsck.issues"),
		fsckRepairs:  r.Counter("repo.fsck.repairs"),
		salvagedSegs: r.Counter("repo.salvage.segments.recovered"),
		casRetries:   r.Counter("repo.manifest.cas.retries"),
		casExhausted: r.Counter("repo.manifest.cas.exhausted"),
		compactPacks: r.Counter("repo.compact.packs"),
		compactRuns:  r.Counter("repo.compact.runs"),
		compactBytes: r.Counter("repo.compact.bytes"),
	}
}

// Repo is a run repository over one store. Safe for concurrent use:
// all index mutations go through per-shard manifest CAS loops, and
// every object is written before the CAS that references it, so a
// crash at any write boundary is recoverable.
type Repo struct {
	store Store
	obs   *obs.Registry
	m     repoMetrics

	wantShards int        // shard count for a fresh store; 0 = 1
	layoutMu   sync.Mutex // guards shards
	shards     *shardSet  // cached layout; nil until resolved

	// owned scopes Recover's sweep and Compact to these shard indices
	// (OpenShardsOwned). Nil means every shard — the standalone,
	// sole-writer default.
	owned []int

	seqMu      sync.Mutex // guards the seq lease state below
	lease      seqLease
	leaseShard int    // rotation cursor for the next block lease
	lastSeq    uint64 // highest seq issued or observed by this process

	sleep func(time.Duration) // CAS backoff sleeper; injectable in tests
	rngMu sync.Mutex
	rng   *prng.Source

	inflightMu sync.Mutex
	inflight   map[string]struct{} // run IDs with an in-process Save

	compactMu sync.Mutex // serializes Compact within the process
}

// New returns a repository over store. An empty store is an empty
// 1-shard repository; no initialization is needed (the layout object
// lands with the first mutation). New does NOT sweep, so it is the
// constructor for a reader that shares the store with live writers
// (the CLI's read-only verbs: reads never write) and for a repair that
// re-adopts orphans (Fsck(true), Salvage). A writer uses Open, which
// first reclaims the debris of a crashed predecessor. New cannot fail,
// so a v1 store is refused by the first operation instead
// (ErrLegacyLayout).
func New(store Store) *Repo {
	return &Repo{
		store:    store,
		m:        newRepoMetrics(nil),
		sleep:    time.Sleep,
		rng:      prng.New(nextRepoSeed()),
		inflight: make(map[string]struct{}),
	}
}

// Open returns a repository over store after Recover has reclaimed
// every object no manifest references, so what a previous process left
// half done is settled before any new mutation starts. The sweep also
// reclaims the object a live writer on the same store has Put but not
// yet committed, so the caller must be the store's only writer (a
// replica of several uses OpenShardsOwned).
func Open(store Store) (*Repo, *RecoveryReport, error) {
	return OpenShards(store, 0)
}

// OpenShards is Open with a shard count for a fresh store (0 = 1); an
// existing repository keeps its recorded count. A v1 store is refused
// with ErrLegacyLayout before anything is swept or written.
func OpenShards(store Store, shards int) (*Repo, *RecoveryReport, error) {
	if shards > MaxShards {
		return nil, nil, fmt.Errorf("repo: %d shards exceeds the %d maximum", shards, MaxShards)
	}
	r := New(store)
	r.wantShards = shards
	rep, err := r.Recover()
	if err != nil {
		return nil, nil, err
	}
	return r, rep, nil
}

// OpenShardsOwned is OpenShards for one replica of a collector fleet
// sharing the store: the sweep (and later Compact) touches ONLY objects
// of the owned shards, because peer replicas may be alive with writes
// in flight on theirs — a full sweep would reclaim their uncommitted
// blobs and packs. A fresh store initializes the layout via the usual
// PutIf(gen 0) race, which concurrent replicas lose gracefully.
//
// owned was computed from shards, and placement uses the stored count,
// so an existing repository whose count differs from a non-zero shards
// is an error: sweeping by the wrong count would skip some owned
// objects and touch some of a peer's.
//
// Ownership changes are the caller's contract: a replica must be
// opened with exactly the shards its current ReplicaConfig assigns
// (OwnedShards), so an adopted shard's debris is reclaimed by its new
// owner before that owner writes to it.
func OpenShardsOwned(store Store, shards int, owned []int) (*Repo, *RecoveryReport, error) {
	if shards > MaxShards {
		return nil, nil, fmt.Errorf("repo: %d shards exceeds the %d maximum", shards, MaxShards)
	}
	r := New(store)
	r.wantShards = shards
	r.owned = append([]int{}, owned...)
	if ss, err := r.resolveShards(); err != nil {
		return nil, nil, err
	} else if shards != 0 && ss.n != shards {
		return nil, nil, fmt.Errorf("repo: store is laid out in %d shards, not the %d asked for", ss.n, shards)
	}
	rep, err := r.Recover()
	if err != nil {
		return nil, nil, err
	}
	return r, rep, nil
}

// SetObs points the repository's durability metrics (objects reclaimed,
// fsck repairs, salvage counts, CAS contention, compaction volume) and
// recovery events at reg.
func (r *Repo) SetObs(reg *obs.Registry) {
	r.obs = reg
	r.m = newRepoMetrics(reg)
}

func runObject(runID string) string { return "runs/" + runID + "/archive" }

// checkRunID refuses a run ID that is not one path segment. A run's blob
// is runs/<id>/archive, so an empty ID, one holding a separator, "." or
// ".." names an object outside the run's own directory (or none that
// classifyObject reads back as the run's), and an ID starting with "."
// is reserved for the repository's bookkeeping (runs/.layout,
// runs/.pack/...).
func checkRunID(id string) error {
	if id == "" || strings.ContainsAny(id, `/\`) || id[0] == '.' {
		return fmt.Errorf("repo: run ID %q is not one path segment (non-empty, no / or \\, not starting with .)", id)
	}
	return nil
}

// NextSeq allocates the next logical creation sequence number. Archives
// carry it as Meta.CreatedSeq so listings sort by creation order
// without any wall clock (deterministic runs stay deterministic).
// Allocation is block-leased: one manifest CAS buys seqBlockSize
// values, and within a process the returned values are strictly
// increasing even as leases rotate across shards (see shard.go).
func (r *Repo) NextSeq() (uint64, error) {
	ss, err := r.ensureShards()
	if err != nil {
		return 0, err
	}
	r.seqMu.Lock()
	defer r.seqMu.Unlock()
	if r.lease.stride != uint64(ss.n) || r.lease.next >= r.lease.end {
		if err := r.leaseSeqBlock(ss); err != nil {
			return 0, err
		}
	}
	seq := r.lease.next
	r.lease.next += r.lease.stride
	r.lastSeq = seq
	return seq, nil
}

// beginInflight claims runID for an in-process Save; a second
// concurrent claim fails, closing the duplicate-save race without any
// storage round-trip.
func (r *Repo) beginInflight(runID string) bool {
	r.inflightMu.Lock()
	defer r.inflightMu.Unlock()
	if _, busy := r.inflight[runID]; busy {
		return false
	}
	r.inflight[runID] = struct{}{}
	return true
}

func (r *Repo) endInflight(runID string) {
	r.inflightMu.Lock()
	delete(r.inflight, runID)
	r.inflightMu.Unlock()
}

// Save validates blob as an archive, stores it, and indexes the run on
// the shard owning its ID. The archive's Meta.RunID must be one path
// segment (checkRunID) and unused. It is a commit round of one
// (commitSaves), run inline on the caller's goroutine.
func (r *Repo) Save(blob []byte) (info RunInfo, err error) {
	r.commitSaves([][]byte{blob}, nil, func(_ int, i RunInfo, e error) { info, err = i, e })
	return info, err
}

// pendingSave is one described, inflight-claimed member of a commit
// round; i is its index in the round, for the answer.
type pendingSave struct {
	i    int
	info RunInfo
	blob []byte
}

// commitSaves is the repository's one save path: a round of archive
// blobs, each answered exactly once through answer(i, info, err) with
// i its index in blobs. Every blob is opened and described once, its
// run ID claimed against concurrent in-process saves, and the round is
// committed shard by shard (commitShardSaves). rc, when set, refuses
// runs on shards that replica does not own — a misrouted finalize must
// fail loudly, not silently break the single-writer invariant a
// replica's lane relies on.
func (r *Repo) commitSaves(blobs [][]byte, rc *ReplicaConfig, answer func(i int, info RunInfo, err error)) {
	ss, err := r.ensureShards()
	if err != nil {
		for i := range blobs {
			answer(i, RunInfo{}, err)
		}
		return
	}
	byShard := make([][]*pendingSave, ss.n)
	for i, blob := range blobs {
		a, err := archive.Open(blob)
		if err != nil {
			answer(i, RunInfo{}, fmt.Errorf("repo: refusing to save: %w", err))
			continue
		}
		info := r.entryFor(a, RunInfo{})
		if err := checkRunID(info.RunID); err != nil {
			answer(i, RunInfo{}, err)
			continue
		}
		si := ss.shardOf(info.RunID)
		if rc != nil && rc.Owner(si) != rc.ID {
			answer(i, RunInfo{}, fmt.Errorf("repo: run %q on shard %d belongs to replica %d, not %d",
				info.RunID, si, rc.Owner(si), rc.ID))
			continue
		}
		// Two saves of one run ID in this process share the blob object
		// name; the first claim wins, so the loser never writes or
		// deletes bytes the winner owns.
		if !r.beginInflight(info.RunID) {
			answer(i, RunInfo{}, fmt.Errorf("%w: %q (save in flight)", ErrRunExists, info.RunID))
			continue
		}
		defer r.endInflight(info.RunID)
		byShard[si] = append(byShard[si], &pendingSave{i: i, info: info, blob: blob})
	}
	for si, group := range byShard {
		if len(group) > 0 {
			r.commitShardSaves(ss, si, group, answer)
		}
	}
}

// commitShardSaves lands one shard's share of a round: duplicate
// pre-check, the blob Puts, then ONE manifest CAS appending every
// entry — the commit point. The blobs land before the index, so a
// crash at any boundary leaves at worst blobs no entry references,
// which the shard owner's next Open reclaims (Recover).
func (r *Repo) commitShardSaves(ss shardSet, si int, group []*pendingSave, answer func(i int, info RunInfo, err error)) {
	fail := func(group []*pendingSave, err error) {
		for _, p := range group {
			answer(p.i, RunInfo{}, err)
		}
	}
	exists := func(p *pendingSave) {
		answer(p.i, RunInfo{}, fmt.Errorf("%w: %q", ErrRunExists, p.info.RunID))
	}
	mname := ss.manifestObject(si)

	// Duplicates drop out BEFORE any blob is written: the blob object
	// name is the run's, so a duplicate's Put would overwrite the
	// committed run's bytes.
	m, _, err := r.loadManifestObject(mname)
	if err != nil {
		fail(group, err)
		return
	}
	live := group[:0]
	for _, p := range group {
		if m.find(p.info.RunID) >= 0 {
			exists(p)
			continue
		}
		live = append(live, p)
	}
	if len(live) == 0 {
		return
	}

	// undo holds members whose blob must not outlive this round: a Put
	// that failed may have half-landed, a Put that succeeded may fail to
	// be indexed.
	var stored, undo []*pendingSave
	for _, p := range live {
		if _, perr := r.store.Put(p.info.Object, p.blob); perr != nil {
			answer(p.i, RunInfo{}, perr)
			undo = append(undo, p)
			continue
		}
		stored = append(stored, p)
	}

	var won, lost []*pendingSave
	if len(stored) > 0 {
		err = r.updateShardIdx(ss, si, func(m *manifest) error {
			// mut reruns on CAS retry against a re-read manifest:
			// partition afresh each attempt.
			won, lost = won[:0], lost[:0]
			for _, p := range stored {
				if m.find(p.info.RunID) >= 0 {
					lost = append(lost, p)
					continue
				}
				m.Runs = append(m.Runs, p.info)
				won = append(won, p)
			}
			if len(won) == 0 {
				return ErrRunExists // nothing left to swap in
			}
			return nil
		})
		if err != nil {
			// No entry of ours landed. Re-verify under the shard index
			// before rolling back: a run found there was committed by
			// another writer after our pre-check, and the blob (the
			// object name is shared) now belongs to its entry.
			won, lost = nil, nil
			mv, _, lerr := r.loadManifestObject(mname)
			for _, p := range stored {
				if lerr == nil && mv.find(p.info.RunID) >= 0 {
					lost = append(lost, p)
					continue
				}
				answer(p.i, RunInfo{}, err)
				undo = append(undo, p)
			}
		}
	}

	// A delete that fails (flaky or dead storage) leaves an unreferenced
	// blob, which the next Open reclaims.
	for _, p := range undo {
		_ = r.remove(p.info.Object)
	}
	for _, p := range lost {
		exists(p)
	}
	for _, p := range won {
		answer(p.i, p.info, nil)
	}
}

// Filter selects runs for List; zero fields match everything.
type Filter struct {
	Workload string
	Label    string
	Tenant   string
}

func (f Filter) match(info RunInfo) bool {
	if f.Workload != "" && info.Workload != f.Workload {
		return false
	}
	if f.Label != "" && info.Label != f.Label {
		return false
	}
	if f.Tenant != "" && info.Tenant != f.Tenant {
		return false
	}
	return true
}

// List returns matching runs from every shard, sorted by creation
// sequence (run ID as a tiebreak so listings are total-ordered even if
// a foreign tool minted colliding sequences).
func (r *Repo) List(f Filter) ([]RunInfo, error) {
	ss, err := r.resolveShards()
	if err != nil {
		return nil, err
	}
	ms, _, err := r.loadAllShards(ss)
	if err != nil {
		return nil, err
	}
	var out []RunInfo
	for _, info := range mergedRuns(ms) {
		if f.match(info) {
			out = append(out, info)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].CreatedSeq != out[j].CreatedSeq {
			return out[i].CreatedSeq < out[j].CreatedSeq
		}
		return out[i].RunID < out[j].RunID
	})
	return out, nil
}

// Info returns one run's manifest entry.
func (r *Repo) Info(runID string) (RunInfo, error) {
	ss, err := r.resolveShards()
	if err != nil {
		return RunInfo{}, err
	}
	m, _, err := r.loadManifestObject(ss.manifestObject(ss.shardOf(runID)))
	if err != nil {
		return RunInfo{}, err
	}
	i := m.find(runID)
	if i < 0 {
		return RunInfo{}, fmt.Errorf("%w: %q", ErrRunNotFound, runID)
	}
	return m.Runs[i], nil
}

// wholeEntry is the window length that makes readEntryBytes read every
// byte an entry addresses.
const wholeEntry = -1

// readEntryBytes fetches n bytes at off of the archive an entry
// addresses — its private blob, or its window of the shared pack — or
// all of it when n is wholeEntry (off is then ignored). Stores exposing
// storage.RangeReader serve every read but a whole private blob with a
// ranged read; others fall back to whole-object Get plus slice. A
// missing object is storage.ErrNotFound and a window the entry or its
// object does not contain storage.ErrRangeOutsideObject on both arms, so
// callers can tell a phantom entry from a corrupt one from a failing
// store.
func (r *Repo) readEntryBytes(info RunInfo, off, n int64) ([]byte, error) {
	outside := func() error {
		return fmt.Errorf("%w: %d bytes at %d of %s", storage.ErrRangeOutsideObject, n, off, info.Object)
	}
	if info.packed() {
		if n == wholeEntry {
			off, n = 0, info.Length
		}
		if off < 0 || n < 0 || off > info.Length-n {
			return nil, outside()
		}
		// Into object coordinates. A negative pack offset stays negative
		// for the store to refuse, after it has checked the object exists.
		if info.Offset < 0 {
			off = info.Offset
		} else {
			off += info.Offset
		}
	}
	if rr, ok := r.store.(storage.RangeReader); ok && n != wholeEntry {
		return rr.GetRange(info.Object, off, n)
	}
	obj, err := r.store.Get(info.Object)
	if err != nil {
		return nil, err
	}
	if n == wholeEntry {
		return obj.Data, nil
	}
	part, whole := window(obj.Data, off, n)
	if !whole {
		return nil, outside()
	}
	return part, nil
}

// window returns the bytes of data that [off, off+n) covers, and
// whether that is the whole window. Nothing is added to off, so a
// hostile offset or length cannot overflow.
func window(data []byte, off, n int64) (part []byte, whole bool) {
	size := int64(len(data))
	if off < 0 || off > size || n < 0 {
		return nil, false
	}
	if n > size-off {
		return data[off:], false
	}
	return data[off : off+n], true
}

// Get opens a run's archive, verifying every segment.
func (r *Repo) Get(runID string) (RunInfo, *archive.Archive, error) {
	info, err := r.Info(runID)
	if err != nil {
		return RunInfo{}, nil, err
	}
	blob, err := r.readEntryBytes(info, 0, wholeEntry)
	if err != nil {
		return RunInfo{}, nil, fmt.Errorf("repo: run %q blob: %w", runID, err)
	}
	a, err := archive.Open(blob)
	if err != nil {
		return RunInfo{}, nil, fmt.Errorf("repo: run %q: %w", runID, err)
	}
	return info, a, nil
}

// Summary returns a run's manifest entry and its archive's analyzer
// summary (nil if none). It reads only the archive's tail — the last
// FooterLen+TrailerLen bytes of the entry, one ranged read — and checks
// it against the entry's FooterCRC; no segment is read or verified, so
// a corrupt segment does not fail it (Fsck does). An entry an older
// build wrote has no footer fields and is read through Get.
func (r *Repo) Summary(runID string) (RunInfo, *archive.Summary, error) {
	info, err := r.Info(runID)
	if err != nil {
		return RunInfo{}, nil, err
	}
	if info.FooterLen == 0 {
		info, a, err := r.Get(runID)
		if err != nil {
			return RunInfo{}, nil, err
		}
		return info, a.Summary(), nil
	}
	// Bytes >= TrailerLen first, so that nothing below can overflow.
	if info.FooterLen < 0 || info.Bytes < archive.TrailerLen || info.FooterLen > info.Bytes-archive.TrailerLen {
		return RunInfo{}, nil, fmt.Errorf("repo: run %q: %w: a %d-byte footer in a %d-byte archive",
			runID, storage.ErrRangeOutsideObject, info.FooterLen, info.Bytes)
	}
	n := info.FooterLen + archive.TrailerLen
	tail, err := r.readEntryBytes(info, info.Bytes-n, n)
	if err != nil {
		return RunInfo{}, nil, fmt.Errorf("repo: run %q footer: %w", runID, err)
	}
	sum, err := archive.ReadSummary(tail, info.FooterCRC)
	if err != nil {
		return RunInfo{}, nil, fmt.Errorf("repo: run %q: %w", runID, err)
	}
	return info, sum, nil
}

// deleteEntryBlob removes the storage behind a de-indexed entry. A
// private blob is deleted outright; a pack is deleted only when no
// indexed entry on any shard still references it (siblings keep their
// windows). Losing that race leaks a pack at worst, which Fsck flags
// as an orphan.
func (r *Repo) deleteEntryBlob(ss shardSet, e RunInfo) error {
	if e.Object == "" {
		return nil
	}
	if e.packed() || strings.HasPrefix(e.Object, PackPrefix) {
		ms, _, err := r.loadAllShards(ss)
		if err != nil || referencedObjects(ms)[e.Object] {
			return err
		}
	}
	return r.remove(e.Object)
}

// referencedObjects is the set of objects the index addresses: every
// private blob with an entry, and every pack while one member survives.
// It is the one test of whether an object may be deleted.
func referencedObjects(ms []*manifest) map[string]bool {
	refs := make(map[string]bool)
	for _, m := range ms {
		for _, e := range m.Runs {
			refs[e.Object] = true
		}
	}
	return refs
}

// remove deletes object; one already gone is not an error.
func (r *Repo) remove(object string) error {
	if err := r.store.Delete(object); err != nil && !errors.Is(err, storage.ErrNotFound) {
		return err
	}
	return nil
}

// Delete removes a run from its shard's index and deletes its blob
// (or, for a packed run, drops the pack once no sibling references
// it). The manifest CAS commits the delete; a crash before the blob
// delete leaves a leftover the next Open reclaims.
func (r *Repo) Delete(runID string) error {
	ss, err := r.ensureShards()
	if err != nil {
		return err
	}
	var removed RunInfo
	err = r.updateShardIdx(ss, ss.shardOf(runID), func(m *manifest) error {
		i := m.find(runID)
		if i < 0 {
			return fmt.Errorf("%w: %q", ErrRunNotFound, runID)
		}
		removed = m.Runs[i]
		m.Runs = append(m.Runs[:i], m.Runs[i+1:]...)
		return nil
	})
	if err != nil {
		return err
	}
	return r.deleteEntryBlob(ss, removed)
}

// gcDropSet returns the run IDs GC would drop from the merged view:
// everything but the newest keep runs per workload, ranked by
// (CreatedSeq, RunID) so interleaved shard allocations rank totally.
func gcDropSet(entries []RunInfo, keep int) map[string]bool {
	byWorkload := make(map[string][]RunInfo)
	for _, info := range entries {
		byWorkload[info.Workload] = append(byWorkload[info.Workload], info)
	}
	drop := make(map[string]bool)
	for _, runs := range byWorkload {
		if len(runs) <= keep {
			continue
		}
		sort.Slice(runs, func(i, j int) bool {
			if runs[i].CreatedSeq != runs[j].CreatedSeq {
				return runs[i].CreatedSeq > runs[j].CreatedSeq
			}
			return runs[i].RunID > runs[j].RunID
		})
		for _, info := range runs[keep:] {
			drop[info.RunID] = true
		}
	}
	return drop
}

// GC keeps the newest keep runs per workload (by creation sequence,
// decided over the merged cross-shard view) and deletes the rest,
// returning the deleted run IDs in deletion order. Each shard commits
// its removals under its own CAS, then deletes the victims' blobs; a
// crash in between leaves leftovers the next Open reclaims.
func (r *Repo) GC(keep int) ([]string, error) {
	if keep < 0 {
		keep = 0
	}
	ss, err := r.ensureShards()
	if err != nil {
		return nil, err
	}
	var all []string
	for si := 0; si < ss.n; si++ {
		victims, err := r.gcShard(ss, si, keep)
		all = append(all, victims...)
		if err != nil {
			return all, err
		}
	}
	return all, nil
}

// errNoVictims stops gcShard's CAS loop when the shard has nothing to
// drop, so an unchanged manifest is not rewritten.
var errNoVictims = errors.New("repo: no gc victims")

// gcShard runs one shard's GC round: recompute the global drop set
// against the shard's manifest as each CAS attempt reads it, swap the
// survivors in, then delete the victim blobs.
func (r *Repo) gcShard(ss shardSet, si, keep int) ([]string, error) {
	var victims []RunInfo
	err := r.updateShardIdx(ss, si, func(m *manifest) error {
		ms, _, err := r.loadAllShards(ss)
		if err != nil {
			return err
		}
		ms[si] = m
		drop := gcDropSet(mergedRuns(ms), keep)
		victims = victims[:0]
		kept := m.Runs[:0]
		for _, info := range m.Runs {
			if drop[info.RunID] {
				victims = append(victims, info)
			} else {
				kept = append(kept, info)
			}
		}
		if len(victims) == 0 {
			return errNoVictims
		}
		m.Runs = kept
		return nil
	})
	if errors.Is(err, errNoVictims) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	ids := make([]string, len(victims))
	for i, e := range victims {
		ids[i] = e.RunID
	}
	for _, e := range victims {
		if err := r.deleteEntryBlob(ss, e); err != nil {
			return ids, err
		}
	}
	return ids, nil
}

// Compare diffs two stored runs by ID from their summaries alone (see
// Summary for what is read, and DiffSummaries for the alignment).
func (r *Repo) Compare(aID, bID string) (*Diff, error) {
	infoA, sumA, err := r.Summary(aID)
	if err != nil {
		return nil, err
	}
	infoB, sumB, err := r.Summary(bID)
	if err != nil {
		return nil, err
	}
	d, err := DiffSummaries(sumA, sumB)
	if err != nil {
		return nil, err
	}
	d.A, d.B = infoA, infoB
	return d, nil
}
