// Sharded index layout: the repository's one on-disk layout.
//
// With every run in a single index document, every Save/Delete/GC/
// NextSeq contends on one CAS object — at fleet scale the writers
// livelock on the index. The repository therefore hashes run IDs
// (FNV-1a) across M manifest shards (M = 1 unless asked otherwise),
// each with its own CAS loop:
//
//	runs/.layout           — {"version":1,"shards":M}
//	runs/manifest-<i>.json — shard i's index + local seq allocator
//
// Reads (List, Fsck, GC victim ranking) scatter-gather the merged view;
// writes route to the one shard that owns the run ID, so unrelated runs
// never contend. Sequence numbers come from per-shard blocks: shard i's
// document stores a local counter L and the global sequence is
// (L-1)*M + i + 1, so blocks from different shards interleave without
// colliding and a process leases seqBlockSize locals per CAS
// round-trip instead of one.
//
// The layout object is written with PutIf(gen 0) before the first index
// mutation, so concurrent creators agree on one shard count. A store
// holding the v1 single-manifest index (runs/manifest.json, no layout
// object) is refused with ErrLegacyLayout; nothing converts one.
package repo

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/storage"
)

// LayoutObject is the bucket object declaring the shard count. A store
// without one is fresh, or (with a v1 manifest) refused.
const LayoutObject = "runs/.layout"

// DefaultShards is the shard count the CLI and benchmarks use when
// asked for a sharded repository without an explicit count.
const DefaultShards = 8

// MaxShards bounds the layout: more shards than this is a corrupt or
// hostile layout object, not a configuration.
const MaxShards = 64

// seqBlockSize is how many local sequence numbers one manifest CAS
// leases to the allocating process. 64 keeps NextSeq off the CAS hot
// path (one round-trip per 64 allocations) while wasting at most 64
// sequence values per process exit — gaps are harmless, only order
// matters.
const seqBlockSize = 64

const shardManifestPrefix = "runs/manifest-"

// repoLayout is the stored LayoutObject document.
type repoLayout struct {
	Version int `json:"version"`
	Shards  int `json:"shards"`
}

// shardSet is a resolved index layout: how many shards, and whether
// the layout is durable yet (a fresh store defers the layout write to
// the first mutation).
type shardSet struct {
	n     int
	saved bool
}

func (ss shardSet) manifestObject(i int) string {
	return fmt.Sprintf("%s%d.json", shardManifestPrefix, i)
}

// shardOf routes a run ID to its owning shard: FNV-1a over the ID,
// mod the shard count. Stable across processes — every reader and
// writer must agree where a run lives.
func (ss shardSet) shardOf(runID string) int {
	return shardIndex(runID, ss.n)
}

func shardIndex(runID string, n int) int {
	if n <= 1 {
		return 0
	}
	h := fnv.New64a()
	h.Write([]byte(runID))
	return int(h.Sum64() % uint64(n))
}

// resolveShards determines the store's layout: an existing layout
// object wins; without one a v1 manifest is refused, and a fresh store
// takes wantShards (OpenShards' target, 1 when unset). The result is
// cached once durable; an undurable fresh layout is re-probed every
// call so a concurrent creator's layout is adopted.
func (r *Repo) resolveShards() (shardSet, error) {
	r.layoutMu.Lock()
	defer r.layoutMu.Unlock()
	if r.shards != nil && r.shards.saved {
		return *r.shards, nil
	}
	var ss shardSet
	obj, err := r.store.Get(LayoutObject)
	switch {
	case err == nil:
		var lay repoLayout
		if jerr := json.Unmarshal(obj.Data, &lay); jerr != nil {
			return shardSet{}, fmt.Errorf("repo: corrupt layout object: %w", jerr)
		}
		if lay.Shards < 1 || lay.Shards > MaxShards {
			return shardSet{}, fmt.Errorf("repo: layout declares %d shards (want 1..%d)", lay.Shards, MaxShards)
		}
		ss = shardSet{n: lay.Shards, saved: true}
	case errors.Is(err, storage.ErrNotFound):
		if r.store.Exists(legacyManifestObject) {
			// An indexed store without a layout object is a v1
			// repository: reading it as fresh would hide its runs.
			return shardSet{}, ErrLegacyLayout
		}
		ss = shardSet{n: max(r.wantShards, 1)}
	default:
		return shardSet{}, err
	}
	r.shards = &ss
	return ss, nil
}

// ensureShards is resolveShards plus layout durability: a fresh store
// gets its layout object written (PutIf gen 0) before
// the first index mutation, adopting a concurrent creator's layout on
// a lost race.
func (r *Repo) ensureShards() (shardSet, error) {
	ss, err := r.resolveShards()
	if err != nil || ss.saved {
		return ss, err
	}
	data, err := json.Marshal(repoLayout{Version: 1, Shards: ss.n})
	if err != nil {
		return shardSet{}, err
	}
	if _, perr := r.store.PutIf(LayoutObject, data, 0); perr != nil {
		if errors.Is(perr, storage.ErrGenerationMismatch) {
			r.invalidateLayout()
			return r.resolveShards()
		}
		return shardSet{}, perr
	}
	r.layoutMu.Lock()
	if r.shards != nil && r.shards.n == ss.n {
		r.shards.saved = true
	}
	r.layoutMu.Unlock()
	ss.saved = true
	return ss, nil
}

func (r *Repo) invalidateLayout() {
	r.layoutMu.Lock()
	r.shards = nil
	r.layoutMu.Unlock()
}

func marshalManifest(m *manifest) ([]byte, error) {
	return json.MarshalIndent(m, "", "  ")
}

// loadManifestObject reads one manifest document and its generation
// (0 = not created yet). A missing document is an empty shard.
func (r *Repo) loadManifestObject(name string) (*manifest, int64, error) {
	obj, err := r.store.Get(name)
	if errors.Is(err, storage.ErrNotFound) {
		return &manifest{NextSeq: 1}, 0, nil
	}
	if err != nil {
		return nil, 0, err
	}
	var m manifest
	if err := json.Unmarshal(obj.Data, &m); err != nil {
		return nil, 0, fmt.Errorf("repo: corrupt manifest %s: %w", name, err)
	}
	if m.NextSeq == 0 {
		m.NextSeq = 1
	}
	return &m, obj.Generation, nil
}

// loadAllShards reads every shard's manifest, index-aligned with the
// shard set.
func (r *Repo) loadAllShards(ss shardSet) ([]*manifest, []int64, error) {
	ms := make([]*manifest, ss.n)
	gens := make([]int64, ss.n)
	for i := 0; i < ss.n; i++ {
		m, gen, err := r.loadManifestObject(ss.manifestObject(i))
		if err != nil {
			return nil, nil, err
		}
		ms[i], gens[i] = m, gen
	}
	return ms, gens, nil
}

// mergedRuns flattens the per-shard indexes into one view. Order is
// shard-major; callers that care sort by (CreatedSeq, RunID).
func mergedRuns(ms []*manifest) []RunInfo {
	var out []RunInfo
	for _, m := range ms {
		out = append(out, m.Runs...)
	}
	return out
}

func findRun(ms []*manifest, runID string) *RunInfo {
	for _, m := range ms {
		if i := m.find(runID); i >= 0 {
			return &m.Runs[i]
		}
	}
	return nil
}

// casBackoff sleeps before CAS retry `attempt` (>= 1): bounded
// exponential with full jitter. The delay sequence comes from
// internal/prng (deterministic per repository instance) and goes
// through the injectable sleeper, so tests assert the schedule without
// a wall clock. Full jitter — uniform in [0, ceil) — decorrelates
// retries better than equal or half jitter when hundreds of writers
// collide on one shard generation.
func (r *Repo) casBackoff(attempt int) {
	shift := attempt
	if shift > casBackoffMaxShift {
		shift = casBackoffMaxShift
	}
	ceil := casBackoffBase << shift
	r.rngMu.Lock()
	d := time.Duration(r.rng.Float64() * float64(ceil))
	r.rngMu.Unlock()
	r.sleep(d)
}

const (
	// casBackoffBase is the first retry's jitter ceiling; each further
	// retry doubles it up to casBackoffMaxShift. 20µs<<9 ≈ 10ms keeps
	// even the deepest backoff far below an RPC timeout.
	casBackoffBase     = 20 * time.Microsecond
	casBackoffMaxShift = 9
)

// updateShardIdx applies mut to shard i's manifest under a CAS loop
// with jittered backoff. mut may be called multiple times; it must be
// idempotent on its input. Exhausting the retry budget surfaces
// ErrManifestContention — but with backoff that takes casRetries
// *distinct* winning writers during this call's lifetime, so in
// practice the loop terminates long before (every CAS failure proves
// someone else committed).
func (r *Repo) updateShardIdx(ss shardSet, i int, mut func(*manifest) error) error {
	name := ss.manifestObject(i)
	for attempt := 0; attempt < casRetries; attempt++ {
		if attempt > 0 {
			r.casBackoff(attempt)
		}
		m, gen, err := r.loadManifestObject(name)
		if err != nil {
			return err
		}
		if err := mut(m); err != nil {
			return err
		}
		data, err := json.MarshalIndent(m, "", "  ")
		if err != nil {
			return err
		}
		if _, err := r.store.PutIf(name, data, gen); err == nil {
			return nil
		} else if !errors.Is(err, storage.ErrGenerationMismatch) {
			return err
		}
		r.m.casRetries.Inc()
		r.shardCounter(i, "cas_retries").Inc()
	}
	r.m.casExhausted.Inc()
	return fmt.Errorf("%w: shard %d still contended after %d attempts", ErrManifestContention, i, casRetries)
}

// updateRun routes mut to the shard owning runID.
func (r *Repo) updateRun(runID string, mut func(*manifest) error) error {
	ss, err := r.ensureShards()
	if err != nil {
		return err
	}
	return r.updateShardIdx(ss, ss.shardOf(runID), mut)
}

// shardCounter returns the per-shard instrument named
// repo.shard.<i>.<what>. Registry lookups are idempotent and nil-safe,
// so this is cheap enough for the contended path.
func (r *Repo) shardCounter(i int, what string) *obs.Counter {
	return r.obs.Counter(fmt.Sprintf("repo.shard.%d.%s", i, what))
}

// seqLease is a process-local block of global sequence numbers: the
// arithmetic progression next, next+stride, ... below end.
type seqLease struct {
	next   uint64
	end    uint64
	stride uint64
}

// localSeqAfter returns the smallest shard-j local counter whose global
// sequence exceeds seq, for an n-shard layout (global(L) =
// (L-1)*n + j + 1). With n=1, j=0 it degenerates to seq+1 — exactly
// the v1 allocator's bump.
func localSeqAfter(seq uint64, n, j int) uint64 {
	if seq <= uint64(j) {
		return 1
	}
	return (seq-uint64(j)-1)/uint64(n) + 2
}

// leaseSeqBlock leases seqBlockSize local sequence numbers from the
// next shard in rotation. The lease skips forward past lastSeq, so
// within one process NextSeq stays strictly increasing even as leases
// move between shards; across processes blocks are disjoint because
// each comes from a CAS bump of its shard's stored counter. Caller
// holds seqMu.
func (r *Repo) leaseSeqBlock(ss shardSet) error {
	j := r.leaseShard % ss.n
	r.leaseShard++
	n := uint64(ss.n)
	floor := localSeqAfter(r.lastSeq, ss.n, j)
	var start uint64
	err := r.updateShardIdx(ss, j, func(m *manifest) error {
		start = m.NextSeq
		if start < floor {
			start = floor
		}
		m.NextSeq = start + seqBlockSize
		return nil
	})
	if err != nil {
		return err
	}
	r.lease = seqLease{
		next:   (start-1)*n + uint64(j) + 1,
		end:    (start-1+seqBlockSize)*n + uint64(j) + 1,
		stride: n,
	}
	return nil
}

// noteSeq records an externally observed sequence number (an adopted
// orphan) so future allocations stay above it; a lease that would
// re-issue at or below seq is dropped.
func (r *Repo) noteSeq(seq uint64) {
	r.seqMu.Lock()
	if seq > r.lastSeq {
		r.lastSeq = seq
	}
	if r.lease.stride != 0 && r.lease.next <= seq {
		r.lease = seqLease{}
	}
	r.seqMu.Unlock()
}

// Shards reports the repository's shard count.
func (r *Repo) Shards() (int, error) {
	ss, err := r.resolveShards()
	if err != nil {
		return 0, err
	}
	return ss.n, nil
}

// repoSeedCounter decorrelates the backoff jitter streams of multiple
// repositories in one process without consulting a wall clock.
var repoSeedCounter uint64

func nextRepoSeed() uint64 {
	return 0x7470757073686172 + atomic.AddUint64(&repoSeedCounter, 1)*0x9e3779b97f4a7c15
}

// isShardManifestObject reports whether name is a shard manifest
// document (runs/manifest-<i>.json).
func isShardManifestObject(name string) bool {
	return strings.HasPrefix(name, shardManifestPrefix) && strings.HasSuffix(name, ".json")
}
