// Segment compaction: merging many small per-run archive blobs into
// consolidated pack objects, one workload at a time. Fleet ingest
// produces exactly the small-object pathology GCS bills for — hundreds
// of kilobyte-scale archives — so Compact concatenates verified TPAR
// blobs into a pack under runs/.pack/ and repoints each member's
// manifest entry at its byte window (RunInfo.Offset/Length). Reads
// slice the window back out (storage.RangeReader when available), and
// TPAR archives are self-contained byte ranges, so a packed member
// decodes bit-identically to its original blob.
//
// Compaction runs under the same crash-consistency contract as every
// other mutation: the pack lands before the manifest CASes that
// repoint members into it, and the superseded blobs are deleted after.
// A crash before a repoint leaves an unreferenced pack, after one an
// unreferenced old blob; the next Open of the pack's owner shard
// reclaims either (Recover). A pack's name carries that owner shard,
// and a replica packs only runs on shards it owns, so no replica's
// sweep can reclaim a pack a live peer has not repointed yet. Entries
// are only repointed while they still address the exact
// pre-compaction blob, so a member re-saved or repaired mid-compaction
// is left alone.
package repo

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"strings"

	"repro/internal/archive"
)

// PackPrefix is the object-name prefix of consolidated pack blobs.
const PackPrefix = "runs/.pack/"

// CompactOptions selects what a compaction pass covers.
type CompactOptions struct {
	// Workload restricts the pass to one workload ("" = all).
	Workload string
}

const (
	// compactMinRuns is the fewest unpacked archives that justify a
	// pack: packing one run is pure churn.
	compactMinRuns = 2
	// compactMaxBytes excludes larger archives from packing: big blobs
	// don't suffer the small-object tax.
	compactMaxBytes = 4 << 20
)

// PackInfo describes one pack a compaction pass produced.
type PackInfo struct {
	Object   string   `json:"object"`
	Workload string   `json:"workload"`
	Runs     []string `json:"runs"`
	Bytes    int64    `json:"bytes"`
}

// CompactReport summarizes a compaction pass.
type CompactReport struct {
	Packs []PackInfo `json:"packs"`
}

// Compact merges small unpacked archives into per-workload pack
// objects. Safe to run concurrently with ingest: members that change
// under the pass (re-saved, deleted, GC'd) are skipped at repoint
// time, and a pack nobody ended up referencing is deleted. A
// replica's repository (OpenShardsOwned) packs only runs on its owned
// shards, so it writes no peer's manifest. Returns what it packed; an
// empty report means nothing qualified.
func (r *Repo) Compact(opts CompactOptions) (*CompactReport, error) {
	r.compactMu.Lock()
	defer r.compactMu.Unlock()
	ss, err := r.ensureShards()
	if err != nil {
		return nil, err
	}
	ms, _, err := r.loadAllShards(ss)
	if err != nil {
		return nil, err
	}
	groups := make(map[string][]RunInfo)
	for _, e := range mergedRuns(ms) {
		if e.packed() || strings.HasPrefix(e.Object, PackPrefix) || !r.ownsShard(ss.shardOf(e.RunID)) {
			continue
		}
		if opts.Workload != "" && e.Workload != opts.Workload {
			continue
		}
		if e.Bytes > compactMaxBytes {
			continue
		}
		groups[e.Workload] = append(groups[e.Workload], e)
	}
	workloads := make([]string, 0, len(groups))
	for w := range groups {
		workloads = append(workloads, w)
	}
	sort.Strings(workloads)
	rep := &CompactReport{}
	for _, w := range workloads {
		group := groups[w]
		if len(group) < compactMinRuns {
			continue
		}
		sort.Slice(group, func(i, j int) bool {
			if group[i].CreatedSeq != group[j].CreatedSeq {
				return group[i].CreatedSeq < group[j].CreatedSeq
			}
			return group[i].RunID < group[j].RunID
		})
		if err := r.compactGroup(ss, w, group, rep); err != nil {
			return rep, err
		}
	}
	return rep, nil
}

// packMember is one run's slot in a pack: where its bytes lived before
// the pack and where they land inside it.
type packMember struct {
	RunID          string
	Object         string // pre-compaction blob
	Offset, Length int64
}

// compactGroup packs one workload's candidate runs. Write order: pack
// Put → per-shard entry repoints (each CAS commits its members) → old
// blob deletes. A crash at any boundary leaves only unreferenced
// objects behind, which the owner shard's next Open reclaims.
func (r *Repo) compactGroup(ss shardSet, workload string, group []RunInfo, rep *CompactReport) error {
	var members []packMember
	var blob []byte
	for _, e := range group {
		obj, err := r.store.Get(e.Object)
		if err != nil {
			continue // raced with a delete; skip
		}
		if _, aerr := archive.Open(obj.Data); aerr != nil {
			continue // corrupt blob — Fsck's problem, not compaction's
		}
		members = append(members, packMember{
			RunID:  e.RunID,
			Object: e.Object,
			Offset: int64(len(blob)),
			Length: int64(len(obj.Data)),
		})
		blob = append(blob, obj.Data...)
	}
	if len(members) < compactMinRuns {
		return nil
	}
	owner := ss.shardOf(members[0].RunID)
	pack := packObjectName(owner, workload, members)
	if _, err := r.store.Put(pack, blob); err != nil {
		return err
	}
	inPack, err := r.repointMembers(ss, pack, members)
	if err != nil {
		return err
	}
	// Delete exactly the blobs this pass superseded, and the pack itself
	// when every member changed under us. This is deliberately not the
	// index scan Recover uses: beside live ingest, a concurrent
	// re-save's blob is unreferenced until its manifest CAS lands, so
	// "unreferenced" does not yet mean "ours to delete".
	var packed []string
	for i, mb := range members {
		if !inPack[i] {
			continue
		}
		packed = append(packed, mb.RunID)
		if err := r.remove(mb.Object); err != nil {
			return err
		}
	}
	if len(packed) == 0 {
		return r.remove(pack)
	}
	r.m.compactPacks.Inc()
	r.m.compactRuns.Add(int64(len(packed)))
	r.m.compactBytes.Add(int64(len(blob)))
	r.shardCounter(owner, "compactions").Inc()
	r.obs.Emit("repo", "compacted",
		fmt.Sprintf("packed %d %q runs into %s (%d bytes)", len(packed), workload, pack, len(blob)))
	rep.Packs = append(rep.Packs, PackInfo{
		Object: pack, Workload: workload, Runs: packed, Bytes: int64(len(blob)),
	})
	return nil
}

// repointMembers points each member's index entry at its window of
// pack, one CAS per shard, and reports per member whether its entry
// addresses the pack afterwards. Only an entry still addressing the
// exact pre-compaction bytes is repointed — one re-saved or repaired
// since keeps its own storage — and an entry already in the pack (a
// pass cut after its repoint) counts as using it.
func (r *Repo) repointMembers(ss shardSet, pack string, members []packMember) ([]bool, error) {
	inPack := make([]bool, len(members))
	byShard := make([][]int, ss.n)
	for i, mb := range members {
		si := ss.shardOf(mb.RunID)
		byShard[si] = append(byShard[si], i)
	}
	for si, idx := range byShard {
		if len(idx) == 0 {
			continue
		}
		err := r.updateShardIdx(ss, si, func(m *manifest) error {
			for _, i := range idx {
				mb := members[i]
				inPack[i] = false
				j := m.find(mb.RunID)
				if j < 0 {
					continue
				}
				e := &m.Runs[j]
				if e.Object != pack {
					if e.Object != mb.Object || e.packed() || e.Bytes != mb.Length {
						continue
					}
					e.Object, e.Offset, e.Length = pack, mb.Offset, mb.Length
				}
				inPack[i] = true
			}
			return nil
		})
		if err != nil {
			return inPack, err
		}
	}
	return inPack, nil
}

// packObjectName derives a deterministic pack name from its owner
// shard, the workload and the member set — no wall clock, no sequence
// burn, and distinct member sets never collide in practice (FNV-1a over
// the ordered run IDs). Re-running a crashed pass regenerates the same
// name, which is harmless: the Put overwrites the identical bytes.
func packObjectName(owner int, workload string, members []packMember) string {
	h := fnv.New64a()
	for _, mb := range members {
		h.Write([]byte(mb.RunID))
		h.Write([]byte{0})
	}
	return fmt.Sprintf("%s%d/%s-%016x", PackPrefix, owner, sanitizeForObject(workload), h.Sum64())
}

// packShard returns the owner shard a pack's name carries. A pack named
// by an older build (runs/.pack/<workload>-<hash>) carries none.
func packShard(name string) (int, bool) {
	dir, _, ok := strings.Cut(strings.TrimPrefix(name, PackPrefix), "/")
	if !ok {
		return 0, false
	}
	i, err := strconv.Atoi(dir)
	return i, err == nil
}

// sanitizeForObject maps a workload name onto the object-name-safe
// alphabet the pack prefix uses.
func sanitizeForObject(s string) string {
	if s == "" {
		return "workload"
	}
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_', c == '.':
			out = append(out, c)
		default:
			out = append(out, '_')
		}
	}
	return string(out)
}
