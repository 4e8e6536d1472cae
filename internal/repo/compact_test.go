package repo

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"repro/internal/archive"
)

// workloadBlob is tinyBlob with a workload knob — compaction groups by
// workload, so the tests need more than one.
func workloadBlob(t *testing.T, runID, workload string, seq uint64) []byte {
	t.Helper()
	w := archive.NewWriter(archive.Meta{RunID: runID, Workload: workload, CreatedSeq: seq})
	for _, r := range synthRecords(3, 0) {
		w.Add(r)
	}
	return w.Finalize(nil)
}

func saveN(t *testing.T, r *Repo, workload string, n int) []string {
	t.Helper()
	ids := make([]string, n)
	for i := 0; i < n; i++ {
		seq, err := r.NextSeq()
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = fmt.Sprintf("%s-%02d", workload, i)
		if _, err := r.Save(workloadBlob(t, ids[i], workload, seq)); err != nil {
			t.Fatal(err)
		}
	}
	return ids
}

// TestCompactMergesAndPreservesReads: after a pass, every member run
// reads back bit-identically through its pack window, the old private
// blobs are gone, and the repository is fsck-clean.
func TestCompactMergesAndPreservesReads(t *testing.T) {
	bucket := newTestBucket(t)
	r := openSharded(t, bucket, 4)
	ids := saveN(t, r, "dcgan", 3)
	otherIDs := saveN(t, r, "bert", 2)

	before := map[string][]byte{}
	for _, id := range append(append([]string{}, ids...), otherIDs...) {
		blob, err := r.readEntryBytes(mustInfo(t, r, id), 0, wholeEntry)
		if err != nil {
			t.Fatal(err)
		}
		before[id] = blob
	}

	rep, err := r.Compact(CompactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Packs) != 2 {
		t.Fatalf("packed %d workloads, want 2: %+v", len(rep.Packs), rep.Packs)
	}
	for _, p := range rep.Packs {
		if !strings.HasPrefix(p.Object, PackPrefix) {
			t.Fatalf("pack object %q outside %s", p.Object, PackPrefix)
		}
	}

	for id, want := range before {
		info := mustInfo(t, r, id)
		if !info.packed() {
			t.Fatalf("run %q not repointed into a pack", id)
		}
		got, err := r.readEntryBytes(info, 0, wholeEntry)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("run %q bytes changed across compaction", id)
		}
		if _, a, err := r.Get(id); err != nil || a.Meta().RunID != id {
			t.Fatalf("packed run %q does not open cleanly: %v", id, err)
		}
		if bucket.Exists(runObject(id)) {
			t.Fatalf("old private blob for %q survived compaction", id)
		}
	}

	frep, err := r.Fsck(false)
	if err != nil {
		t.Fatal(err)
	}
	if !frep.Clean() {
		t.Fatalf("fsck after compaction: %+v", frep.Issues)
	}

	// A second pass finds nothing unpacked.
	rep2, err := r.Compact(CompactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep2.Packs) != 0 {
		t.Fatalf("second pass repacked: %+v", rep2.Packs)
	}

	// A fresh handle reads the packed runs identically.
	r2, _, err := Open(bucket)
	if err != nil {
		t.Fatal(err)
	}
	for id, want := range before {
		got, err := r2.readEntryBytes(mustInfo(t, r2, id), 0, wholeEntry)
		if err != nil || string(got) != string(want) {
			t.Fatalf("fresh handle: run %q mismatch (%v)", id, err)
		}
	}
}

func mustInfo(t *testing.T, r *Repo, id string) RunInfo {
	t.Helper()
	info, err := r.Info(id)
	if err != nil {
		t.Fatal(err)
	}
	return info
}

// TestCompactRespectsThresholds: a lone run is never packed, and the
// workload filter gates what a pass covers.
func TestCompactRespectsThresholds(t *testing.T) {
	r := openSharded(t, newTestBucket(t), 2)
	saveN(t, r, "solo", 1)
	rep, err := r.Compact(CompactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Packs) != 0 {
		t.Fatalf("packed a single run: %+v", rep.Packs)
	}
	saveN(t, r, "pair", 2)
	rep, err = r.Compact(CompactOptions{Workload: "nosuch"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Packs) != 0 {
		t.Fatalf("packed a filtered-out workload: %+v", rep.Packs)
	}
}

// TestDeletePackedRunRefcountsPack: deleting one member keeps the pack
// while siblings reference it; deleting the last member reclaims it.
func TestDeletePackedRunRefcountsPack(t *testing.T) {
	bucket := newTestBucket(t)
	r := openSharded(t, bucket, 4)
	ids := saveN(t, r, "dcgan", 3)
	rep, err := r.Compact(CompactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Packs) != 1 {
		t.Fatalf("want one pack, got %+v", rep.Packs)
	}
	pack := rep.Packs[0].Object

	for i, id := range ids {
		if err := r.Delete(id); err != nil {
			t.Fatalf("delete %q: %v", id, err)
		}
		last := i == len(ids)-1
		if got := bucket.Exists(pack); got == last {
			t.Fatalf("after deleting %d/%d members pack exists=%v", i+1, len(ids), got)
		}
		frep, err := r.Fsck(false)
		if err != nil {
			t.Fatal(err)
		}
		if !frep.Clean() {
			t.Fatalf("fsck after delete %d: %+v", i+1, frep.Issues)
		}
	}
}

// TestGCReclaimsPackedVictims: GC over packed runs drops the victims
// and reclaims the pack only when the survivors no longer reference it.
func TestGCReclaimsPackedVictims(t *testing.T) {
	bucket := newTestBucket(t)
	r := openSharded(t, bucket, 4)
	ids := saveN(t, r, "dcgan", 4)
	rep, err := r.Compact(CompactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Packs) != 1 {
		t.Fatalf("want one pack, got %+v", rep.Packs)
	}
	pack := rep.Packs[0].Object

	victims, err := r.GC(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(victims) != 3 {
		t.Fatalf("GC removed %d runs, want 3", len(victims))
	}
	if !bucket.Exists(pack) {
		t.Fatal("pack reclaimed while the kept run still references it")
	}
	keeper := ids[len(ids)-1]
	if _, _, err := r.Get(keeper); err != nil {
		t.Fatalf("kept run %q unreadable after GC: %v", keeper, err)
	}
	frep, err := r.Fsck(false)
	if err != nil {
		t.Fatal(err)
	}
	if !frep.Clean() {
		t.Fatalf("fsck after GC: %+v", frep.Issues)
	}

	if err := r.Delete(keeper); err != nil {
		t.Fatal(err)
	}
	if bucket.Exists(pack) {
		t.Fatal("pack leaked after its last member was deleted")
	}
}

// TestSalvagePackedRunUnpacks: salvaging an indexed packed run rebuilds
// it into a private blob and repoints the entry out of the pack.
func TestSalvagePackedRunUnpacks(t *testing.T) {
	bucket := newTestBucket(t)
	r := openSharded(t, bucket, 4)
	ids := saveN(t, r, "dcgan", 3)
	if _, err := r.Compact(CompactOptions{}); err != nil {
		t.Fatal(err)
	}
	id := ids[1]
	info, srep, err := r.Salvage(id)
	if err != nil {
		t.Fatalf("salvage packed run: %v (report %+v)", err, srep)
	}
	if info.packed() {
		t.Fatal("salvaged entry still packed")
	}
	if info.Object != runObject(id) {
		t.Fatalf("salvaged entry object %q", info.Object)
	}
	if _, a, err := r.Get(id); err != nil || a.Meta().RunID != id {
		t.Fatalf("salvaged run unreadable: %v", err)
	}
	frep, err := r.Fsck(false)
	if err != nil {
		t.Fatal(err)
	}
	if !frep.Clean() {
		t.Fatalf("fsck after salvage: %+v", frep.Issues)
	}
}

// TestFsckQuarantinesOrphanPack: a pack nobody references is flagged
// and quarantined on repair.
func TestFsckQuarantinesOrphanPack(t *testing.T) {
	bucket := newTestBucket(t)
	r := openSharded(t, bucket, 2)
	saveN(t, r, "dcgan", 2)
	orphan := PackPrefix + "debris-0123456789abcdef"
	if _, err := bucket.Put(orphan, []byte("stale pack bytes")); err != nil {
		t.Fatal(err)
	}
	rep, err := r.Fsck(true)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, issue := range rep.Issues {
		if issue.Kind == IssueOrphanPack && issue.Object == orphan {
			found = true
			if issue.Action == "" {
				t.Fatal("orphan pack not repaired")
			}
		}
	}
	if !found {
		t.Fatalf("orphan pack not flagged: %+v", rep.Issues)
	}
	if bucket.Exists(orphan) {
		t.Fatal("orphan pack still present after repair")
	}
	if !bucket.Exists(QuarantinePrefix + orphan) {
		t.Fatal("orphan pack not quarantined")
	}
	rep2, err := r.Fsck(false)
	if err != nil {
		t.Fatal(err)
	}
	if !rep2.Clean() {
		t.Fatalf("fsck not clean after repair: %+v", rep2.Issues)
	}
}

// TestFleetAutoCompact: the collection endpoint triggers background
// compaction every CompactEvery finalizes, and WaitBackground drains
// it.
func TestFleetAutoCompact(t *testing.T) {
	bucket := newTestBucket(t)
	r := openSharded(t, bucket, 4)
	f := NewFleet(r, FleetOptions{QueueSize: 64, CompactEvery: 4})

	finalizeRun := func(i int) {
		t.Helper()
		openBody, _ := json.Marshal(OpenRequest{RunID: fmt.Sprintf("fleet-%02d", i), Workload: "fleet"})
		out, err := f.handleOpen(openBody)
		if err != nil {
			t.Fatal(err)
		}
		var opened OpenResponse
		if err := json.Unmarshal(out, &opened); err != nil {
			t.Fatal(err)
		}
		finBody, _ := json.Marshal(sessionRequest{SessionID: opened.SessionID})
		if _, err := f.handleFinalize(finBody); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		finalizeRun(i)
	}
	f.WaitBackground()

	listed, err := r.List(Filter{})
	if err != nil {
		t.Fatal(err)
	}
	if len(listed) != 8 {
		t.Fatalf("listed %d runs, want 8", len(listed))
	}
	packedCount := 0
	for _, info := range listed {
		if info.packed() {
			packedCount++
		}
		if _, _, err := r.Get(info.RunID); err != nil {
			t.Fatalf("run %q unreadable after auto-compact: %v", info.RunID, err)
		}
	}
	if packedCount == 0 {
		t.Fatal("auto-compaction never packed anything")
	}
	frep, err := r.Fsck(false)
	if err != nil {
		t.Fatal(err)
	}
	if !frep.Clean() {
		t.Fatalf("fsck after auto-compact: %+v", frep.Issues)
	}
}
