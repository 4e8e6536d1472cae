package repo

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/archive"
	"repro/internal/obs"
	"repro/internal/storage"
)

// segmentedBlob is archiveBlob with a tiny segment target, so damage
// to one part of the blob costs one segment rather than the whole run
// — the shape salvage-path tests need.
func segmentedBlob(t *testing.T, runID string, seq uint64) []byte {
	t.Helper()
	recs := synthRecords(30, 0)
	w := archive.NewWriter(archive.Meta{
		RunID: runID, Workload: "synthetic", Label: "test",
		TPUVersion: "v2", CreatedSeq: seq,
	})
	if err := w.SetSegmentTarget(512); err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		w.Add(r)
	}
	return w.Finalize(nil)
}

// seedRepo builds a bucket-backed repo with n saved multi-segment runs.
func seedRepo(t *testing.T, n int) (*Repo, *storage.Bucket) {
	t.Helper()
	bucket := newTestBucket(t)
	r := New(bucket)
	ids := []string{"run-a", "run-b", "run-c", "run-d"}
	for i := 0; i < n; i++ {
		if _, err := r.Save(segmentedBlob(t, ids[i], uint64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	return r, bucket
}

func fsckKinds(rep *FsckReport) []string {
	kinds := make([]string, len(rep.Issues))
	for i, is := range rep.Issues {
		kinds[i] = is.Kind
	}
	return kinds
}

func TestFsckCleanRepo(t *testing.T) {
	r, _ := seedRepo(t, 2)
	rep, err := r.Fsck(false)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() || rep.RunsChecked != 2 {
		t.Fatalf("report = %+v, want clean over 2 runs", rep)
	}
}

func TestFsckMissingBlob(t *testing.T) {
	r, bucket := seedRepo(t, 2)
	if err := bucket.Delete(runObject("run-a")); err != nil {
		t.Fatal(err)
	}
	rep, err := r.Fsck(false)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Issues) != 1 || rep.Issues[0].Kind != IssueMissingBlob || rep.Repaired != 0 {
		t.Fatalf("check-only report = %+v", rep)
	}
	// Check-only must not have mutated anything.
	if _, err := r.Info("run-a"); err != nil {
		t.Fatal("check-only fsck mutated the manifest")
	}

	rep, err = r.Fsck(true)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Repaired != 1 {
		t.Fatalf("repair report = %+v", rep)
	}
	if _, err := r.Info("run-a"); err == nil {
		t.Fatal("phantom entry survived repair")
	}
	if rep2, err := r.Fsck(false); err != nil || !rep2.Clean() {
		t.Fatalf("post-repair fsck = %+v, err=%v", rep2, err)
	}
}

func TestFsckCorruptBlobRebuiltFromSalvage(t *testing.T) {
	r, bucket := seedRepo(t, 2)
	obj, err := bucket.Get(runObject("run-a"))
	if err != nil {
		t.Fatal(err)
	}
	before, err := r.Info("run-a")
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte well inside the body: one segment dies, others live.
	obj.Data[len(obj.Data)/3] ^= 0x01
	if _, err := bucket.Put(runObject("run-a"), obj.Data); err != nil {
		t.Fatal(err)
	}

	rep, err := r.Fsck(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Issues) != 1 || rep.Issues[0].Kind != IssueCorruptBlob {
		t.Fatalf("report = %+v", rep)
	}
	if !strings.Contains(rep.Issues[0].Action, "salvage") {
		t.Fatalf("action = %q", rep.Issues[0].Action)
	}
	info, a, err := r.Get("run-a")
	if err != nil {
		t.Fatalf("repaired run unreadable: %v", err)
	}
	if info.Records == 0 || info.Records >= before.Records+1 {
		t.Fatalf("repaired records = %d (before %d)", info.Records, before.Records)
	}
	if a.RecordCount() != info.Records {
		t.Fatal("manifest counts disagree with rebuilt blob")
	}
	if rep2, err := r.Fsck(false); err != nil || !rep2.Clean() {
		t.Fatalf("post-repair fsck = %+v, err=%v", rep2, err)
	}
}

func TestFsckUnsalvageableQuarantined(t *testing.T) {
	r, bucket := seedRepo(t, 2)
	// Not even the header magic survives: salvage has nothing.
	if _, err := bucket.Put(runObject("run-a"), []byte("XXXXgarbage")); err != nil {
		t.Fatal(err)
	}
	rep, err := r.Fsck(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Issues) != 1 || rep.Issues[0].Kind != IssueCorruptBlob {
		t.Fatalf("report = %+v", rep)
	}
	if _, err := r.Info("run-a"); err == nil {
		t.Fatal("unsalvageable run still indexed")
	}
	if !bucket.Exists(QuarantinePrefix + runObject("run-a")) {
		t.Fatal("blob was not quarantined")
	}
	if bucket.Exists(runObject("run-a")) {
		t.Fatal("quarantined blob left in place")
	}
}

func TestFsckCountMismatchRepaired(t *testing.T) {
	r, _ := seedRepo(t, 1)
	if err := r.updateRun("run-a", func(m *manifest) error {
		m.Runs[0].Records += 7
		m.Runs[0].Bytes = 1
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	rep, err := r.Fsck(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Issues) != 1 || rep.Issues[0].Kind != IssueCountMismatch {
		t.Fatalf("report = %+v", rep)
	}
	info, a, err := r.Get("run-a")
	if err != nil {
		t.Fatal(err)
	}
	if info.Records != a.RecordCount() || info.Bytes != a.Size() {
		t.Fatalf("counts not repaired: %+v", info)
	}
}

// TestFsckMismatchNamesFields: a count-mismatch detail names the entry
// fields that differ from the blob, with both values, and only those.
func TestFsckMismatchNamesFields(t *testing.T) {
	r, _ := seedRepo(t, 1)
	info := mustInfo(t, r, "run-a")
	if err := r.updateRun("run-a", func(m *manifest) error {
		m.Runs[0].TimeLast += 5
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	rep, err := r.Fsck(false)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Issues) != 1 || rep.Issues[0].Kind != IssueCountMismatch {
		t.Fatalf("report = %+v", rep)
	}
	want := fmt.Sprintf("time_last: manifest says %v, blob holds %v", info.TimeLast+5, info.TimeLast)
	if d := rep.Issues[0].Detail; d != want {
		t.Fatalf("detail = %q, want %q", d, want)
	}
}

// TestFsckFillsOlderEntryFooterFields: an entry as an older build wrote
// it, without the footer's length and CRC, is a count-mismatch naming
// both fields; repair fills them in from the blob and the next check is
// clean.
func TestFsckFillsOlderEntryFooterFields(t *testing.T) {
	r, _ := seedRepo(t, 1)
	info := mustInfo(t, r, "run-a")
	if err := r.updateRun("run-a", func(m *manifest) error {
		m.Runs[0].FooterLen, m.Runs[0].FooterCRC = 0, 0
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	rep, err := r.Fsck(false)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Issues) != 1 || rep.Issues[0].Kind != IssueCountMismatch {
		t.Fatalf("report = %+v", rep)
	}
	for _, field := range []string{"footer_len", "footer_crc"} {
		if d := rep.Issues[0].Detail; !strings.Contains(d, field+": manifest says 0") {
			t.Fatalf("detail %q does not name %s", d, field)
		}
	}
	if rep, err = r.Fsck(true); err != nil || rep.Repaired != 1 {
		t.Fatalf("Fsck(true) = %+v, %v", rep, err)
	}
	if rep, err = r.Fsck(false); err != nil || !rep.Clean() {
		t.Fatalf("Fsck(false) after repair = %+v, %v", rep, err)
	}
	if got := mustInfo(t, r, "run-a"); got != info {
		t.Fatalf("repaired entry %+v, want %+v", got, info)
	}
}

func TestFsckOrphanReadopted(t *testing.T) {
	r, bucket := seedRepo(t, 1)
	// A valid archive blob present under runs/ but absent from the
	// manifest — what a crash between blob Put and manifest update
	// leaves, found by a repair before any Open swept it.
	if _, err := bucket.Put(runObject("run-x"), archiveBlob(t, "run-x", 9, 0)); err != nil {
		t.Fatal(err)
	}
	rep, err := r.Fsck(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Issues) != 1 || rep.Issues[0].Kind != IssueOrphanBlob {
		t.Fatalf("report = %+v", rep)
	}
	if rep.Issues[0].Action != "re-adopted into manifest" {
		t.Fatalf("action = %q", rep.Issues[0].Action)
	}
	info, _, err := r.Get("run-x")
	if err != nil {
		t.Fatalf("re-adopted run unreadable: %v", err)
	}
	if info.CreatedSeq != 9 {
		t.Fatalf("adopted seq = %d", info.CreatedSeq)
	}
	// NextSeq must have moved past the adopted run's seq.
	if seq, err := r.NextSeq(); err != nil || seq <= 9 {
		t.Fatalf("NextSeq = %d, %v", seq, err)
	}
}

func TestFsckTornOrphanSalvagedAndReadopted(t *testing.T) {
	r, bucket := seedRepo(t, 1)
	blob := segmentedBlob(t, "run-x", 9)
	torn := blob[:len(blob)*2/3]
	if _, err := bucket.Put(runObject("run-x"), torn); err != nil {
		t.Fatal(err)
	}
	rep, err := r.Fsck(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Issues) != 1 || !strings.Contains(rep.Issues[0].Action, "salvage") {
		t.Fatalf("report = %+v", rep)
	}
	info, a, err := r.Get("run-x")
	if err != nil {
		t.Fatalf("salvaged orphan unreadable: %v", err)
	}
	if info.Records == 0 || a.RecordCount() != info.Records {
		t.Fatalf("info = %+v", info)
	}
}

func TestFsckForeignObjectQuarantined(t *testing.T) {
	r, bucket := seedRepo(t, 1)
	if _, err := bucket.Put("runs/run-a/extra-file", []byte("debris")); err != nil {
		t.Fatal(err)
	}
	rep, err := r.Fsck(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Issues) != 1 || rep.Issues[0].Kind != IssueForeignObject {
		t.Fatalf("kinds = %v", fsckKinds(rep))
	}
	if !bucket.Exists(QuarantinePrefix + "runs/run-a/extra-file") {
		t.Fatal("foreign object not quarantined")
	}
	if bucket.Exists("runs/run-a/extra-file") {
		t.Fatal("foreign object left in place")
	}
}

func TestRepoSalvageIndexedRun(t *testing.T) {
	r, bucket := seedRepo(t, 1)
	obj, err := bucket.Get(runObject("run-a"))
	if err != nil {
		t.Fatal(err)
	}
	// Tear the tail off: footer gone.
	if _, err := bucket.Put(runObject("run-a"), obj.Data[:len(obj.Data)*3/4]); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.Get("run-a"); err == nil {
		t.Fatal("torn run should not open")
	}

	info, srep, err := r.Salvage("run-a")
	if err != nil {
		t.Fatal(err)
	}
	if srep.FooterIntact {
		t.Fatal("footer cannot be intact on a torn blob")
	}
	if info.Records == 0 || info.Workload != "synthetic" {
		t.Fatalf("info = %+v (identity should come from the manifest)", info)
	}
	got, a, err := r.Get("run-a")
	if err != nil {
		t.Fatalf("salvaged run unreadable: %v", err)
	}
	if got.Records != a.RecordCount() || got.Records != info.Records {
		t.Fatalf("counts diverge: %+v vs archive %d", got, a.RecordCount())
	}
	// The repository is fsck-clean and has nothing to reclaim afterwards.
	if rep, err := r.Fsck(false); err != nil || !rep.Clean() {
		t.Fatalf("fsck after salvage = %+v, err=%v", rep, err)
	}
	if _, rrep, err := Open(bucket); err != nil || !rrep.Clean() {
		t.Fatalf("recovery after salvage = %+v, err=%v", rrep, err)
	}
}

func TestRepoSalvageNothingRecoverable(t *testing.T) {
	r, bucket := seedRepo(t, 1)
	if _, err := bucket.Put(runObject("run-a"), []byte("TPAR\x01")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.Salvage("run-a"); err == nil {
		t.Fatal("salvage of an empty husk should fail")
	}
	if _, _, err := r.Salvage("no-such-run"); err == nil {
		t.Fatal("salvage of a missing blob should fail")
	}
}

func TestRepoSalvageCountsSegments(t *testing.T) {
	bucket := newTestBucket(t)
	r := New(bucket)
	reg := obs.NewRegistry(16)
	r.SetObs(reg)
	if _, err := r.Save(segmentedBlob(t, "run-a", 1)); err != nil {
		t.Fatal(err)
	}
	obj, err := bucket.Get(runObject("run-a"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bucket.Put(runObject("run-a"), obj.Data[:len(obj.Data)*3/4]); err != nil {
		t.Fatal(err)
	}
	if _, srep, err := r.Salvage("run-a"); err != nil {
		t.Fatal(err)
	} else if srep.SegmentsKept == 0 {
		t.Fatal("no segments kept")
	}
	if v := reg.Snapshot().C("repo.salvage.segments.recovered"); v == 0 {
		t.Fatal("salvage counter not incremented")
	}
}

func TestFsckCorruptBlobIntoValidArchive(t *testing.T) {
	// archive.Rebuild output must itself pass a follow-up fsck even
	// when the source footer was intact but a segment died.
	r, bucket := seedRepo(t, 1)
	obj, err := bucket.Get(runObject("run-a"))
	if err != nil {
		t.Fatal(err)
	}
	a0, err := archive.Open(obj.Data)
	if err != nil {
		t.Fatal(err)
	}
	if a0.Meta().RunID != "run-a" {
		t.Fatal("test setup")
	}
	obj.Data[headerLenForTest()+12] ^= 0x20
	if _, err := bucket.Put(runObject("run-a"), obj.Data); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Fsck(true); err != nil {
		t.Fatal(err)
	}
	rep, err := r.Fsck(false)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("second fsck not clean: %+v", rep)
	}
}

// headerLenForTest mirrors archive's unexported header size (magic +
// version byte) for corruption offsets.
func headerLenForTest() int { return 5 }
