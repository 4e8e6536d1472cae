package repo

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"testing"

	"repro/internal/storage"
)

// hookStore wraps a Store with per-call failure injection, so tests
// can force the exact interleavings the journal exists to survive.
type hookStore struct {
	Store
	putErr    func(name string) error
	putIfErr  func(name string) error
	deleteErr func(name string) error
	appendErr func(name string) error
}

func (h *hookStore) Put(name string, data []byte) (*storage.Object, error) {
	if h.putErr != nil {
		if err := h.putErr(name); err != nil {
			return nil, err
		}
	}
	return h.Store.Put(name, data)
}

func (h *hookStore) PutIf(name string, data []byte, gen int64) (*storage.Object, error) {
	if h.putIfErr != nil {
		if err := h.putIfErr(name); err != nil {
			return nil, err
		}
	}
	return h.Store.PutIf(name, data, gen)
}

func (h *hookStore) Delete(name string) error {
	if h.deleteErr != nil {
		if err := h.deleteErr(name); err != nil {
			return err
		}
	}
	return h.Store.Delete(name)
}

func (h *hookStore) Append(name string, data []byte) (*storage.Object, error) {
	if h.appendErr != nil {
		if err := h.appendErr(name); err != nil {
			return nil, err
		}
	}
	return h.Store.Append(name, data)
}

// A store opened without a shard count is a 1-shard repository; these
// are its one manifest and its one journal.
var (
	oneShard  = shardSet{n: 1, saved: true}
	manifest0 = oneShard.manifestObject(0)
	journal0  = oneShard.journalObject(0)
)

// saveIntent is the intent a save of runID alone journals: a commit
// round of one.
func saveIntent(runID string) journalRecord {
	return journalRecord{Op: opSaveBatch, Members: []packMember{{RunID: runID, Object: runObject(runID)}}}
}

func newTestBucket(t *testing.T) *storage.Bucket {
	t.Helper()
	svc := storage.NewService()
	bucket, err := svc.CreateBucket("repo")
	if err != nil {
		t.Fatal(err)
	}
	return bucket
}

// testStores is the store axis: suites that state a Store contract
// (crash recovery, torn-tail resume, ranged reads) run once over the
// in-memory bucket and once over a live DirStore directory.
var testStores = []struct {
	name string
	open func(t *testing.T) Store
}{
	{"bucket", func(t *testing.T) Store { return newTestBucket(t) }},
	{"dirstore", func(t *testing.T) Store {
		t.Helper()
		d, err := storage.OpenDir(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { d.Close() })
		return d
	}},
}

// saveEntries is the entry-point axis for the save protocol: Repo.Save
// runs Repo.commitSaves inline as a round of one, an Ingestor reaches it
// through its queue. Suites that state the protocol's contract run
// through both.
var saveEntries = []struct {
	name string
	open func(t *testing.T, r *Repo, opts IngestorOptions) func([]byte) (RunInfo, error)
}{
	{"save", func(t *testing.T, r *Repo, _ IngestorOptions) func([]byte) (RunInfo, error) { return r.Save }},
	{"lane", func(t *testing.T, r *Repo, opts IngestorOptions) func([]byte) (RunInfo, error) {
		g := NewIngestor(r, opts)
		t.Cleanup(g.Close)
		return g.Save
	}},
}

// TestSaveRollbackFailureReclaimedByRecover is the regression test for
// the orphan-blob leak: a Save whose manifest update fails AND whose
// rollback delete also fails used to strand a blob no GC could ever
// see. The journal closes the leak — the open save intent survives and
// the next Recover reclaims the orphan.
func TestSaveRollbackFailureReclaimedByRecover(t *testing.T) {
	for _, entry := range saveEntries {
		t.Run(entry.name, func(t *testing.T) {
			bucket := newTestBucket(t)
			boom := errors.New("manifest write died")
			obj := runObject("run-x")
			failing := &hookStore{
				Store: bucket,
				putIfErr: func(name string) error {
					if name == manifest0 {
						return boom
					}
					return nil
				},
				deleteErr: func(name string) error {
					if name == obj {
						return errors.New("rollback delete died")
					}
					return nil
				},
			}
			save := entry.open(t, New(failing), IngestorOptions{})
			if _, err := save(archiveBlob(t, "run-x", 1, 0)); !errors.Is(err, boom) {
				t.Fatalf("Save error = %v, want %v", err, boom)
			}
			if !bucket.Exists(obj) {
				t.Fatal("expected the orphan blob to be stranded by the forced interleaving")
			}

			// Recovery over the (now healthy) store must roll the save back.
			r2, rep, err := Open(bucket)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Clean() {
				t.Fatalf("recovery report unexpectedly clean: %+v", rep)
			}
			if rep.OpenIntents != 1 || rep.RolledBack != 1 {
				t.Fatalf("report = %+v, want 1 open intent rolled back", rep)
			}
			if len(rep.OrphansReclaimed) != 1 || rep.OrphansReclaimed[0] != obj {
				t.Fatalf("OrphansReclaimed = %v, want [%s]", rep.OrphansReclaimed, obj)
			}
			if bucket.Exists(obj) {
				t.Fatal("orphan blob not reclaimed")
			}
			// The repository is fully usable afterwards: the same run ID saves.
			if _, err := r2.Save(archiveBlob(t, "run-x", 1, 0)); err != nil {
				t.Fatal(err)
			}
			if _, _, err := r2.Get("run-x"); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestRecoverCompletesInterruptedDelete: crash after the manifest
// forgot the run but before its blob was removed — Recover finishes
// the delete.
func TestRecoverCompletesInterruptedDelete(t *testing.T) {
	bucket := newTestBucket(t)
	r := New(bucket)
	if _, err := r.Save(archiveBlob(t, "run-a", 1, 0)); err != nil {
		t.Fatal(err)
	}
	obj := runObject("run-a")
	failing := &hookStore{
		Store: bucket,
		deleteErr: func(name string) error {
			if name == obj {
				return errors.New("blob delete died")
			}
			return nil
		},
	}
	rf := New(failing)
	if _, err := rf.Recover(); err != nil { // pick up journal seq
		t.Fatal(err)
	}
	if err := rf.Delete("run-a"); err == nil {
		t.Fatal("Delete should surface the blob delete failure")
	}
	if !bucket.Exists(obj) {
		t.Fatal("test setup: blob should still exist")
	}

	_, rep, err := Open(bucket)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != 1 {
		t.Fatalf("report = %+v, want the delete intent completed", rep)
	}
	if bucket.Exists(obj) {
		t.Fatal("leftover blob not reclaimed")
	}
}

// TestRecoverFinishesGCVictims: crash after GC's manifest swap but
// before the victim blobs were deleted.
func TestRecoverFinishesGCVictims(t *testing.T) {
	bucket := newTestBucket(t)
	r := New(bucket)
	for i, id := range []string{"run-1", "run-2", "run-3"} {
		if _, err := r.Save(archiveBlob(t, id, uint64(i+1), 0)); err != nil {
			t.Fatal(err)
		}
	}
	failing := &hookStore{
		Store: bucket,
		deleteErr: func(name string) error {
			if name != journal0 && name != manifest0 {
				return errors.New("blob delete died")
			}
			return nil
		},
	}
	rf := New(failing)
	if _, err := rf.Recover(); err != nil {
		t.Fatal(err)
	}
	if _, err := rf.GC(1); err == nil {
		t.Fatal("GC should surface the blob delete failure")
	}

	_, rep, err := Open(bucket)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.OrphansReclaimed) != 2 {
		t.Fatalf("OrphansReclaimed = %v, want the 2 GC victims", rep.OrphansReclaimed)
	}
	for _, id := range []string{"run-1", "run-2"} {
		if bucket.Exists(runObject(id)) {
			t.Fatalf("victim blob %s survived recovery", id)
		}
	}
	if !bucket.Exists(runObject("run-3")) {
		t.Fatal("kept run's blob was wrongly reclaimed")
	}
}

// TestRecoverIgnoresUncommittedGC: an open GC intent whose manifest
// swap never landed must not delete anything — the victims are still
// indexed.
func TestRecoverIgnoresUncommittedGC(t *testing.T) {
	bucket := newTestBucket(t)
	r := New(bucket)
	if _, err := r.Save(archiveBlob(t, "run-a", 1, 0)); err != nil {
		t.Fatal(err)
	}
	// Hand-write an open gc intent naming run-a, as if the process died
	// between the intent append and the manifest PutIf.
	if _, err := r.logIntentAt(journal0, journalRecord{Op: opGC, Victims: []string{"run-a"}}); err != nil {
		t.Fatal(err)
	}
	r2, rep, err := Open(bucket)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OpenIntents != 1 || len(rep.OrphansReclaimed) != 0 {
		t.Fatalf("report = %+v, want 1 open intent and nothing reclaimed", rep)
	}
	if _, _, err := r2.Get("run-a"); err != nil {
		t.Fatalf("run-a should still be readable: %v", err)
	}
}

// TestDuplicateSaveLeavesWinnerBlob: a duplicate save must neither
// clobber nor delete the committed run's blob.
func TestDuplicateSaveLeavesWinnerBlob(t *testing.T) {
	for _, entry := range saveEntries {
		t.Run(entry.name, func(t *testing.T) {
			bucket := newTestBucket(t)
			save := entry.open(t, New(bucket), IngestorOptions{})
			if _, err := save(archiveBlob(t, "run-a", 1, 0)); err != nil {
				t.Fatal(err)
			}
			want, err := bucket.Get(runObject("run-a"))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := save(archiveBlob(t, "run-a", 9, 500)); !errors.Is(err, ErrRunExists) {
				t.Fatalf("duplicate Save error = %v, want ErrRunExists", err)
			}
			got, err := bucket.Get(runObject("run-a"))
			if err != nil {
				t.Fatal(err)
			}
			if got.Generation != want.Generation || len(got.Data) != len(want.Data) {
				t.Fatal("duplicate save touched the committed blob")
			}
			// And recovery stays clean — the duplicate never journaled an
			// intent.
			_, rep, err := Open(bucket)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Clean() {
				t.Fatalf("report not clean after duplicate save: %+v", rep)
			}
		})
	}
}

// TestJournalTornTailTrimmed: a power cut mid-append leaves a torn
// frame; the reader trims it and Recover compacts it away.
func TestJournalTornTailTrimmed(t *testing.T) {
	bucket := newTestBucket(t)
	r := New(bucket)
	if _, err := r.Save(archiveBlob(t, "run-a", 1, 0)); err != nil {
		t.Fatal(err)
	}
	// Append half a frame: a length header promising more bytes than
	// exist.
	torn := make([]byte, 6)
	binary.LittleEndian.PutUint32(torn[:4], 64)
	if _, err := bucket.Append(journal0, torn); err != nil {
		t.Fatal(err)
	}
	recs, tornBytes, err := readJournalObject(bucket, journal0)
	if err != nil {
		t.Fatal(err)
	}
	if tornBytes != len(torn) {
		t.Fatalf("tornBytes = %d, want %d", tornBytes, len(torn))
	}
	if len(recs) != 2 { // save intent + done
		t.Fatalf("records = %d, want 2", len(recs))
	}

	_, rep, err := Open(bucket)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TornBytes != len(torn) || rep.OpenIntents != 0 {
		t.Fatalf("report = %+v", rep)
	}
	obj, err := bucket.Get(journal0)
	if err != nil {
		t.Fatal(err)
	}
	if len(obj.Data) != 0 {
		t.Fatalf("journal not compacted after recovery: %d bytes", len(obj.Data))
	}
}

// TestJournalCorruptFrameStopsRead: a CRC-failing frame truncates the
// readable history at that point instead of erroring out.
func TestJournalCorruptFrameStopsRead(t *testing.T) {
	bucket := newTestBucket(t)
	r := New(bucket)
	seq, err := r.logIntentAt(journal0, saveIntent("run-a"))
	if err != nil {
		t.Fatal(err)
	}
	r.logDoneAt(journal0, seq, opSaveBatch)
	obj, err := bucket.Get(journal0)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte in the second frame.
	firstLen := int(binary.LittleEndian.Uint32(obj.Data[:4])) + journalFrameOverhead
	corrupted := append([]byte(nil), obj.Data...)
	corrupted[firstLen+journalFrameOverhead] ^= 0xff
	if _, err := bucket.Put(journal0, corrupted); err != nil {
		t.Fatal(err)
	}
	recs, tornBytes, err := readJournalObject(bucket, journal0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Phase != phaseIntent {
		t.Fatalf("recs = %+v, want just the intact intent", recs)
	}
	if tornBytes != len(corrupted)-firstLen {
		t.Fatalf("tornBytes = %d, want %d", tornBytes, len(corrupted)-firstLen)
	}
}

// TestRecoverIdempotent: a second replay over a recovered store finds
// nothing to do.
func TestRecoverIdempotent(t *testing.T) {
	bucket := newTestBucket(t)
	r := New(bucket)
	if _, err := r.Save(archiveBlob(t, "run-a", 1, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := r.logIntentAt(journal0, saveIntent("ghost")); err != nil {
		t.Fatal(err)
	}
	if _, err := bucket.Put(runObject("ghost"), []byte("orphan")); err != nil {
		t.Fatal(err)
	}
	_, rep1, err := Open(bucket)
	if err != nil {
		t.Fatal(err)
	}
	if rep1.RolledBack != 1 {
		t.Fatalf("first recovery = %+v", rep1)
	}
	_, rep2, err := Open(bucket)
	if err != nil {
		t.Fatal(err)
	}
	if !rep2.Clean() || rep2.Records != 0 {
		t.Fatalf("second recovery not clean: %+v", rep2)
	}
}

// TestRecoverSeqContinuation: intents logged after recovery must not
// reuse sequence numbers from the replayed history.
func TestRecoverSeqContinuation(t *testing.T) {
	bucket := newTestBucket(t)
	r := New(bucket)
	for i := 0; i < 3; i++ {
		seq, err := r.logIntentAt(journal0, saveIntent("x"))
		if err != nil {
			t.Fatal(err)
		}
		r.logDoneAt(journal0, seq, opSaveBatch)
	}
	r2 := New(bucket)
	if _, err := r2.Recover(); err != nil {
		t.Fatal(err)
	}
	seq, err := r2.logIntentAt(journal0, saveIntent("y"))
	if err != nil {
		t.Fatal(err)
	}
	if seq <= 3 {
		t.Fatalf("post-recovery seq = %d, want > 3", seq)
	}
}

// TestJournalCompaction: settled history is truncated once past the
// threshold, but never while an intent is open.
func TestJournalCompaction(t *testing.T) {
	bucket := newTestBucket(t)
	r := New(bucket)
	if _, err := r.Save(archiveBlob(t, "run-a", 1, 0)); err != nil {
		t.Fatal(err)
	}
	r.compactJournalIfSettled(1)
	obj, err := bucket.Get(journal0)
	if err != nil {
		t.Fatal(err)
	}
	if len(obj.Data) != 0 {
		t.Fatalf("settled journal not compacted: %d bytes", len(obj.Data))
	}

	// An open intent blocks compaction.
	if _, err := r.logIntentAt(journal0, journalRecord{Op: opDelete, RunID: "run-a", Object: runObject("run-a")}); err != nil {
		t.Fatal(err)
	}
	r.compactJournalIfSettled(1)
	obj, err = bucket.Get(journal0)
	if err != nil {
		t.Fatal(err)
	}
	if len(obj.Data) == 0 {
		t.Fatal("compaction dropped an open intent")
	}
}

func TestJournalFrameCRC(t *testing.T) {
	bucket := newTestBucket(t)
	r := New(bucket)
	if _, err := r.logIntentAt(journal0, saveIntent("run-a")); err != nil {
		t.Fatal(err)
	}
	obj, err := bucket.Get(journal0)
	if err != nil {
		t.Fatal(err)
	}
	n := int(binary.LittleEndian.Uint32(obj.Data[:4]))
	want := binary.LittleEndian.Uint32(obj.Data[4:8])
	payload := obj.Data[journalFrameOverhead : journalFrameOverhead+n]
	if crc32.Checksum(payload, journalTable) != want {
		t.Fatal("stored frame CRC does not cover the payload")
	}
}

func TestRunIDFromObject(t *testing.T) {
	cases := map[string]string{
		"runs/run-a/archive":  "run-a",
		"runs/manifest.json":  "",
		"runs/.journal":       "",
		"runs//archive":       "",
		"runs/a/b/archive":    "",
		"other/run-a/archive": "",
	}
	for in, want := range cases {
		if got := runIDFromObject(in); got != want {
			t.Errorf("runIDFromObject(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestSortedUnique(t *testing.T) {
	got := sortedUnique([]string{"b", "a", "b", "c", "a"})
	want := []string{"a", "b", "c"}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}
