package repo

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/faultnet"
	"repro/internal/storage"
)

// hookStore wraps a Store with per-call failure injection, so tests
// can force the exact interleavings the sweep exists to survive.
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

// A store opened without a shard count is a 1-shard repository; this
// is its one manifest.
var manifest0 = shardSet{n: 1, saved: true}.manifestObject(0)

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
// see. The sweep closes the leak — no manifest references the blob, so
// the next Open reclaims it.
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
			if !reflect.DeepEqual(rep.Reclaimed, []string{obj}) {
				t.Fatalf("Reclaimed = %v, want [%s]", rep.Reclaimed, obj)
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
	if !reflect.DeepEqual(rep.Reclaimed, []string{obj}) || bucket.Exists(obj) {
		t.Fatalf("Reclaimed = %v, want the leftover blob %s", rep.Reclaimed, obj)
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
		Store:     bucket,
		deleteErr: func(string) error { return errors.New("blob delete died") },
	}
	rf := New(failing)
	if _, err := rf.GC(1); err == nil {
		t.Fatal("GC should surface the blob delete failure")
	}

	_, rep, err := Open(bucket)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Reclaimed) != 2 {
		t.Fatalf("Reclaimed = %v, want the 2 GC victims", rep.Reclaimed)
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

// TestRecoverIgnoresUncommittedGC: a GC whose manifest swap never
// landed must not delete anything — the victims are still indexed.
func TestRecoverIgnoresUncommittedGC(t *testing.T) {
	bucket := newTestBucket(t)
	r := New(bucket)
	for i, id := range []string{"run-a", "run-b"} {
		if _, err := r.Save(archiveBlob(t, id, uint64(i+1), 0)); err != nil {
			t.Fatal(err)
		}
	}
	// The process dies on the manifest PutIf that would drop run-a.
	cs := faultnet.NewCrashStore(bucket)
	cs.CrashAfterWrites(0, false)
	if _, err := New(cs).GC(1); !errors.Is(err, faultnet.ErrPowerLost) {
		t.Fatalf("GC = %v, want ErrPowerLost", err)
	}
	r2, rep, err := Open(bucket)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("Reclaimed = %v, want nothing", rep.Reclaimed)
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
			// And recovery stays clean — the duplicate never wrote a blob.
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

// TestRecoverIdempotent: a second sweep over a recovered store finds
// nothing to do.
func TestRecoverIdempotent(t *testing.T) {
	bucket := newTestBucket(t)
	r := New(bucket)
	if _, err := r.Save(archiveBlob(t, "run-a", 1, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := bucket.Put(runObject("ghost"), []byte("orphan")); err != nil {
		t.Fatal(err)
	}
	_, rep1, err := Open(bucket)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep1.Reclaimed, []string{runObject("ghost")}) {
		t.Fatalf("first recovery = %+v", rep1)
	}
	_, rep2, err := Open(bucket)
	if err != nil {
		t.Fatal(err)
	}
	if !rep2.Clean() {
		t.Fatalf("second recovery not clean: %+v", rep2)
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

// legacyJournal0 is what an older build's shard-0 intent journal held
// after a settled save of run-a and a save of ghost cut before its
// manifest CAS: CRC-framed JSON records, intent and done paired by seq.
var legacyJournal0 = []string{
	`{"seq":1,"op":"save-batch","phase":"intent","members":[{"run_id":"run-a","object":"runs/run-a/archive","offset":0,"length":0}]}`,
	`{"seq":1,"op":"save-batch","phase":"done"}`,
	`{"seq":2,"op":"save-batch","phase":"intent","members":[{"run_id":"ghost","object":"runs/ghost/archive","offset":0,"length":0}]}`,
}

// TestRecoverDeletesLegacyJournal: a repository an older build left
// with an open save intent opens, not refused. The sweep settles the
// intent the way a replay would have — the orphan blob goes — and
// deletes the journal itself.
func TestRecoverDeletesLegacyJournal(t *testing.T) {
	for _, st := range testStores {
		t.Run(st.name, func(t *testing.T) {
			store := st.open(t)
			if _, err := New(store).Save(archiveBlob(t, "run-a", 1, 0)); err != nil {
				t.Fatal(err)
			}
			journal := legacyJournalPrefix + "0"
			for _, rec := range legacyJournal0 {
				if err := appendFrame(store, journal, []byte(rec)); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := store.Put(runObject("ghost"), archiveBlob(t, "ghost", 2, 0)); err != nil {
				t.Fatal(err)
			}

			r, rep, err := Open(store)
			if err != nil {
				t.Fatalf("Open over a legacy journal: %v", err)
			}
			if want := []string{journal, runObject("ghost")}; !reflect.DeepEqual(rep.Reclaimed, want) {
				t.Fatalf("Reclaimed = %v, want %v", rep.Reclaimed, want)
			}
			if store.Exists(journal) || store.Exists(runObject("ghost")) {
				t.Fatal("journal or orphan blob survived the sweep")
			}
			listed, err := r.List(Filter{})
			if err != nil || len(listed) != 1 {
				t.Fatalf("List = %v, %v; want run-a", listed, err)
			}
			if _, _, err := r.Get("run-a"); err != nil {
				t.Fatalf("indexed run unreadable: %v", err)
			}
			if frep, err := r.Fsck(false); err != nil || !frep.Clean() {
				t.Fatalf("fsck = %+v, %v", frep, err)
			}
			if _, rep, err := Open(store); err != nil || !rep.Clean() {
				t.Fatalf("second Open = %+v, %v; want nothing reclaimed", rep, err)
			}
		})
	}
}
