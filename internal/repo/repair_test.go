package repo

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/archive"
	"repro/internal/faultnet"
	"repro/internal/storage"
)

// repairBlob is a multi-segment archive with every identity field set,
// so a repair that forgets one shows.
func repairBlob(t *testing.T, runID, workload string, seq uint64) []byte {
	t.Helper()
	w := archive.NewWriter(archive.Meta{
		RunID: runID, Workload: workload, Label: "test", Tenant: "team-a",
		HostSpec: "n1-standard-8", TPUVersion: "v2", CreatedSeq: seq,
	})
	if err := w.SetSegmentTarget(512); err != nil {
		t.Fatal(err)
	}
	for _, r := range synthRecords(30, 0) {
		w.Add(r)
	}
	return w.Finalize(nil)
}

// tearFooter cuts the tail off a blob: the footer, and with it the
// run's metadata, is gone.
func tearFooter(blob []byte) []byte { return blob[:len(blob)*3/4] }

// flipMiddle damages one segment in the body and leaves the footer.
func flipMiddle(blob []byte) []byte {
	out := append([]byte(nil), blob...)
	out[len(out)/3] ^= 0x01
	return out
}

// TestRebuildKeepsIdentity drives rebuildRun through its three entry
// points. A footer-torn indexed run has lost its metadata and gets all
// of it back from the manifest entry (the two copies of that fix-up the
// shared routine replaced both dropped Tenant); a damaged orphan with
// its footer intact keeps the footer's.
func TestRebuildKeepsIdentity(t *testing.T) {
	for _, tc := range []struct {
		name    string
		indexed bool
		damage  func([]byte) []byte
		repair  func(r *Repo) error
	}{
		{"salvage", true, tearFooter, func(r *Repo) error { _, _, err := r.Salvage("run-t"); return err }},
		{"fsck-corrupt-entry", true, tearFooter, func(r *Repo) error { _, err := r.Fsck(true); return err }},
		{"fsck-orphan", false, flipMiddle, func(r *Repo) error { _, err := r.Fsck(true); return err }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bucket := newTestBucket(t)
			r := New(bucket)
			blob := repairBlob(t, "run-t", "synthetic", 7)
			var want RunInfo
			if tc.indexed {
				var err error
				if want, err = r.Save(blob); err != nil {
					t.Fatal(err)
				}
			} else {
				a, err := archive.Open(blob)
				if err != nil {
					t.Fatal(err)
				}
				want = r.entryFor(a, RunInfo{})
			}
			if _, err := bucket.Put(runObject("run-t"), tc.damage(blob)); err != nil {
				t.Fatal(err)
			}
			if err := tc.repair(r); err != nil {
				t.Fatal(err)
			}
			got, err := r.Info("run-t")
			if err != nil {
				t.Fatal(err)
			}
			if got.Records == 0 || got.Records >= want.Records {
				t.Fatalf("rebuilt run holds %d records, want some but fewer than %d", got.Records, want.Records)
			}
			if got.meta() != want.meta() {
				t.Fatalf("identity after repair = %+v, want %+v", got.meta(), want.meta())
			}
			if listed, err := r.List(Filter{Tenant: "team-a"}); err != nil || len(listed) != 1 {
				t.Fatalf("List(Tenant: team-a) = %+v, %v; want the repaired run", listed, err)
			}
			if _, a, err := r.Get("run-t"); err != nil || a.Meta() != want.meta() {
				t.Fatalf("rebuilt blob: %v, meta %+v", err, a.Meta())
			}
			if rep, err := r.Fsck(false); err != nil || !rep.Clean() {
				t.Fatalf("fsck after repair: %+v, %v", rep, err)
			}
		})
	}
}

// TestFsckKeepsTheBlobItRebuiltOutOfAPack: repairing a corrupt pack
// window writes the run a private blob. The same pass then classifies
// unreferenced objects, and must do so against the repaired index — it
// used to use the one it loaded first and quarantine the blob it had
// just written, leaving the run a phantom.
func TestFsckKeepsTheBlobItRebuiltOutOfAPack(t *testing.T) {
	bucket := newTestBucket(t)
	r := openSharded(t, bucket, 2)
	for i, id := range []string{"p1", "p2", "p3"} {
		if _, err := r.Save(repairBlob(t, id, "packed", uint64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.Compact(CompactOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := corruptWindow(bucket, mustInfo(t, r, "p2")); err != nil {
		t.Fatal(err)
	}
	rep, err := r.Fsck(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Issues) != 1 || !strings.Contains(rep.Issues[0].Action, "rebuilt out of pack") {
		t.Fatalf("issues = %+v, want the one corrupt window rebuilt", rep.Issues)
	}
	if info, _, err := r.Get("p2"); err != nil || info.packed() || info.Tenant != "team-a" {
		t.Fatalf("rebuilt run: %+v, %v", info, err)
	}
	if rep, err := r.Fsck(false); err != nil || !rep.Clean() {
		t.Fatalf("fsck after repair: %+v, %v", rep, err)
	}
}

// corruptWindow flips a byte a third of the way into a packed entry's
// window: one segment of that member dies, its siblings are untouched.
func corruptWindow(store Store, info RunInfo) error {
	obj, err := store.Get(info.Object)
	if err != nil {
		return err
	}
	obj.Data[info.Offset+info.Length/3] ^= 0x01
	_, err = store.Put(info.Object, obj.Data)
	return err
}

// windowStores is the store axis for the pack-window tests: a bucket
// serves windows through GetRange, the CrashStore decorator does not
// forward it, so the two drive both arms of readEntryBytes.
var windowStores = []struct {
	name string
	open func(t *testing.T) Store
}{
	{"ranged", func(t *testing.T) Store { return newTestBucket(t) }},
	{"get-and-slice", func(t *testing.T) Store { return faultnet.NewCrashStore(newTestBucket(t)) }},
}

// TestPackWindowOutsideObject: a hand-edited packed entry whose window
// overflows int64, or merely ends past the pack, is a finding — never a
// panic, never an I/O failure — on every path that reads a window.
func TestPackWindowOutsideObject(t *testing.T) {
	for _, st := range windowStores {
		for _, bad := range []struct {
			name        string
			edit        func(e *RunInfo)
			salvageable bool
		}{
			{"overflow", func(e *RunInfo) { e.Offset, e.Length = math.MaxInt64-5, 10 }, false},
			// The bytes of the window that exist are the whole archive.
			{"past-end", func(e *RunInfo) { e.Length += 1 << 20 }, true},
		} {
			t.Run(st.name+"/"+bad.name, func(t *testing.T) {
				store := st.open(t)
				r := openSharded(t, store, 2)
				ids := saveN(t, r, "dcgan", 3)
				if _, err := r.Compact(CompactOptions{}); err != nil {
					t.Fatal(err)
				}
				// The pack's last member, so past-end runs off the object.
				victim := ids[len(ids)-1]
				if err := r.updateRun(victim, func(m *manifest) error {
					bad.edit(&m.Runs[m.find(victim)])
					return nil
				}); err != nil {
					t.Fatal(err)
				}

				rep, err := r.Fsck(false)
				if err != nil {
					t.Fatalf("Fsck(false): %v", err)
				}
				if len(rep.Issues) != 1 || rep.Issues[0].Kind != IssueCorruptBlob || rep.Issues[0].RunID != victim {
					t.Fatalf("issues = %+v, want one corrupt-blob on %s", rep.Issues, victim)
				}
				if _, _, err := r.Get(victim); err == nil {
					t.Fatal("Get served a window outside its pack")
				}
				info, _, err := r.Salvage(victim)
				if bad.salvageable {
					if err != nil || info.packed() || info.Records != 3 {
						t.Fatalf("Salvage = %+v, %v; want the run whole in a private blob", info, err)
					}
				} else if err == nil {
					t.Fatalf("Salvage of a window with no bytes = %+v", info)
				}
				if _, err := r.Fsck(true); err != nil {
					t.Fatalf("Fsck(true): %v", err)
				}
				if rep, err := r.Fsck(false); err != nil || !rep.Clean() {
					t.Fatalf("fsck after repair: %+v, %v", rep, err)
				}
				for _, id := range ids[:len(ids)-1] {
					if _, _, err := r.Get(id); err != nil {
						t.Fatalf("sibling %s: %v", id, err)
					}
				}
			})
		}
	}
}

// readCountingStore counts what a pass reads: bytes per object, through
// Get and GetRange alike, and Gets per object.
type readCountingStore struct {
	*storage.Bucket
	bytes map[string]int
	gets  map[string]int
}

func (c *readCountingStore) Get(name string) (*storage.Object, error) {
	obj, err := c.Bucket.Get(name)
	c.gets[name]++
	if err == nil {
		c.bytes[name] += len(obj.Data)
	}
	return obj, err
}

func (c *readCountingStore) GetRange(name string, off, n int64) ([]byte, error) {
	data, err := c.Bucket.GetRange(name, off, n)
	c.bytes[name] += len(data)
	return data, err
}

// TestRepairPassesReadEachThingOnce bounds the reads of the passes that
// walk a packed repository: a check-only fsck once fetched the whole
// pack once per member, and the sweep must not scale with members at
// all.
func TestRepairPassesReadEachThingOnce(t *testing.T) {
	const members, shards = 16, 4
	bucket := newTestBucket(t)
	r := openSharded(t, bucket, shards)
	ids := saveN(t, r, "dcgan", members)
	crep, err := r.Compact(CompactOptions{})
	if err != nil || len(crep.Packs) != 1 || len(crep.Packs[0].Runs) != members {
		t.Fatalf("compact = %+v, %v; want one pack of %d", crep, err, members)
	}
	pack := crep.Packs[0]

	counting := func() *readCountingStore {
		return &readCountingStore{Bucket: bucket, bytes: map[string]int{}, gets: map[string]int{}}
	}
	cs := counting()
	if rep, err := New(cs).Fsck(false); err != nil || !rep.Clean() || rep.RunsChecked != members {
		t.Fatalf("fsck = %+v, %v", rep, err)
	}
	if got := cs.bytes[pack.Object]; got > 2*int(pack.Bytes) {
		t.Fatalf("Fsck(false) read %d bytes of a %d-byte pack: more than twice over", got, pack.Bytes)
	}

	// The pass above, cut after its last repoint: every member addresses
	// the pack and the old blobs are still there. The sweep that
	// reclaims them reads each manifest once and no archive bytes.
	for _, id := range ids {
		if _, err := bucket.Put(runObject(id), []byte("superseded blob")); err != nil {
			t.Fatal(err)
		}
	}
	cs = counting()
	if _, rep, err := Open(cs); err != nil || len(rep.Reclaimed) != members {
		t.Fatalf("recovery = %+v, %v; want the %d superseded blobs reclaimed", rep, err, members)
	}
	for name, got := range cs.gets {
		if isShardManifestObject(name) && got > 1 {
			t.Fatalf("the sweep read %s %d times, want once", name, got)
		}
	}
	for name, got := range cs.bytes {
		if !isRepoInternalObject(name) && got > 0 {
			t.Fatalf("the sweep read %d bytes of %s, want none", got, name)
		}
	}
	if rep, err := r.Fsck(false); err != nil || !rep.Clean() {
		t.Fatalf("fsck after the sweep: %+v, %v", rep, err)
	}
}

// The repair power-cut property test, sibling of
// TestPowerCutAtEveryWriteBoundary: the script damages runs and repairs
// them through all three entry points of rebuildRun — private and packed
// — and is killed at every write boundary. After power returns, Open's
// sweep plus one fsck -repair must leave a clean repository in which
// every run that was readable when the power went is still readable,
// with the records it had.

// runRepairScript drives the script against store until the cut (or the
// end) and returns what was readable after the last step that completed:
// run ID → record count.
func runRepairScript(t *testing.T, store *faultnet.CrashStore) (readable map[string]int64, done bool) {
	t.Helper()
	readable = map[string]int64{}
	r, _, err := OpenShards(store, 2)
	if err != nil {
		return readable, false
	}
	ids := []string{"p1", "p2", "p3", "s1", "s2"}
	note := func() {
		for _, id := range append(ids, "o1") {
			delete(readable, id)
			if info, _, err := r.Get(id); err == nil {
				readable[id] = info.Records
			}
		}
	}
	damagePrivate := func(id string) error {
		obj, err := store.Get(runObject(id))
		if err != nil {
			return err
		}
		_, err = store.Put(runObject(id), tearFooter(obj.Data))
		return err
	}
	damagePacked := func(id string) error {
		info, err := r.Info(id)
		if err != nil {
			return err
		}
		return corruptWindow(store, info)
	}
	steps := []func() error{
		func() error {
			for i, id := range ids {
				workload := "packed"
				if id[0] == 's' {
					workload = "private"
				}
				if _, err := r.Save(repairBlob(t, id, workload, uint64(i+1))); err != nil {
					return err
				}
			}
			return nil
		},
		func() error { _, err := r.Compact(CompactOptions{Workload: "packed"}); return err },
		func() error { return damagePrivate("s1") },
		func() error { _, _, err := r.Salvage("s1"); return err },
		func() error { return damagePacked("p1") },
		func() error { _, _, err := r.Salvage("p1"); return err },
		func() error { return damagePrivate("s2") },
		func() error { return damagePacked("p2") },
		// An orphan with a dead segment, for fsck to adopt through salvage.
		func() error {
			_, err := store.Put(runObject("o1"), flipMiddle(repairBlob(t, "o1", "private", 9)))
			return err
		},
		func() error { _, err := r.Fsck(true); return err },
	}
	for _, step := range steps {
		// A step whose last write is a done record reports success even
		// when the cut ate it.
		if err := step(); err != nil || store.Dead() {
			return readable, false
		}
		note()
	}
	return readable, true
}

func TestPowerCutAtEveryRepairWriteBoundary(t *testing.T) {
	for _, st := range testStores {
		t.Run(st.name, func(t *testing.T) {
			dry := faultnet.NewCrashStore(st.open(t))
			readable, done := runRepairScript(t, dry)
			if !done || len(readable) != 6 {
				t.Fatalf("dry run: done = %v, readable = %v; want all six runs readable", done, readable)
			}
			budget := dry.Writes()
			if budget < 30 {
				t.Fatalf("write budget %d suspiciously small — script not exercising the repairs", budget)
			}
			for _, tear := range []bool{false, true} {
				for n := 0; n < budget; n++ {
					label := "cut@" + strconv.Itoa(n)
					if tear {
						label += "+torn"
					}
					store := st.open(t)
					cs := faultnet.NewCrashStore(store)
					cs.CrashAfterWrites(n, tear)
					readable, _ := runRepairScript(t, cs)
					if !cs.Dead() {
						t.Fatalf("%s: cut never fired (budget %d)", label, budget)
					}
					// Power restored: verification runs on the raw store.
					if err := verifyRepaired(store, readable); err != nil {
						t.Fatalf("%s: %v", label, err)
					}
				}
			}
		})
	}
}

func verifyRepaired(store Store, readable map[string]int64) error {
	r, _, err := Open(store)
	if err != nil {
		return fmt.Errorf("recovery open: %w", err)
	}
	if _, err := r.Fsck(true); err != nil {
		return fmt.Errorf("fsck -repair: %w", err)
	}
	rep, err := r.Fsck(false)
	if err != nil {
		return fmt.Errorf("fsck: %w", err)
	}
	if !rep.Clean() {
		return fmt.Errorf("fsck not clean after recovery and one repair pass: %+v", rep.Issues)
	}
	for id, records := range readable {
		info, a, err := r.Get(id)
		if err != nil {
			return fmt.Errorf("run %q was readable when the power went and is not now: %w", id, err)
		}
		if info.Records != records || a.RecordCount() != records {
			return fmt.Errorf("run %q held %d records when the power went, %d now", id, records, info.Records)
		}
		if info.Tenant != "team-a" {
			return fmt.Errorf("run %q lost its tenant to a repair: %+v", id, info)
		}
	}
	return nil
}
