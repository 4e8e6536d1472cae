package repo

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/archive"
	"repro/internal/faultnet"
	"repro/internal/prng"
	"repro/internal/rpc"
	"repro/internal/storage"
)

func openSharded(t *testing.T, store Store, shards int) *Repo {
	t.Helper()
	r, _, err := OpenShards(store, shards)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestShardRoutingStable pins the hash routing: the same run ID must
// land on the same shard forever (a routing change would strand every
// existing entry on the wrong shard).
func TestShardRoutingStable(t *testing.T) {
	ss := shardSet{n: 8}
	for id, want := range map[string]int{
		"run-a":       shardIndex("run-a", 8),
		"dcgan-00042": shardIndex("dcgan-00042", 8),
	} {
		if got := ss.shardOf(id); got != want {
			t.Fatalf("shardOf(%q) = %d, want %d", id, got, want)
		}
	}
	// Distribution sanity: 256 IDs over 8 shards should touch them all.
	seen := map[int]bool{}
	for i := 0; i < 256; i++ {
		seen[ss.shardOf("agent-"+strconv.Itoa(i))] = true
	}
	if len(seen) != 8 {
		t.Fatalf("256 IDs hit only %d/8 shards", len(seen))
	}
}

// TestNextSeqMonotonicAcrossShardLeases is the regression test for the
// cross-shard ordering bug: lease blocks rotate across shards, and the
// global sequence must stay strictly increasing within a process — no
// duplicates, no order flips — even as the allocator interleaves shard
// blocks.
func TestNextSeqMonotonicAcrossShardLeases(t *testing.T) {
	r := openSharded(t, newTestBucket(t), 4)
	var prev uint64
	seen := make(map[uint64]bool)
	// 300 allocations forces several lease rotations (block size 64).
	for i := 0; i < 300; i++ {
		seq, err := r.NextSeq()
		if err != nil {
			t.Fatal(err)
		}
		if seq <= prev {
			t.Fatalf("allocation %d: seq %d after %d — order flipped", i, seq, prev)
		}
		if seen[seq] {
			t.Fatalf("allocation %d: seq %d issued twice", i, seq)
		}
		seen[seq] = true
		prev = seq
	}
}

// TestNextSeqDisjointAcrossProcesses: two repository handles over the
// same store (two collection servers) must never issue the same
// sequence, and each must stay internally monotonic.
func TestNextSeqDisjointAcrossProcesses(t *testing.T) {
	bucket := newTestBucket(t)
	r1 := openSharded(t, bucket, 4)
	r2 := openSharded(t, bucket, 4)
	seen := make(map[uint64]string)
	var p1, p2 uint64
	for i := 0; i < 200; i++ {
		s1, err := r1.NextSeq()
		if err != nil {
			t.Fatal(err)
		}
		s2, err := r2.NextSeq()
		if err != nil {
			t.Fatal(err)
		}
		if s1 <= p1 || s2 <= p2 {
			t.Fatalf("iteration %d: non-monotonic (%d<=%d or %d<=%d)", i, s1, p1, s2, p2)
		}
		p1, p2 = s1, s2
		for _, pair := range []struct {
			who string
			s   uint64
		}{{"r1", s1}, {"r2", s2}} {
			if prev, dup := seen[pair.s]; dup {
				t.Fatalf("seq %d issued by both %s and %s", pair.s, prev, pair.who)
			}
			seen[pair.s] = pair.who
		}
	}
}

// TestCasBackoffDeterministicSchedule: the backoff sleeps come from the
// injected prng through the injected sleeper — no wall clock — and the
// jitter ceilings grow exponentially up to the cap.
func TestCasBackoffDeterministicSchedule(t *testing.T) {
	r := New(newTestBucket(t))
	var slept []time.Duration
	r.sleep = func(d time.Duration) { slept = append(slept, d) }
	for attempt := 1; attempt <= 12; attempt++ {
		r.casBackoff(attempt)
	}
	if len(slept) != 12 {
		t.Fatalf("expected 12 sleeps, got %d", len(slept))
	}
	for i, d := range slept {
		shift := i + 1
		if shift > casBackoffMaxShift {
			shift = casBackoffMaxShift
		}
		ceil := casBackoffBase << shift
		if d < 0 || d >= ceil {
			t.Fatalf("attempt %d slept %v, want [0,%v)", i+1, d, ceil)
		}
	}
	// Deterministic: a second repository seeded identically replays the
	// same schedule.
	r2 := New(newTestBucket(t))
	r2.rng = prng.New(nextRepoSeed()) // different stream must differ somewhere
	var slept2 []time.Duration
	r2.sleep = func(d time.Duration) { slept2 = append(slept2, d) }
	for attempt := 1; attempt <= 12; attempt++ {
		r2.casBackoff(attempt)
	}
	same := len(slept) == len(slept2)
	if same {
		for i := range slept {
			if slept[i] != slept2[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("two distinct jitter streams produced identical schedules")
	}
}

// TestManifestContentionIsTransient pins the error classification the
// fleet retry path depends on: CAS exhaustion must read as a transient
// busy condition, not a permanent failure.
func TestManifestContentionIsTransient(t *testing.T) {
	if !errors.Is(ErrManifestContention, rpc.ErrBusy) {
		t.Fatal("ErrManifestContention does not wrap rpc.ErrBusy")
	}
	if !rpc.IsTransient(ErrManifestContention) {
		t.Fatal("IsTransient(ErrManifestContention) = false; agents would fail instead of retrying")
	}
	wrapped := errors.New("outer: " + ErrManifestContention.Error())
	_ = wrapped // plain string copies must NOT classify — only the wrapped chain
	if rpc.IsTransient(&rpc.RemoteError{Msg: "x"}) {
		t.Fatal("RemoteError must not be transient")
	}
}

// TestUpdateContentionBacksOffAndSucceeds: injected generation
// mismatches (every 2nd PutIf fails) must be absorbed by the retry
// loop — the mutation still lands, the backoff sleeper is exercised,
// and no ErrManifestContention escapes.
func TestUpdateContentionBacksOffAndSucceeds(t *testing.T) {
	bucket := newTestBucket(t)
	cs := &faultnet.ContendingStore{Inner: bucket, FailEvery: 2}
	r, _, err := OpenShards(cs, 4)
	if err != nil {
		t.Fatal(err)
	}
	var sleeps int
	r.sleep = func(time.Duration) { sleeps++ }
	for i := 0; i < 20; i++ {
		id := "run-" + strconv.Itoa(i)
		if _, err := r.Save(archiveBlob(t, id, uint64(i+1), 0)); err != nil {
			t.Fatalf("save %s under injected contention: %v", id, err)
		}
	}
	if cs.Injections() == 0 {
		t.Fatal("contention injector never fired")
	}
	if sleeps == 0 {
		t.Fatal("CAS retries never backed off")
	}
	listed, err := r.List(Filter{})
	if err != nil {
		t.Fatal(err)
	}
	if len(listed) != 20 {
		t.Fatalf("listed %d runs, want 20", len(listed))
	}
}

// seedV1Store hand-builds what a v1 build left behind, object by object
// (nothing in the package writes this layout): runs/manifest.json
// indexing n run blobs, and a runs/.journal holding one settled save
// plus one open save intent whose blob ("ghost") is on disk and
// unindexed — the v1 writer died mid-save.
func seedV1Store(t *testing.T, store Store, n int) {
	t.Helper()
	w := New(store) // only computes entries; never resolves the layout
	m := &manifest{NextSeq: uint64(n) + 2}
	for i := 0; i < n; i++ {
		blob := archiveBlob(t, "run-"+strconv.Itoa(i), uint64(i)+1, 0)
		a, err := archive.Open(blob)
		if err != nil {
			t.Fatal(err)
		}
		info := w.entryFor(a, RunInfo{})
		if _, err := store.Put(info.Object, blob); err != nil {
			t.Fatal(err)
		}
		m.Runs = append(m.Runs, info)
	}
	data, err := marshalManifest(m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Put(legacyManifestObject, data); err != nil {
		t.Fatal(err)
	}
	for _, rec := range []string{
		`{"seq":1,"op":"save","phase":"intent","run_id":"run-0","object":"runs/run-0/archive"}`,
		`{"seq":1,"op":"save","phase":"done"}`,
		`{"seq":2,"op":"save","phase":"intent","run_id":"ghost","object":"runs/ghost/archive"}`,
	} {
		if err := appendFrame(store, "runs/.journal", []byte(rec)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := store.Put(runObject("ghost"), archiveBlob(t, "ghost", uint64(n)+1, 0)); err != nil {
		t.Fatal(err)
	}
}

// storeContents snapshots every object's bytes.
func storeContents(t *testing.T, store Store) map[string]string {
	t.Helper()
	out := make(map[string]string)
	for _, name := range store.List("") {
		obj, err := store.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = string(obj.Data)
	}
	return out
}

// TestLegacyLayoutRefused: a v1 store is refused by every constructor
// and by every operation of the one constructor that cannot fail —
// never read as an empty repository, never converted, not by a repair
// either — and not one byte of it changes.
func TestLegacyLayoutRefused(t *testing.T) {
	bucket := newTestBucket(t)
	seedV1Store(t, bucket, 3)
	before := storeContents(t, bucket)

	refused := func(what string, err error) {
		t.Helper()
		if !errors.Is(err, ErrLegacyLayout) {
			t.Fatalf("%s on a v1 store: err = %v, want ErrLegacyLayout", what, err)
		}
	}
	r := New(bucket)
	_, err := r.List(Filter{})
	refused("New + List", err)
	_, err = r.Info("run-0")
	refused("New + Info", err)
	_, err = r.Save(archiveBlob(t, "fresh", 9, 0))
	refused("New + Save", err)
	_, err = r.Fsck(false)
	refused("New + Fsck(false)", err)
	_, err = r.Fsck(true)
	refused("New + Fsck(true)", err)
	_, _, err = r.Salvage("run-0")
	refused("New + Salvage", err)
	_, _, err = Open(bucket)
	refused("Open", err)
	if r4, _, err := OpenShards(bucket, 4); r4 != nil {
		t.Fatal("OpenShards handed back a repository over a v1 store")
	} else {
		refused("OpenShards", err)
	}
	_, _, err = OpenShardsOwned(bucket, 4, []int{0, 1, 2, 3})
	refused("OpenShardsOwned", err)

	if after := storeContents(t, bucket); !reflect.DeepEqual(after, before) {
		t.Fatalf("a refused v1 store changed:\n  before %d objects\n  after  %d objects", len(before), len(after))
	}
}

// TestLayoutCreationRace: two fresh handles with different shard
// targets racing to initialize one store must converge on a single
// layout (PutIf gen 0 — exactly one creator wins).
func TestLayoutCreationRace(t *testing.T) {
	bucket := newTestBucket(t)
	r1 := openSharded(t, bucket, 4)
	r2 := openSharded(t, bucket, 8)
	var wg sync.WaitGroup
	errs := make([]error, 2)
	wg.Add(2)
	go func() { defer wg.Done(); _, errs[0] = r1.Save(archiveBlob(t, "left", 1, 0)) }()
	go func() { defer wg.Done(); _, errs[1] = r2.Save(archiveBlob(t, "right", 2, 0)) }()
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("saver %d: %v", i, err)
		}
	}
	n1, _ := r1.Shards()
	n2, _ := r2.Shards()
	if n1 != n2 {
		t.Fatalf("handles disagree on shard count: %d vs %d", n1, n2)
	}
	r3, _, err := Open(bucket)
	if err != nil {
		t.Fatal(err)
	}
	listed, err := r3.List(Filter{})
	if err != nil {
		t.Fatal(err)
	}
	if len(listed) != 2 {
		t.Fatalf("listed %d runs, want 2", len(listed))
	}
}

// TestSaveRollbackSparesWinnerBlob is the TOCTOU regression test: the
// loser's save passes its duplicate pre-check, then a save of the same
// run ID commits through a second handle before the loser's manifest
// CAS — which then either loses the generation race and finds the run
// inside its retried mutation, or fails hard. Either way the loser
// must answer ErrRunExists (never success: it did not index the run),
// must NOT delete the blob — it now belongs to the winner's manifest
// entry — and must leave nothing for the next Open to reclaim.
func TestSaveRollbackSparesWinnerBlob(t *testing.T) {
	for _, hardFail := range []bool{false, true} {
		for _, entry := range saveEntries {
			name := "cas-lost/" + entry.name
			if hardFail {
				name = "cas-failed/" + entry.name
			}
			t.Run(name, func(t *testing.T) {
				bucket := newTestBucket(t)
				r2, _, err := Open(bucket)
				if err != nil {
					t.Fatal(err)
				}
				blob := archiveBlob(t, "contested", 1, 0)

				var once sync.Once
				var winnerGen int64
				hs := &hookStore{Store: bucket}
				hs.putIfErr = func(name string) error {
					var ferr error
					if name == manifest0 {
						once.Do(func() {
							// The interleaved winner: commits the same run
							// ID through a clean handle.
							if _, err := r2.Save(blob); err != nil {
								t.Errorf("winner save: %v", err)
							}
							if obj, err := bucket.Get(runObject("contested")); err == nil {
								winnerGen = obj.Generation
							}
							if hardFail {
								ferr = errors.New("injected hard failure after winner committed")
							}
						})
					}
					return ferr
				}
				save := entry.open(t, New(hs), IngestorOptions{})

				if _, err := save(blob); !errors.Is(err, ErrRunExists) {
					t.Fatalf("loser got %v, want ErrRunExists", err)
				}
				obj, err := bucket.Get(runObject("contested"))
				if err != nil {
					t.Fatalf("loser's rollback reclaimed the winner's blob: %v", err)
				}
				if obj.Generation != winnerGen {
					t.Fatalf("blob at generation %d, winner left it at %d", obj.Generation, winnerGen)
				}
				if _, _, err := r2.Get("contested"); err != nil {
					t.Fatalf("winner's run unreadable after loser rollback: %v", err)
				}
				r3, rec, err := Open(bucket)
				if err != nil {
					t.Fatal(err)
				}
				if !rec.Clean() {
					t.Fatalf("loser left debris for the sweep: %+v", rec)
				}
				if runs, err := r3.List(Filter{}); err != nil || len(runs) != 1 {
					t.Fatalf("listed %d runs (%v), want the winner's one", len(runs), err)
				}
				rep, err := r3.Fsck(false)
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Clean() {
					t.Fatalf("fsck after contested save: %+v", rep.Issues)
				}
			})
		}
	}
}

// TestConcurrentSameIDSaves: many goroutines saving the same run ID
// through one handle — exactly one wins, the rest get ErrRunExists,
// and the winner's blob survives intact.
func TestConcurrentSameIDSaves(t *testing.T) {
	for _, entry := range saveEntries {
		t.Run(entry.name, func(t *testing.T) {
			r := openSharded(t, newTestBucket(t), 4)
			save := entry.open(t, r, IngestorOptions{})
			blob := archiveBlob(t, "dup", 1, 0)
			const savers = 16
			var wg sync.WaitGroup
			errs := make([]error, savers)
			wg.Add(savers)
			for i := 0; i < savers; i++ {
				go func(i int) {
					defer wg.Done()
					_, errs[i] = save(blob)
				}(i)
			}
			wg.Wait()
			wins := 0
			for i, err := range errs {
				switch {
				case err == nil:
					wins++
				case errors.Is(err, ErrRunExists):
				default:
					t.Fatalf("saver %d: unexpected error %v", i, err)
				}
			}
			if wins != 1 {
				t.Fatalf("%d savers won, want exactly 1", wins)
			}
			if _, _, err := r.Get("dup"); err != nil {
				t.Fatalf("winning save unreadable: %v", err)
			}
		})
	}
}

// TestRangeReaderServesPackedRuns: both stores serve ranged reads, and
// a packed run read through the storage.RangeReader fast path is byte
// for byte what the Get-and-slice fallback returns.
func TestRangeReaderServesPackedRuns(t *testing.T) {
	for _, st := range testStores {
		t.Run(st.name, func(t *testing.T) {
			store := st.open(t)
			rr, ok := store.(storage.RangeReader)
			if !ok {
				t.Fatalf("%T does not serve ranged reads", store)
			}
			if _, err := store.Put("obj", []byte("hello world")); err != nil {
				t.Fatal(err)
			}
			got, err := rr.GetRange("obj", 6, 5)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != "world" {
				t.Fatalf("GetRange = %q", got)
			}
			if got, err := rr.GetRange("obj", 11, 0); err != nil || len(got) != 0 {
				t.Fatalf("empty range at the end = %q, %v", got, err)
			}
			for _, bad := range [][2]int64{{8, 10}, {-1, 2}, {2, -1}, {1, math.MaxInt64}} {
				if _, err := rr.GetRange("obj", bad[0], bad[1]); err == nil {
					t.Fatalf("out-of-bounds range %v did not error", bad)
				}
			}
			if _, err := rr.GetRange("missing", 0, 1); !errors.Is(err, storage.ErrNotFound) {
				t.Fatalf("missing object: %v", err)
			}

			r, _, err := OpenShards(store, 2)
			if err != nil {
				t.Fatal(err)
			}
			for i, n := range []int{9, 12, 15} {
				if _, err := r.Save(crashBlob(t, fmt.Sprintf("run-%d", i), uint64(i+1), n)); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := r.Compact(CompactOptions{Workload: "base"}); err != nil {
				t.Fatal(err)
			}
			// noRange hides GetRange, forcing readEntryBytes to fall back.
			type noRange struct{ Store }
			slow, _, err := OpenShards(noRange{store}, 0)
			if err != nil {
				t.Fatal(err)
			}
			infos, err := r.List(Filter{})
			if err != nil {
				t.Fatal(err)
			}
			for _, info := range infos {
				if !info.packed() {
					t.Fatalf("run %s was not packed", info.RunID)
				}
				ranged, err := r.readEntryBytes(info, 0, wholeEntry)
				if err != nil {
					t.Fatal(err)
				}
				sliced, err := slow.readEntryBytes(info, 0, wholeEntry)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(ranged, sliced) || int64(len(ranged)) != info.Length {
					t.Fatalf("run %s: ranged read (%d bytes) differs from Get-and-slice (%d bytes)", info.RunID, len(ranged), len(sliced))
				}
			}
			if len(infos) != 3 {
				t.Fatalf("listed %d runs, want 3", len(infos))
			}
		})
	}
}
