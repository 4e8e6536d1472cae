package repo

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/faultnet"
	"repro/internal/obs"
	"repro/internal/rpc"
)

func TestIngestorConcurrentSavesAllLand(t *testing.T) {
	for _, entry := range saveEntries {
		t.Run(entry.name, func(t *testing.T) {
			bucket := newBucket(t)
			r, _, err := OpenShards(bucket, 4)
			if err != nil {
				t.Fatal(err)
			}
			reg := obs.NewRegistry(32)
			save := entry.open(t, r, IngestorOptions{Obs: reg})

			const n = 48
			var wg sync.WaitGroup
			errs := make([]error, n)
			for i := 0; i < n; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					info, err := save(archiveBlob(t, fmt.Sprintf("grp-%d", i), uint64(i+1), 0))
					if err != nil {
						errs[i] = err
						return
					}
					if info.Records != 30 {
						errs[i] = fmt.Errorf("run %d archived %d records", i, info.Records)
					}
				}(i)
			}
			wg.Wait()
			for i, err := range errs {
				if err != nil {
					t.Fatalf("save %d: %v", i, err)
				}
			}

			runs, err := r.List(Filter{})
			if err != nil {
				t.Fatal(err)
			}
			if len(runs) != n {
				t.Fatalf("repository holds %d runs, want %d", len(runs), n)
			}
			fr, err := r.Fsck(false)
			if err != nil {
				t.Fatal(err)
			}
			if !fr.Clean() {
				t.Fatalf("fsck after concurrent saves: %+v", fr.Issues)
			}
			// Only the lane counts rounds; Save is a round of one with no
			// queue in front of it.
			if entry.name == "lane" {
				snap := reg.Snapshot()
				if got := snap.C("repo.ingest.batched_runs"); got != n {
					t.Fatalf("repo.ingest.batched_runs = %d, want %d", got, n)
				}
				if snap.C("repo.ingest.batches") == 0 {
					t.Fatal("no commit rounds recorded")
				}
			}

			if _, err := save(archiveBlob(t, "grp-0", 99, 0)); !errors.Is(err, ErrRunExists) {
				t.Fatalf("duplicate save: %v, want ErrRunExists", err)
			}
		})
	}
}

// TestIngestorGroupCommitAmortizesIndexWrites proves the batching
// contract: a full round of DefaultIngestBatch saves on one shard,
// driven directly (white box), lands with ONE manifest CAS; a plain
// Save is a round of one and costs one more.
func TestIngestorGroupCommitAmortizesIndexWrites(t *testing.T) {
	bucket := newBucket(t)
	cas := 0
	counting := &hookStore{Store: bucket, putIfErr: func(name string) error {
		if name == manifest0 {
			cas++
		}
		return nil
	}}
	r, _, err := OpenShards(counting, 1)
	if err != nil {
		t.Fatal(err)
	}
	g := NewIngestor(r, IngestorOptions{})
	defer g.Close()

	const k = DefaultIngestBatch
	reqs := make([]ingestReq, k)
	for i := range reqs {
		reqs[i] = ingestReq{
			blob: archiveBlob(t, fmt.Sprintf("round-%d", i), uint64(i+1), 0),
			resp: make(chan ingestResp, 1),
		}
	}
	g.commit(reqs)
	for i, req := range reqs {
		resp := <-req.resp
		if resp.err != nil {
			t.Fatalf("member %d: %v", i, resp.err)
		}
		if resp.info.RunID != fmt.Sprintf("round-%d", i) {
			t.Fatalf("member %d answered with %q", i, resp.info.RunID)
		}
	}
	if _, err := r.Save(archiveBlob(t, "alone", k+1, 0)); err != nil {
		t.Fatal(err)
	}

	// The whole round cost one manifest CAS, the lone save another.
	if cas != 2 {
		t.Fatalf("%d manifest CASes for a round of %d and one save, want 2", cas, k)
	}

	runs, err := r.List(Filter{})
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != k+1 {
		t.Fatalf("%d runs indexed, want %d", len(runs), k+1)
	}
}

// TestIngestorBatchIntentRecovery crashes a round between the blob
// writes and the manifest CAS: committed runs stay untouched, and the
// round's orphaned blobs are reclaimed by the next Open.
func TestIngestorBatchIntentRecovery(t *testing.T) {
	bucket := newBucket(t)
	r, _, err := OpenShards(bucket, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Save(archiveBlob(t, "committed", 1, 0)); err != nil {
		t.Fatal(err)
	}

	// The crash lands after the round's two blob writes, on its CAS.
	cs := faultnet.NewCrashStore(bucket)
	cs.CrashAfterWrites(2, false)
	var errs []error
	New(cs).commitSaves([][]byte{
		archiveBlob(t, "torn-a", 2, 0), archiveBlob(t, "torn-b", 3, 0),
	}, nil, func(_ int, _ RunInfo, err error) { errs = append(errs, err) })
	if len(errs) != 2 || !errors.Is(errs[0], faultnet.ErrPowerLost) || !errors.Is(errs[1], faultnet.ErrPowerLost) {
		t.Fatalf("round answered %v, want power lost twice", errs)
	}
	if !bucket.Exists(runObject("torn-a")) || !bucket.Exists(runObject("torn-b")) {
		t.Fatal("test setup: the round's blobs did not land before the cut")
	}

	r2, rep, err := Open(bucket)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{runObject("torn-a"), runObject("torn-b")}; !reflect.DeepEqual(rep.Reclaimed, want) {
		t.Fatalf("Reclaimed = %v, want %v", rep.Reclaimed, want)
	}
	if _, _, err := r2.Get("committed"); err != nil {
		t.Fatalf("committed batch member damaged by recovery: %v", err)
	}
	fr, err := r2.Fsck(false)
	if err != nil {
		t.Fatal(err)
	}
	if !fr.Clean() {
		t.Fatalf("fsck after batch recovery: %+v", fr.Issues)
	}
}

func TestIngestorRefusesForeignShard(t *testing.T) {
	bucket := newBucket(t)
	rc := &ReplicaConfig{ID: 0, Replicas: 2}
	r, _, err := OpenShardsOwned(bucket, 4, rc.OwnedShards(4))
	if err != nil {
		t.Fatal(err)
	}
	g := NewIngestor(r, IngestorOptions{Replica: rc})
	defer g.Close()

	foreign := runOwnedBy(t, "not-mine", 4, &ReplicaConfig{ID: 1, Replicas: 2})
	if _, err := g.Save(archiveBlob(t, foreign, 1, 0)); err == nil {
		t.Fatal("ingestor accepted a run from a foreign shard")
	}
	mine := runOwnedBy(t, "mine", 4, rc)
	if _, err := g.Save(archiveBlob(t, mine, 2, 0)); err != nil {
		t.Fatalf("ingestor refused its own shard: %v", err)
	}
}

// TestFleetFinalizeRoutesThroughIngestor wires the lane into a fleet:
// finalize must archive via the group-commit path, with Save semantics
// intact end to end.
func TestFleetFinalizeRoutesThroughIngestor(t *testing.T) {
	bucket := newBucket(t)
	r, _, err := OpenShards(bucket, 2)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry(64)
	g := NewIngestor(r, IngestorOptions{Obs: reg})
	defer g.Close()
	f := NewFleet(r, FleetOptions{Obs: reg, Ingest: g})
	srv := rpc.NewServer()
	f.Register(srv)
	defer srv.Close()

	c := rpc.Pipe(srv)
	defer c.Close()
	fc, err := OpenResilient(c, OpenRequest{RunID: "laned", Workload: "synthetic"})
	if err != nil {
		t.Fatal(err)
	}
	const n = 20
	for _, rec := range sessionRecords(0, n) {
		if err := fc.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	info, err := fc.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if info.Records != n {
		t.Fatalf("archived %d records, want %d", info.Records, n)
	}
	snap := reg.Snapshot()
	if snap.C("repo.ingest.batched_runs") != 1 {
		t.Fatalf("finalize bypassed the ingest lane: %v", snap.Counters)
	}
	if _, _, err := r.Get("laned"); err != nil {
		t.Fatal(err)
	}
}

func TestIngestorCloseDrainsAndRefuses(t *testing.T) {
	bucket := newBucket(t)
	r, _, err := OpenShards(bucket, 2)
	if err != nil {
		t.Fatal(err)
	}
	g := NewIngestor(r, IngestorOptions{})

	const n = 10
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = g.Save(archiveBlob(t, fmt.Sprintf("drain-%d", i), uint64(i+1), 0))
		}(i)
	}
	wg.Wait() // every Save answered before Close
	g.Close()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("save %d: %v", i, err)
		}
	}
	if _, err := g.Save(archiveBlob(t, "late", 99, 0)); !errors.Is(err, ErrIngestorClosed) {
		t.Fatalf("save after close: %v, want ErrIngestorClosed", err)
	}
	g.Close() // idempotent
}
