package repo

import (
	"errors"
	"fmt"
	"sync"
	"testing"

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
// contract on the one journal format: a full round of
// DefaultIngestBatch saves on one shard, driven directly (white box),
// produces ONE save-batch intent and lands together; a plain Save
// journals the same intent with one member.
func TestIngestorGroupCommitAmortizesIndexWrites(t *testing.T) {
	bucket := newBucket(t)
	r, _, err := OpenShards(bucket, 1)
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

	// The whole round cost one batch intent (plus its done record), the
	// lone save another.
	ss, err := r.resolveShards()
	if err != nil {
		t.Fatal(err)
	}
	recs, torn, err := readJournalObject(bucket, ss.journalObject(0))
	if err != nil || torn != 0 {
		t.Fatalf("journal read: %v (torn %d)", err, torn)
	}
	var members []int
	for _, rec := range recs {
		if rec.Phase == phaseIntent {
			if rec.Op != opSaveBatch {
				t.Fatalf("journaled op %q, want %q", rec.Op, opSaveBatch)
			}
			members = append(members, len(rec.Members))
		}
	}
	if len(members) != 2 || members[0] != k || members[1] != 1 {
		t.Fatalf("journal holds intents with %v members, want [%d 1]", members, k)
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
// writes and the manifest CAS: the open save-batch intent must replay
// member-wise — committed members untouched, orphaned blobs reclaimed.
func TestIngestorBatchIntentRecovery(t *testing.T) {
	bucket := newBucket(t)
	r, _, err := OpenShards(bucket, 1)
	if err != nil {
		t.Fatal(err)
	}
	// A committed run (normal save) shares the batch with a victim.
	if _, err := r.Save(archiveBlob(t, "committed", 1, 0)); err != nil {
		t.Fatal(err)
	}

	ss, _ := r.resolveShards()
	if _, err := r.logIntentAt(ss.journalObject(0), journalRecord{
		Op: opSaveBatch,
		Members: []packMember{
			{RunID: "committed", Object: runObject("committed")},
			{RunID: "torn-away", Object: runObject("torn-away")},
		},
	}); err != nil {
		t.Fatal(err)
	}
	// The crash landed after this member's blob write, before the CAS.
	if _, err := bucket.Put(runObject("torn-away"), []byte("never indexed")); err != nil {
		t.Fatal(err)
	}

	r2, rep, err := Open(bucket)
	if err != nil {
		t.Fatal(err)
	}
	if rep.RolledBack != 1 {
		t.Fatalf("recovery rolled back %d intents, want 1", rep.RolledBack)
	}
	if bucket.Exists(runObject("torn-away")) {
		t.Fatal("orphaned batch member's blob survived recovery")
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
