package repo

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/archive"
	"repro/internal/faultnet"
	"repro/internal/obs"
)

// tinyBlob builds the smallest valid archive for a run — the
// contention suite saves hundreds of them, so the per-blob cost must
// stay trivial.
func tinyBlob(t testing.TB, runID string, seq uint64) []byte {
	t.Helper()
	w := archive.NewWriter(archive.Meta{RunID: runID, Workload: "ingest", CreatedSeq: seq})
	for _, r := range synthRecords(2, 0) {
		w.Add(r)
	}
	return w.Finalize(nil)
}

// runContentionSuite drives `agents` concurrent savers against a
// sharded repository over a store that injects a generation mismatch
// on every 3rd conditional write, then asserts the zero-loss contract:
// no saver surfaces any error (least of all ErrManifestContention),
// every acked run is listed and readable, and a fresh handle finds the
// store fsck-clean. It runs once per store (testStores).
func runContentionSuite(t *testing.T, agents int) {
	t.Helper()
	for _, st := range testStores {
		t.Run(st.name, func(t *testing.T) { runContentionSuiteOver(t, st.open(t), agents) })
	}
}

func runContentionSuiteOver(t *testing.T, bucket Store, agents int) {
	t.Helper()
	cs := &faultnet.ContendingStore{Inner: bucket, FailEvery: 3}
	r, _, err := OpenShards(cs, DefaultShards)
	if err != nil {
		t.Fatal(err)
	}
	r.SetObs(obs.NewRegistry(0))
	// Backoff schedules stay deterministic; the sleeper just yields so
	// the suite doesn't serialize on real timers under -race.
	r.sleep = func(time.Duration) { runtime.Gosched() }

	blobs := make([][]byte, agents)
	for i := range blobs {
		blobs[i] = tinyBlob(t, fmt.Sprintf("agent-%03d", i), uint64(i+1))
	}

	var wg sync.WaitGroup
	errs := make([]error, agents)
	wg.Add(agents)
	for i := 0; i < agents; i++ {
		go func(i int) {
			defer wg.Done()
			_, errs[i] = r.Save(blobs[i])
		}(i)
	}
	wg.Wait()

	for i, err := range errs {
		if err == nil {
			continue
		}
		if errors.Is(err, ErrManifestContention) {
			t.Fatalf("agent %d surfaced ErrManifestContention — retries not absorbed", i)
		}
		t.Fatalf("agent %d: %v", i, err)
	}
	if cs.Injections() == 0 {
		t.Fatal("contention injector never fired; the suite tested nothing")
	}

	// Acked ⇒ durable: every save is listed and its archive opens.
	listed, err := r.List(Filter{})
	if err != nil {
		t.Fatal(err)
	}
	if len(listed) != agents {
		t.Fatalf("listed %d runs, want %d — acked saves lost", len(listed), agents)
	}
	for _, info := range listed {
		if _, _, err := r.Get(info.RunID); err != nil {
			t.Fatalf("acked run %q unreadable: %v", info.RunID, err)
		}
	}

	// A fresh handle over the raw bucket sees a settled, clean store.
	r2, rrep, err := Open(bucket)
	if err != nil {
		t.Fatal(err)
	}
	if !rrep.Clean() {
		t.Fatalf("objects left to reclaim after all saves acked: %v", rrep.Reclaimed)
	}
	frep, err := r2.Fsck(false)
	if err != nil {
		t.Fatal(err)
	}
	if !frep.Clean() {
		t.Fatalf("fsck after contention run: %+v", frep.Issues)
	}
}

func TestShardedContentionZeroLoss64(t *testing.T) { runContentionSuite(t, 64) }

func TestShardedContentionZeroLoss256(t *testing.T) {
	if testing.Short() {
		t.Skip("256-agent suite skipped in -short")
	}
	runContentionSuite(t, 256)
}

// TestFlakyJournalDoesNotLoseAcks: transient failures of the Puts,
// PutIfs and Deletes a save makes surface as save errors (no ack), and
// every save that DID ack is durable — the flaky store can deny service
// but never corrupt.
func TestFlakyJournalDoesNotLoseAcks(t *testing.T) {
	bucket := newTestBucket(t)
	n := 0
	everyFifth := func(string) error {
		n++
		if n%5 == 0 {
			return faultnet.ErrTransientStorage
		}
		return nil
	}
	flaky := &hookStore{Store: bucket, putErr: everyFifth, putIfErr: everyFifth, deleteErr: everyFifth}
	r, _, err := OpenShards(flaky, 4)
	if err != nil {
		t.Fatal(err)
	}
	acked := 0
	for i := 0; i < 30; i++ {
		id := fmt.Sprintf("flaky-%02d", i)
		if _, err := r.Save(tinyBlob(t, id, uint64(i+1))); err == nil {
			acked++
		}
	}
	if acked == 0 {
		t.Fatal("no save ever acked under 20% append failure")
	}
	r2, _, err := Open(bucket)
	if err != nil {
		t.Fatal(err)
	}
	listed, err := r2.List(Filter{})
	if err != nil {
		t.Fatal(err)
	}
	if len(listed) < acked {
		t.Fatalf("%d acked but only %d durable", acked, len(listed))
	}
	for _, info := range listed {
		if _, _, err := r2.Get(info.RunID); err != nil {
			t.Fatalf("run %q unreadable: %v", info.RunID, err)
		}
	}
	rep, err := r2.Fsck(false)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("fsck: %+v", rep.Issues)
	}
}
