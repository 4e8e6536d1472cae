package repo

import (
	"errors"
	"testing"

	"repro/internal/faultnet"
	"repro/internal/obs"
	"repro/internal/rpc"
)

// TestRecoveryPathsMoveTheirCounters drives every crash-recovery path
// in turn over one registry — an interrupted save's orphan blob
// reclaimed by the sweep, a truncated blob salvaged, a missing blob
// fsck-repaired, and a fleet session resumed across a collector
// restart — and checks that each path moved its observability counter.
// Unit tests prove the mechanisms; this proves the wiring: a nil
// registry handed to any layer passes every unit test and fails here.
func TestRecoveryPathsMoveTheirCounters(t *testing.T) {
	bucket := newTestBucket(t)
	seed := New(bucket)
	for i, id := range []string{"run-a", "run-b"} {
		if _, err := seed.Save(crashBlob(t, id, uint64(i+1), 30)); err != nil {
			t.Fatal(err)
		}
	}

	// 1. The power cut lands after the blob put of a save, stranding an
	// orphan blob that no manifest names.
	cs := faultnet.NewCrashStore(bucket)
	crashed, _, err := Open(cs)
	if err != nil {
		t.Fatal(err)
	}
	cs.CrashAfterWrites(1, false)
	if _, err := crashed.Save(crashBlob(t, "run-c", 9, 30)); !errors.Is(err, faultnet.ErrPowerLost) {
		t.Fatalf("scripted crash save: err = %v, want power lost", err)
	}

	// Power restored: sweep with the registry attached.
	reg := obs.NewRegistry(128)
	r := New(bucket)
	r.SetObs(reg)
	rec, err := r.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rec.Clean() {
		t.Fatal("recovery found nothing: the scripted crash left no debris")
	}
	if got := reg.Snapshot().C("repo.recover.reclaimed"); got < 1 {
		t.Fatalf("repo.recover.reclaimed = %d after reclaiming %v", got, rec.Reclaimed)
	}

	// 2. Truncate a blob's tail and salvage it.
	obj, err := bucket.Get("runs/run-b/archive")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bucket.Put("runs/run-b/archive", obj.Data[:len(obj.Data)-16]); err != nil {
		t.Fatal(err)
	}
	_, srep, err := r.Salvage("run-b")
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Snapshot().C("repo.salvage.segments.recovered"); got < 1 {
		t.Fatalf("repo.salvage.segments.recovered = %d after salvaging %d segments", got, srep.SegmentsKept)
	}

	// 3. Lose a blob outright and let fsck repair the manifest.
	if err := bucket.Delete("runs/run-a/archive"); err != nil {
		t.Fatal(err)
	}
	frep, err := r.Fsck(true)
	if err != nil {
		t.Fatal(err)
	}
	if snap := reg.Snapshot(); snap.C("repo.fsck.issues") < 1 || snap.C("repo.fsck.repairs") < 1 {
		t.Fatalf("fsck counters: issues=%d repairs=%d after %d repairs",
			snap.C("repo.fsck.issues"), snap.C("repo.fsck.repairs"), frep.Repaired)
	}

	// 4. A fleet session across a collector restart: only the bucket
	// survives the first collector.
	recs := sessionRecords(4, 20)
	f1 := NewFleet(r, FleetOptions{Obs: reg})
	srv1 := rpc.NewServer()
	f1.Register(srv1)
	c1 := rpc.Pipe(srv1)
	fc1, err := OpenResilient(c1, OpenRequest{RunID: "run-f", Workload: "fleet"})
	if err != nil {
		t.Fatal(err)
	}
	if err := fc1.AppendBatch(recs[:11]); err != nil {
		t.Fatal(err)
	}
	c1.Close()
	srv1.Close()
	closeAllSessions(f1) // the dead collector's drains finish their records

	f2 := NewFleet(r, FleetOptions{Obs: reg})
	srv2 := rpc.NewServer()
	f2.Register(srv2)
	defer srv2.Close()
	parked, err := f2.RecoverSessions()
	if err != nil {
		t.Fatal(err)
	}
	if len(parked) != 1 {
		t.Fatalf("parked sessions = %v, want exactly the interrupted one", parked)
	}
	c2 := rpc.Pipe(srv2)
	defer c2.Close()
	fc2, accepted, err := ResumeResilient(c2, fc1.Token())
	if err != nil {
		t.Fatal(err)
	}
	if accepted != 11 {
		t.Fatalf("resume accepted %d records, want 11", accepted)
	}
	if err := fc2.AppendBatch(recs[accepted:]); err != nil {
		t.Fatal(err)
	}
	info, err := fc2.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if info.Records != int64(len(recs)) {
		t.Fatalf("resumed run archived %d records, want %d", info.Records, len(recs))
	}
	snap := reg.Snapshot()
	if got := snap.C("fleet.sessions.resumed"); got != 1 {
		t.Fatalf("fleet.sessions.resumed = %d, want 1", got)
	}
	// The zero-loss ledger: both collectors shared the registry, so
	// across the restart every record that came in was archived.
	if in, arch := snap.C("fleet.records.in"), snap.C("fleet.records.archived"); in != arch || in != int64(len(recs)) {
		t.Fatalf("records.in = %d, records.archived = %d, want %d each", in, arch, len(recs))
	}
}
