// crashcheck is the durability-counter smoke: it drives the crash
// recovery machinery end to end in-process — an interrupted save's
// orphan blob reclaimed by the sweep, a corrupted blob salvaged, a
// missing blob fsck-repaired, and a fleet session resumed across a collector
// restart — and asserts that each path moved its observability
// counter. Unit tests prove the mechanisms; this proves the wiring
// (a nil registry handed to any layer would pass every unit test and
// fail here).
package main

import (
	"errors"
	"fmt"
	"os"
	"time"

	"repro/internal/archive"
	"repro/internal/faultnet"
	"repro/internal/obs"
	"repro/internal/repo"
	"repro/internal/rpc"
	"repro/internal/simclock"
	"repro/internal/storage"
	"repro/internal/trace"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "crashcheck:", err)
		os.Exit(1)
	}
	fmt.Println("crashcheck: OK")
}

func blob(runID string, seq uint64, n int) []byte {
	w := archive.NewWriter(archive.Meta{RunID: runID, Workload: "crashcheck", CreatedSeq: seq})
	if err := w.SetSegmentTarget(512); err != nil {
		panic(err)
	}
	var ts simclock.Time
	for i := 0; i < n; i++ {
		w.Add(trace.Reduce(int64(i), ts, []trace.Event{
			{Name: "MatMul", Device: trace.TPU, Start: ts, Dur: 500, Step: int64(i)},
		}, 0.2, 0.4))
		ts += 1000
	}
	return w.Finalize(nil)
}

func records(n int) []*trace.ProfileRecord {
	recs := make([]*trace.ProfileRecord, 0, n)
	var ts simclock.Time
	for i := 0; i < n; i++ {
		recs = append(recs, trace.Reduce(int64(i), ts, []trace.Event{
			{Name: "Conv2D", Device: trace.TPU, Start: ts, Dur: 400, Step: int64(i)},
		}, 0.1, 0.5))
		ts += 1000
	}
	return recs
}

func run() error {
	svc := storage.NewService()
	bucket, err := svc.CreateBucket("crashcheck")
	if err != nil {
		return err
	}
	seed := repo.New(bucket)
	for i, id := range []string{"run-a", "run-b"} {
		if _, err := seed.Save(blob(id, uint64(i+1), 30)); err != nil {
			return err
		}
	}

	// 1. Interrupt a save mid-mutation: the power cut lands on the
	// manifest swap, stranding an orphan blob.
	cs := faultnet.NewCrashStore(bucket)
	crashed, _, err := repo.Open(cs)
	if err != nil {
		return err
	}
	cs.CrashAfterWrites(1, false) // blob put, then darkness
	if _, err := crashed.Save(blob("run-c", 9, 30)); !errors.Is(err, faultnet.ErrPowerLost) {
		return fmt.Errorf("scripted crash save: err = %v, want power lost", err)
	}

	// Power restored: sweep with the registry attached.
	reg := obs.NewRegistry(128)
	r := repo.New(bucket)
	r.SetObs(reg)
	rec, err := r.Recover()
	if err != nil {
		return err
	}
	if rec.Clean() {
		return errors.New("recovery found nothing: the scripted crash left no debris")
	}
	if got := reg.Snapshot().C("repo.recover.reclaimed"); got < 1 {
		return fmt.Errorf("repo.recover.reclaimed = %d after reclaiming %v", got, rec.Reclaimed)
	}
	fmt.Printf("recover: reclaimed %v\n", rec.Reclaimed)

	// 2. Corrupt a blob's tail and salvage it.
	obj, err := bucket.Get("runs/run-b/archive")
	if err != nil {
		return err
	}
	if _, err := bucket.Put("runs/run-b/archive", obj.Data[:len(obj.Data)-16]); err != nil {
		return err
	}
	_, srep, err := r.Salvage("run-b")
	if err != nil {
		return err
	}
	if got := reg.Snapshot().C("repo.salvage.segments.recovered"); got < 1 {
		return fmt.Errorf("repo.salvage.segments.recovered = %d after salvaging %d segments", got, srep.SegmentsKept)
	}
	fmt.Printf("salvage: %d/%d segments, %d records\n", srep.SegmentsKept, srep.SegmentsTotal, srep.RecordsKept)

	// 3. Lose a blob outright and let fsck repair the manifest.
	if err := bucket.Delete("runs/run-a/archive"); err != nil {
		return err
	}
	frep, err := r.Fsck(true)
	if err != nil {
		return err
	}
	snap := reg.Snapshot()
	if snap.C("repo.fsck.issues") < 1 || snap.C("repo.fsck.repairs") < 1 {
		return fmt.Errorf("fsck counters: issues=%d repairs=%d after %d repairs",
			snap.C("repo.fsck.issues"), snap.C("repo.fsck.repairs"), frep.Repaired)
	}
	fmt.Printf("fsck: %d issues, %d repaired\n", len(frep.Issues), frep.Repaired)

	// 4. Fleet session across a collector restart.
	recs := records(20)
	f1 := repo.NewFleet(r, repo.FleetOptions{Obs: reg})
	srv1 := rpc.NewServer()
	f1.Register(srv1)
	c1 := rpc.Pipe(srv1)
	fc1, err := repo.OpenResilient(c1, repo.OpenRequest{RunID: "run-f", Workload: "fleet"})
	if err != nil {
		return err
	}
	if err := fc1.AppendBatch(recs[:11]); err != nil {
		return err
	}
	c1.Close()
	srv1.Close() // the "crash": only the bucket survives

	f2 := repo.NewFleet(r, repo.FleetOptions{Obs: reg})
	srv2 := rpc.NewServer()
	f2.Register(srv2)
	defer srv2.Close()
	parked, err := f2.RecoverSessions()
	if err != nil {
		return err
	}
	if len(parked) != 1 {
		return fmt.Errorf("parked sessions = %v, want exactly the interrupted one", parked)
	}
	c2 := rpc.Pipe(srv2)
	defer c2.Close()
	fc2, accepted, err := repo.ResumeResilient(c2, fc1.Token())
	if err != nil {
		return err
	}
	if accepted != 11 {
		return fmt.Errorf("resume accepted %d records, want 11", accepted)
	}
	if err := fc2.AppendBatch(recs[accepted:]); err != nil {
		return err
	}
	info, err := fc2.Finalize()
	if err != nil {
		return err
	}
	if info.Records != int64(len(recs)) {
		return fmt.Errorf("resumed run archived %d records, want %d", info.Records, len(recs))
	}
	if got := reg.Snapshot().C("fleet.sessions.resumed"); got != 1 {
		return fmt.Errorf("fleet.sessions.resumed = %d, want 1", got)
	}
	fmt.Printf("fleet: resumed at %d, archived %d records\n", accepted, info.Records)

	// The zero-loss ledger: both collectors shared the registry, so
	// across the restart every record that came in must be archived.
	// The drain goroutines are asynchronous; give them a moment.
	deadline := time.Now().Add(2 * time.Second)
	for {
		snap = reg.Snapshot()
		in, arch := snap.C("fleet.records.in"), snap.C("fleet.records.archived")
		if in == arch && in >= int64(len(recs)) {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("records.in = %d != records.archived = %d", in, arch)
		}
		time.Sleep(10 * time.Millisecond)
	}
	return nil
}
