package repo

import (
	"encoding/binary"
	"encoding/json"
	"strconv"
	"testing"

	"repro/internal/archive"
	"repro/internal/faultnet"
	"repro/internal/trace"
)

// The power-cut property test: a scripted workload exercising every
// mutation class (Save, fleet collect, Finalize, Delete, GC) is killed
// at every single write boundary — twice, once with the final write
// dropped atomically and once with it torn mid-append — and after each
// cut the recovered repository must satisfy the durability contract:
//
//   1. nothing durably acknowledged is lost (acked saves are indexed
//      with their full record count, acked fleet appends survive into
//      the resumed session),
//   2. no phantom state (every manifest entry opens; acked deletes and
//      GCs stay deleted),
//   3. fsck is clean immediately after recovery (Open's sweep), with
//      no repairs needed.

// Script step indices — the ack ledger records which steps completed.
const (
	stepSaveA = iota
	stepSaveB
	stepSaveC
	stepFleetOpen
	stepBatch1
	stepBatch2
	stepFinalize
	stepCompact
	stepDeleteA
	stepGC
	numSteps
)

// crashAcks is what the dying process knew it had been promised.
type crashAcks struct {
	failedStep int // first step that errored; -1 when the script completed
	token      string
	acked      int // fleet records durably acknowledged via batch responses
}

// crashBlob builds a deterministic multi-segment archive for the
// script's direct-save steps.
func crashBlob(t *testing.T, runID string, seq uint64, n int) []byte {
	t.Helper()
	w := archive.NewWriter(archive.Meta{RunID: runID, Workload: "base", CreatedSeq: seq})
	if err := w.SetSegmentTarget(512); err != nil {
		t.Fatal(err)
	}
	for _, r := range synthRecords(n, 0) {
		w.Add(r)
	}
	return w.Finalize(nil)
}

const (
	recsRunA = 12
	recsRunB = 15
	recsRunC = 9
	recsRunF = 15
	batchCut = 7 // recsF[:batchCut] then recsF[batchCut:]
)

func fleetRecords() []*trace.ProfileRecord { return sessionRecords(9, recsRunF) }

// runCrashScript drives the workload against store until the power cut
// (or completion), calling the fleet handlers directly so every store
// write happens on this goroutine — the cut schedule is deterministic.
// The cut schedule covers the layout object's creation; shards > 1
// adds scatter over per-shard manifests.
func runCrashScript(t *testing.T, store Store, shards int) *crashAcks {
	t.Helper()
	acks := &crashAcks{failedStep: -1}
	fail := func(step int) *crashAcks {
		acks.failedStep = step
		return acks
	}

	r, _, err := OpenShards(store, shards)
	if err != nil {
		return fail(stepSaveA)
	}
	f := NewFleet(r, FleetOptions{})
	defer closeAllSessions(f)

	saves := []struct {
		step int
		blob []byte
	}{
		{stepSaveA, crashBlob(t, "run-a", 1, recsRunA)},
		{stepSaveB, crashBlob(t, "run-b", 2, recsRunB)},
		{stepSaveC, crashBlob(t, "run-c", 3, recsRunC)},
	}
	for _, sv := range saves {
		if _, err := r.Save(sv.blob); err != nil {
			return fail(sv.step)
		}
	}

	openBody, _ := json.Marshal(OpenRequest{RunID: "run-f", Workload: "fleet"})
	out, err := f.handleOpen(openBody)
	if err != nil {
		return fail(stepFleetOpen)
	}
	var opened OpenResponse
	if err := json.Unmarshal(out, &opened); err != nil {
		return fail(stepFleetOpen)
	}
	acks.token = opened.Token

	recsF := fleetRecords()
	batches := []struct {
		step int
		recs []*trace.ProfileRecord
	}{
		{stepBatch1, recsF[:batchCut]},
		{stepBatch2, recsF[batchCut:]},
	}
	for _, b := range batches {
		var framed []byte
		for _, rec := range b.recs {
			framed = trace.AppendFramedRecord(framed, rec)
		}
		body := make([]byte, 16+len(framed))
		binary.LittleEndian.PutUint64(body[:8], opened.SessionID)
		binary.LittleEndian.PutUint64(body[8:16], uint64(acks.acked))
		copy(body[16:], framed)
		if _, err := f.handleAppendBatch(body); err != nil {
			return fail(b.step)
		}
		acks.acked += len(b.recs)
	}

	finBody, _ := json.Marshal(sessionRequest{SessionID: opened.SessionID})
	if _, err := f.handleFinalize(finBody); err != nil {
		return fail(stepFinalize)
	}

	// Pack the three direct-save runs; cuts inside this step land at
	// every compaction write boundary (pack put, repoints, old blob
	// deletes).
	if _, err := r.Compact(CompactOptions{Workload: "base"}); err != nil {
		return fail(stepCompact)
	}

	if err := r.Delete("run-a"); err != nil {
		return fail(stepDeleteA)
	}
	if _, err := r.GC(1); err != nil {
		return fail(stepGC)
	}
	return acks
}

// closeAllSessions stops leaked drain goroutines after a simulated
// crash (a real power cut takes the goroutines with it; the test
// process keeps living).
func closeAllSessions(f *Fleet) {
	f.mu.Lock()
	ss := make([]*session, 0, len(f.sessions))
	for _, s := range f.sessions {
		ss = append(ss, s)
	}
	f.mu.Unlock()
	for _, s := range ss {
		s.close()
	}
}

// verifyRecovered is the post-restart half: Open's sweep, session
// recovery, fsck, and the durability invariants.
func verifyRecovered(t *testing.T, store Store, acks *crashAcks, label string) {
	t.Helper()
	fs := acks.failedStep
	stepDone := func(i int) bool { return fs == -1 || i < fs }

	r2, _, err := Open(store)
	if err != nil {
		t.Fatalf("%s: recovery open: %v", label, err)
	}
	f2 := NewFleet(r2, FleetOptions{})
	parked, err := f2.RecoverSessions()
	if err != nil {
		t.Fatalf("%s: recover sessions: %v", label, err)
	}

	// Invariant 3: clean fsck right after recovery — the sweep alone
	// reconverges the manifest and blob set.
	rep, err := r2.Fsck(false)
	if err != nil {
		t.Fatalf("%s: fsck: %v", label, err)
	}
	if !rep.Clean() {
		t.Fatalf("%s: fsck not clean after recovery: %+v", label, rep.Issues)
	}

	// Invariant 2, phantom-free manifest: every listed run must open.
	listed, err := r2.List(Filter{})
	if err != nil {
		t.Fatalf("%s: list: %v", label, err)
	}
	present := map[string]int64{}
	for _, info := range listed {
		_, a, err := r2.Get(info.RunID)
		if err != nil {
			t.Fatalf("%s: manifest entry %q is a phantom: %v", label, info.RunID, err)
		}
		if a.RecordCount() != info.Records {
			t.Fatalf("%s: %q: %d records indexed, %d stored", label, info.RunID, info.Records, a.RecordCount())
		}
		present[info.RunID] = info.Records
	}

	// mustHave / mustLack / mayHave: invariant 1 per run, step by step.
	check := func(id string, want int64, saveStep, removeStep int) {
		got, ok := present[id]
		removed := removeStep >= 0 && stepDone(removeStep)
		inFlight := fs == saveStep || (removeStep >= 0 && fs == removeStep)
		switch {
		case removed:
			if ok {
				t.Fatalf("%s: %q resurrected after acked removal", label, id)
			}
		case stepDone(saveStep) && !inFlight:
			if !ok || got != want {
				t.Fatalf("%s: acked run %q lost or truncated (got %d/%v, want %d)", label, id, got, ok, want)
			}
		case inFlight:
			if ok && got != want {
				t.Fatalf("%s: in-flight run %q present but truncated (%d != %d)", label, id, got, want)
			}
		default:
			if ok {
				t.Fatalf("%s: never-saved run %q appeared", label, id)
			}
		}
	}
	check("run-a", recsRunA, stepSaveA, stepDeleteA)
	check("run-b", recsRunB, stepSaveB, stepGC)
	check("run-c", recsRunC, stepSaveC, -1)

	// The fleet session's fate.
	switch {
	case stepDone(stepFinalize):
		if got := present["run-f"]; got != recsRunF {
			t.Fatalf("%s: finalized fleet run lost (%d records)", label, got)
		}
		if len(parked) != 0 {
			t.Fatalf("%s: finalized session still parked: %v", label, parked)
		}
	case stepDone(stepFleetOpen):
		if fs == stepFinalize && present["run-f"] == recsRunF {
			// Finalize committed, only the ack was lost; RecoverSessions
			// must have retired the durable state.
			if len(parked) != 0 {
				t.Fatalf("%s: committed session still parked: %v", label, parked)
			}
			break
		}
		// The session must be parked and resumable with every acked
		// record intact; completing it must archive all records once.
		if len(parked) != 1 || parked[0] != acks.token {
			t.Fatalf("%s: parked = %v, want [%s]", label, parked, acks.token)
		}
		resumeSessionAndFinish(t, f2, r2, acks, label)
	default:
		if len(parked) != 0 {
			t.Fatalf("%s: unopened session parked: %v", label, parked)
		}
	}
}

// resumeSessionAndFinish reattaches to the parked session, checks the
// durable count against the acks, streams the remainder, finalizes,
// and verifies the archived run is exactly the original record stream.
func resumeSessionAndFinish(t *testing.T, f2 *Fleet, r2 *Repo, acks *crashAcks, label string) {
	t.Helper()
	body, _ := json.Marshal(ResumeRequest{Token: acks.token})
	out, err := f2.handleResume(body)
	if err != nil {
		t.Fatalf("%s: resume: %v", label, err)
	}
	var resp ResumeResponse
	if err := json.Unmarshal(out, &resp); err != nil {
		t.Fatalf("%s: resume response: %v", label, err)
	}
	if resp.AcceptedRecords < int64(acks.acked) {
		t.Fatalf("%s: durably-acked records lost: resumed at %d, acked %d",
			label, resp.AcceptedRecords, acks.acked)
	}
	if resp.AcceptedRecords > recsRunF {
		t.Fatalf("%s: resumed count %d exceeds records ever sent", label, resp.AcceptedRecords)
	}

	recsF := fleetRecords()
	var framed []byte
	for _, rec := range recsF[resp.AcceptedRecords:] {
		framed = trace.AppendFramedRecord(framed, rec)
	}
	if len(framed) > 0 {
		abody := make([]byte, 16+len(framed))
		binary.LittleEndian.PutUint64(abody[:8], resp.SessionID)
		binary.LittleEndian.PutUint64(abody[8:16], uint64(resp.AcceptedRecords))
		copy(abody[16:], framed)
		if _, err := f2.handleAppendBatch(abody); err != nil {
			t.Fatalf("%s: resumed append: %v", label, err)
		}
	}
	finBody, _ := json.Marshal(sessionRequest{SessionID: resp.SessionID})
	if _, err := f2.handleFinalize(finBody); err != nil {
		t.Fatalf("%s: resumed finalize: %v", label, err)
	}

	_, a, err := r2.Get("run-f")
	if err != nil {
		t.Fatalf("%s: resumed run unreadable: %v", label, err)
	}
	decoded, err := a.Records()
	if err != nil {
		t.Fatalf("%s: resumed run decode: %v", label, err)
	}
	if len(decoded) != recsRunF {
		t.Fatalf("%s: resumed run has %d records, want %d (loss or duplication)",
			label, len(decoded), recsRunF)
	}
	for i, rec := range decoded {
		if rec.Seq != int64(i) {
			t.Fatalf("%s: record %d has seq %d: duplicated or reordered", label, i, rec.Seq)
		}
	}
	if names := r2.store.List("sessions/"); len(names) != 0 {
		t.Fatalf("%s: session state not retired after resume+finalize: %v", label, names)
	}
}

// TestPowerCutAtEveryWriteBoundary is the property test: measure the
// script's write budget with a dry run, then kill it at every write,
// in both atomic-drop and torn-append flavors, and verify recovery.
// The whole schedule runs twice: once against the 1-shard repository a
// store opened without a count becomes, and once against a 3-shard one
// (whose runs and pack repoints spread over several index objects), and each of those over both stores — on the DirStore a torn
// Append is a real short tail on a real file.
func TestPowerCutAtEveryWriteBoundary(t *testing.T) {
	for _, mode := range []struct {
		name   string
		shards int
	}{
		{"one-shard", 0},
		{"sharded", 3},
	} {
		t.Run(mode.name, func(t *testing.T) {
			for _, st := range testStores {
				t.Run(st.name, func(t *testing.T) {
					cs := faultnet.NewCrashStore(st.open(t))
					acks := runCrashScript(t, cs, mode.shards)
					if acks.failedStep != -1 {
						t.Fatalf("dry run failed at step %d", acks.failedStep)
					}
					budget := cs.Writes()
					if budget < 15 {
						t.Fatalf("write budget %d suspiciously small — script not exercising the stack", budget)
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
							acks := runCrashScript(t, cs, mode.shards)
							if !cs.Dead() {
								t.Fatalf("%s: cut never fired (budget %d)", label, budget)
							}
							// Power restored: verification runs on the raw store.
							verifyRecovered(t, store, acks, label)
						}
					}
				})
			}
		})
	}
}

// TestCrashScriptWritesNoJournal: the manifest CAS is the only commit
// point, so the power-cut script's dry run — every mutation class, at
// one and at three shards — leaves no object under the journal prefix
// older builds wrote, on either store. Nothing deletes one but the
// sweep at Open, which runs before the script's first write.
func TestCrashScriptWritesNoJournal(t *testing.T) {
	for _, shards := range []int{0, 3} {
		for _, st := range testStores {
			t.Run(st.name+"/shards="+strconv.Itoa(shards), func(t *testing.T) {
				store := st.open(t)
				if acks := runCrashScript(t, faultnet.NewCrashStore(store), shards); acks.failedStep != -1 {
					t.Fatalf("dry run failed at step %d", acks.failedStep)
				}
				if names := store.List(legacyJournalPrefix); len(names) != 0 {
					t.Fatalf("the script wrote journals: %v", names)
				}
			})
		}
	}
}
