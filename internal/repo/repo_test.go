package repo

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/archive"
	"repro/internal/core/analyzer"
	"repro/internal/simclock"
	"repro/internal/storage"
	"repro/internal/trace"
)

func newTestRepo(t *testing.T) *Repo {
	t.Helper()
	svc := storage.NewService()
	bucket, err := svc.CreateBucket("repo")
	if err != nil {
		t.Fatal(err)
	}
	return New(bucket)
}

// synthRecords produces a two-regime run; scale skews the second
// regime's op durations so different runs get different phase mixes.
func synthRecords(n int, scale simclock.Duration) []*trace.ProfileRecord {
	recs := make([]*trace.ProfileRecord, 0, n)
	var t simclock.Time
	for i := 0; i < n; i++ {
		step := int64(i)
		var events []trace.Event
		if i < n/2 {
			events = []trace.Event{
				{Name: "InfeedDequeue", Device: trace.Host, Start: t, Dur: 900, Step: step},
				{Name: "MatMul", Device: trace.TPU, Start: t + 500, Dur: 200, Step: step},
			}
		} else {
			events = []trace.Event{
				{Name: "MatMul", Device: trace.TPU, Start: t, Dur: 600 + scale, Step: step},
				{Name: "CrossReplicaSum", Device: trace.TPU, Start: t + 700, Dur: 150, Step: step},
			}
		}
		recs = append(recs, trace.Reduce(int64(i), t, events, 0.2, 0.4))
		t = t.Add(1000 + scale)
	}
	return recs
}

func archiveBlob(t *testing.T, runID string, seq uint64, scale simclock.Duration) []byte {
	t.Helper()
	recs := synthRecords(30, scale)
	rep, err := analyzer.Analyze("synthetic", recs, analyzer.OLSAlgo, analyzer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	w := archive.NewWriter(archive.Meta{
		RunID: runID, Workload: "synthetic", Label: "test",
		TPUVersion: "v2", CreatedSeq: seq,
	})
	for _, r := range recs {
		w.Add(r)
	}
	return w.Finalize(archive.SummarizeReport(rep))
}

func TestSaveListGetDelete(t *testing.T) {
	r := newTestRepo(t)

	infoA, err := r.Save(archiveBlob(t, "run-a", 1, 0))
	if err != nil {
		t.Fatal(err)
	}
	if infoA.Records != 30 || infoA.Workload != "synthetic" {
		t.Fatalf("info = %+v", infoA)
	}
	if _, err := r.Save(archiveBlob(t, "run-b", 2, 100)); err != nil {
		t.Fatal(err)
	}

	// Duplicate run ID is rejected and does not clobber the original.
	if _, err := r.Save(archiveBlob(t, "run-a", 3, 50)); !errors.Is(err, ErrRunExists) {
		t.Fatalf("duplicate save err = %v", err)
	}

	runs, err := r.List(Filter{})
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 2 || runs[0].RunID != "run-a" || runs[1].RunID != "run-b" {
		t.Fatalf("list = %+v", runs)
	}
	if got, _ := r.List(Filter{Workload: "other"}); len(got) != 0 {
		t.Fatalf("filtered list = %+v", got)
	}

	info, a, err := r.Get("run-a")
	if err != nil {
		t.Fatal(err)
	}
	if info.RunID != "run-a" || a.Summary() == nil {
		t.Fatalf("get: info=%+v summary=%v", info, a.Summary())
	}
	recs, err := a.Records()
	if err != nil || len(recs) != 30 {
		t.Fatalf("records: %d, %v", len(recs), err)
	}

	if err := r.Delete("run-a"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.Get("run-a"); !errors.Is(err, ErrRunNotFound) {
		t.Fatalf("get after delete: %v", err)
	}
	if err := r.Delete("run-a"); !errors.Is(err, ErrRunNotFound) {
		t.Fatalf("double delete: %v", err)
	}
}

func TestSaveRejectsCorruptArchive(t *testing.T) {
	r := newTestRepo(t)
	if _, err := r.Save([]byte("not an archive")); err == nil {
		t.Fatal("corrupt blob saved")
	}
	if runs, _ := r.List(Filter{}); len(runs) != 0 {
		t.Fatalf("manifest polluted: %+v", runs)
	}
}

func TestNextSeqMonotonic(t *testing.T) {
	r := newTestRepo(t)
	var mu sync.Mutex
	seen := make(map[uint64]bool)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				seq, err := r.NextSeq()
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				if seen[seq] {
					t.Errorf("seq %d issued twice", seq)
				}
				seen[seq] = true
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if len(seen) != 80 {
		t.Fatalf("issued %d unique seqs, want 80", len(seen))
	}
}

func TestConcurrentSaves(t *testing.T) {
	r := newTestRepo(t)
	const n = 8
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			blob := archiveBlob(t, fmt.Sprintf("run-%d", i), uint64(i+1), simclock.Duration(i*10))
			_, errs[i] = r.Save(blob)
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
		t.Fatalf("listed %d runs, want %d", len(runs), n)
	}
}

func TestGC(t *testing.T) {
	r := newTestRepo(t)
	for i := 0; i < 5; i++ {
		if _, err := r.Save(archiveBlob(t, fmt.Sprintf("run-%d", i), uint64(i+1), 0)); err != nil {
			t.Fatal(err)
		}
	}
	deleted, err := r.GC(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(deleted) != 3 {
		t.Fatalf("deleted %v, want 3 victims", deleted)
	}
	runs, _ := r.List(Filter{})
	if len(runs) != 2 || runs[0].RunID != "run-3" || runs[1].RunID != "run-4" {
		t.Fatalf("survivors = %+v (want the 2 newest)", runs)
	}
	// Blobs of deleted runs are gone too.
	for _, id := range deleted {
		if _, _, err := r.Get(id); !errors.Is(err, ErrRunNotFound) {
			t.Fatalf("gc'd run %s still present: %v", id, err)
		}
	}
}

func TestCompare(t *testing.T) {
	r := newTestRepo(t)
	if _, err := r.Save(archiveBlob(t, "base", 1, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Save(archiveBlob(t, "slow", 2, 400)); err != nil {
		t.Fatal(err)
	}

	d, err := r.Compare("base", "slow")
	if err != nil {
		t.Fatal(err)
	}
	if d.A.RunID != "base" || d.B.RunID != "slow" {
		t.Fatalf("diff runs = %s vs %s", d.A.RunID, d.B.RunID)
	}
	if len(d.Matches) == 0 {
		t.Fatal("no phase matches")
	}
	if d.TotalB <= d.TotalA {
		t.Fatalf("slow run should be longer: %v vs %v", d.TotalA, d.TotalB)
	}
	var sawWallDelta, sawOpMix bool
	for _, m := range d.Matches {
		if m.WallDelta != 0 {
			sawWallDelta = true
		}
		if len(m.OpMix) > 0 {
			sawOpMix = true
		}
	}
	if !sawWallDelta || !sawOpMix {
		t.Fatalf("deltas missing: wall=%v opmix=%v", sawWallDelta, sawOpMix)
	}

	if _, err := r.Compare("base", "nope"); !errors.Is(err, ErrRunNotFound) {
		t.Fatalf("compare with missing run: %v", err)
	}
}

// blobCounter counts the archive and pack bytes read through a store
// that serves ranged reads; manifests and other objects are not counted.
type blobCounter struct {
	Store
	bytes int64
}

func isRunData(name string) bool {
	return runIDFromObject(name) != "" || strings.HasPrefix(name, PackPrefix)
}

func (c *blobCounter) Get(name string) (*storage.Object, error) {
	obj, err := c.Store.Get(name)
	if err == nil && isRunData(name) {
		c.bytes += int64(len(obj.Data))
	}
	return obj, err
}

func (c *blobCounter) GetRange(name string, off, n int64) ([]byte, error) {
	b, err := c.Store.(storage.RangeReader).GetRange(name, off, n)
	if isRunData(name) {
		c.bytes += int64(len(b))
	}
	return b, err
}

// compareStores is Compare's store axis: an in-memory bucket and a
// DirStore, which serve ranged reads, and a decorator that does not.
var compareStores = append(append(testStores[:0:0], testStores...), windowStores[1])

// saveCompared saves the two runs the Compare tests diff, packed into
// one pack when asked, and returns their entries and their summaries as
// archive.Open reads them.
func saveCompared(t *testing.T, r *Repo, packed bool) ([2]RunInfo, [2]*archive.Summary) {
	t.Helper()
	for i, id := range []string{"base", "slow"} {
		if _, err := r.Save(archiveBlob(t, id, uint64(i+1), simclock.Duration(400*i))); err != nil {
			t.Fatal(err)
		}
	}
	if packed {
		if _, err := r.Compact(CompactOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	var infos [2]RunInfo
	var sums [2]*archive.Summary
	for i, id := range []string{"base", "slow"} {
		info, a, err := r.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if info.packed() != packed || info.FooterLen == 0 {
			t.Fatalf("run %s: entry %+v (want packed=%v and footer fields set)", id, info, packed)
		}
		infos[i], sums[i] = info, a.Summary()
	}
	return infos, sums
}

// TestCompareReadsOnlyFooters: on private and packed runs, on every
// store, Compare's diff equals DiffSummaries of the two fully verified
// archives; where the store serves ranged reads it reads no archive or
// pack byte but the two footers and their trailers.
func TestCompareReadsOnlyFooters(t *testing.T) {
	for _, st := range compareStores {
		for _, packed := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/packed=%v", st.name, packed), func(t *testing.T) {
				store := st.open(t)
				r := New(store)
				infos, sums := saveCompared(t, r, packed)
				want, err := DiffSummaries(sums[0], sums[1])
				if err != nil {
					t.Fatal(err)
				}
				want.A, want.B = infos[0], infos[1]

				counter := &blobCounter{Store: store}
				reader := r
				_, ranged := store.(storage.RangeReader)
				if ranged {
					reader = New(counter)
				}
				got, err := reader.Compare("base", "slow")
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("footer diff differs from the full-archive diff:\n got %+v\nwant %+v", got, want)
				}
				limit := infos[0].FooterLen + infos[1].FooterLen + 2*archive.TrailerLen
				if ranged && counter.bytes > limit {
					t.Fatalf("Compare read %d archive/pack bytes, want at most the two tails' %d", counter.bytes, limit)
				}
			})
		}
	}
}

// flipByte flips one bit of the byte at off within the archive an entry
// addresses.
func flipByte(t *testing.T, store Store, info RunInfo, off int64) {
	t.Helper()
	obj, err := store.Get(info.Object)
	if err != nil {
		t.Fatal(err)
	}
	obj.Data[info.Offset+off] ^= 0x04
	if _, err := store.Put(info.Object, obj.Data); err != nil {
		t.Fatal(err)
	}
}

// TestCompareChecksFooterNotSegments: a flipped footer bit fails Compare
// with archive.ErrChecksum against the entry's CRC. A flipped segment bit
// is in bytes Compare never reads, so it still diffs, and Fsck is what
// reports the run corrupt.
func TestCompareChecksFooterNotSegments(t *testing.T) {
	for _, st := range windowStores {
		for _, packed := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/packed=%v", st.name, packed), func(t *testing.T) {
				t.Run("footer", func(t *testing.T) {
					store := st.open(t)
					r := New(store)
					infos, _ := saveCompared(t, r, packed)
					flipByte(t, store, infos[1], infos[1].Bytes-archive.TrailerLen-infos[1].FooterLen/2)
					if _, err := r.Compare("base", "slow"); !errors.Is(err, archive.ErrChecksum) {
						t.Fatalf("Compare over a flipped footer: %v, want archive.ErrChecksum", err)
					}
				})
				t.Run("segment", func(t *testing.T) {
					store := st.open(t)
					r := New(store)
					saveCompared(t, r, packed)
					want, err := r.Compare("base", "slow")
					if err != nil {
						t.Fatal(err)
					}
					// The first segment's payload starts after the header
					// and its u32 length prefix.
					flipByte(t, store, mustInfo(t, r, "slow"), int64(headerLenForTest()+4+3))
					got, err := r.Compare("base", "slow")
					if err != nil {
						t.Fatalf("Compare read a segment: %v", err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatal("diff changed after a segment bit flip")
					}
					rep, err := r.Fsck(false)
					if err != nil {
						t.Fatal(err)
					}
					if len(rep.Issues) != 1 || rep.Issues[0].Kind != IssueCorruptBlob || rep.Issues[0].RunID != "slow" {
						t.Fatalf("fsck issues = %+v, want one corrupt-blob on slow", rep.Issues)
					}
				})
			})
		}
	}
}

// TestCompareOlderEntryReadsWholeArchive: an entry an older build wrote
// has no footer fields, and Compare still diffs it, by reading and
// verifying the whole archive as Get does.
func TestCompareOlderEntryReadsWholeArchive(t *testing.T) {
	bucket := newTestBucket(t)
	r := New(bucket)
	infos, sums := saveCompared(t, r, false)
	for _, id := range []string{"base", "slow"} {
		if err := r.updateRun(id, func(m *manifest) error {
			e := &m.Runs[m.find(id)]
			e.FooterLen, e.FooterCRC = 0, 0
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	want, err := DiffSummaries(sums[0], sums[1])
	if err != nil {
		t.Fatal(err)
	}
	want.A, want.B = mustInfo(t, r, "base"), mustInfo(t, r, "slow")
	counter := &blobCounter{Store: bucket}
	got, err := New(counter).Compare("base", "slow")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("older-entry diff:\n got %+v\nwant %+v", got, want)
	}
	if all := infos[0].Bytes + infos[1].Bytes; counter.bytes != all {
		t.Fatalf("Compare read %d archive bytes, want both whole archives' %d", counter.bytes, all)
	}
}

// TestSummaryFooterOutsideEntry: a hand-edited entry whose footer window
// does not fit in the bytes it addresses is an error from Summary, never
// a panic, on both arms of readEntryBytes.
func TestSummaryFooterOutsideEntry(t *testing.T) {
	for _, st := range windowStores {
		for _, packed := range []bool{false, true} {
			for name, edit := range map[string]func(e *RunInfo){
				"negative-footer":    func(e *RunInfo) { e.FooterLen = -1 },
				"footer-fills-entry": func(e *RunInfo) { e.FooterLen = e.Bytes },
				"footer-overflows":   func(e *RunInfo) { e.FooterLen = math.MaxInt64 },
				"entry-too-short":    func(e *RunInfo) { e.Bytes = archive.TrailerLen - 1 },
				"entry-past-object":  func(e *RunInfo) { e.Bytes = math.MaxInt64 },
				"offset-overflows":   func(e *RunInfo) { e.Offset = math.MaxInt64 - 5 },
			} {
				if !packed && name == "offset-overflows" {
					continue // a private blob's entry has no offset to read
				}
				t.Run(fmt.Sprintf("%s/packed=%v/%s", st.name, packed, name), func(t *testing.T) {
					r := New(st.open(t))
					saveCompared(t, r, packed)
					if err := r.updateRun("slow", func(m *manifest) error {
						edit(&m.Runs[m.find("slow")])
						return nil
					}); err != nil {
						t.Fatal(err)
					}
					if _, _, err := r.Summary("slow"); err == nil {
						t.Fatal("Summary read a footer outside its entry")
					}
				})
			}
		}
	}
}

func TestDiffDeterministic(t *testing.T) {
	r := newTestRepo(t)
	if _, err := r.Save(archiveBlob(t, "a", 1, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Save(archiveBlob(t, "b", 2, 250)); err != nil {
		t.Fatal(err)
	}
	d1, err := r.Compare("a", "b")
	if err != nil {
		t.Fatal(err)
	}
	d2, err := r.Compare("a", "b")
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprintf("%+v", d1) != fmt.Sprintf("%+v", d2) {
		t.Fatal("diff is not deterministic")
	}
}

func TestDiffIdenticalRuns(t *testing.T) {
	r := newTestRepo(t)
	if _, err := r.Save(archiveBlob(t, "x", 1, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Save(archiveBlob(t, "y", 2, 0)); err != nil {
		t.Fatal(err)
	}
	d, err := r.Compare("x", "y")
	if err != nil {
		t.Fatal(err)
	}
	if len(d.OnlyA) != 0 || len(d.OnlyB) != 0 {
		t.Fatalf("identical runs left unmatched phases: %d/%d", len(d.OnlyA), len(d.OnlyB))
	}
	for _, m := range d.Matches {
		if m.Distance != 0 || m.WallDelta != 0 {
			t.Fatalf("identical runs should diff clean: %+v", m)
		}
	}
}

func TestDiffNoSummary(t *testing.T) {
	w := archive.NewWriter(archive.Meta{RunID: "bare"})
	a, err := archive.Open(w.Finalize(nil))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DiffSummaries(a.Summary(), a.Summary()); !errors.Is(err, ErrNoSummary) {
		t.Fatalf("err = %v", err)
	}
}
