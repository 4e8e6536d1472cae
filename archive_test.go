package tpupoint

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/archive"
	"repro/internal/repo"
	"repro/internal/storage"
)

// archiveRunOracle is ArchiveRun as it was before every archive became a
// collector session: the records and the batch report's summary written
// into one archive in process and saved. It is the byte-for-byte oracle
// of the session-built archive.
func archiveRunOracle(s *Session, r *repo.Repo, runID, label string, records []*ProfileRecord, rep *Report) (repo.RunInfo, error) {
	seq, err := r.NextSeq()
	if err != nil {
		return repo.RunInfo{}, err
	}
	spec := s.workload.Spec()
	w := archive.NewWriter(archive.Meta{
		RunID:      runID,
		Workload:   s.workload.Name,
		Label:      label,
		HostSpec:   fmt.Sprintf("%dc %gMBps", spec.Cores, spec.ReadMBps),
		TPUVersion: s.runner.Spec().Version.String(),
		CreatedSeq: seq,
	})
	for _, rec := range records {
		w.Add(rec)
	}
	var sum *archive.Summary
	if rep != nil {
		sum = archive.SummarizeReport(rep)
	}
	return r.Save(w.Finalize(sum))
}

// memRepo is a repository over a fresh in-memory bucket.
func memRepo(t *testing.T) (*repo.Repo, *storage.Bucket) {
	t.Helper()
	b, err := storage.NewService().CreateBucket("runs")
	if err != nil {
		t.Fatal(err)
	}
	return repo.New(b), b
}

// TestArchiveRunMatchesOracle: on the paper pipeline's six runs (three
// workloads × TPUv2/v3, 300 steps, profiled after training, OLS report),
// ArchiveRun's collector session stores the archive the old in-process
// writer stored, byte for byte, in a bucket of the same total size with
// no sessions/ object left behind, and every goroutine it started has
// ended once it returns.
func TestArchiveRunMatchesOracle(t *testing.T) {
	before := runtime.NumGoroutine()
	got, gotBucket := memRepo(t)
	want, wantBucket := memRepo(t)
	for _, workload := range []string{"bert-mrpc", "resnet-imagenet", "dcgan-mnist"} {
		for _, version := range []Version{V2, V3} {
			runID := fmt.Sprintf("%s-%s", workload, version)
			s, err := NewSession(workload, Options{Version: version, Steps: 300, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Train(); err != nil {
				t.Fatal(err)
			}
			p, err := s.StartProfiler(true)
			if err != nil {
				t.Fatal(err)
			}
			records, err := p.Stop()
			if err != nil {
				t.Fatal(err)
			}
			rep, err := s.Analyze(records, OLS)
			if err != nil {
				t.Fatal(err)
			}
			gi, err := s.ArchiveRun(got, runID, "bench", records, rep)
			if err != nil {
				t.Fatal(err)
			}
			wi, err := archiveRunOracle(s, want, runID, "bench", records, rep)
			if err != nil {
				t.Fatal(err)
			}
			g, err := gotBucket.Get(gi.Object)
			if err != nil {
				t.Fatal(err)
			}
			w, err := wantBucket.Get(wi.Object)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(g.Data, w.Data) {
				t.Fatalf("%s: the session's archive (%d bytes) differs from the oracle's (%d bytes)", runID, len(g.Data), len(w.Data))
			}
		}
	}
	if g, w := gotBucket.TotalBytes(), wantBucket.TotalBytes(); g != w {
		t.Fatalf("the bucket holds %d bytes, the oracle's %d", g, w)
	}
	if left := gotBucket.List("sessions/"); len(left) != 0 {
		t.Fatalf("ArchiveRun left %v", left)
	}
	// A closed pipe's receive loop ends just after Close returns.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the runs, %d before", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestArchiveRunFooterIsOLS: the footer is the collector's, so ArchiveRun
// summarizes a run handed no report and refuses a report of another
// algorithm, leaving the repository as it was.
func TestArchiveRunFooterIsOLS(t *testing.T) {
	s, err := NewSession("dcgan-mnist", Options{Steps: 60, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Train(); err != nil {
		t.Fatal(err)
	}
	p, err := s.StartProfiler(true)
	if err != nil {
		t.Fatal(err)
	}
	records, err := p.Stop()
	if err != nil {
		t.Fatal(err)
	}
	r, b := memRepo(t)
	km, err := s.Analyze(records, KMeans)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.ArchiveRun(r, "km", "", records, km); err == nil {
		t.Fatal("ArchiveRun took a k-means report")
	}
	if names := b.List(""); len(names) != 0 {
		t.Fatalf("a refused ArchiveRun wrote %v", names)
	}
	if _, err := s.ArchiveRun(r, "bare", "", records, nil); err != nil {
		t.Fatal(err)
	}
	_, sum, err := r.Summary("bare")
	if err != nil {
		t.Fatal(err)
	}
	if sum == nil || sum.Algorithm != string(OLS) {
		t.Fatalf("a run archived without a report has summary %+v, want the collector's OLS", sum)
	}
	if _, err := s.ArchiveRun(nil, "x", "", records, nil); err == nil {
		t.Fatal("ArchiveRun took a nil repository")
	}
}
