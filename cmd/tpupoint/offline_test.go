package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	tpupoint "repro"
	"repro/internal/core/analyzer"
	"repro/internal/storage"
	"repro/internal/trace"
)

// profiledAfterTraining trains a workload, then drains its profile into
// the session bucket in full-size windows — the recording bench/ makes,
// and a pure function of the seed.
func profiledAfterTraining(t *testing.T, workload string, steps int) (*tpupoint.Session, []*tpupoint.ProfileRecord) {
	t.Helper()
	s, err := tpupoint.NewSession(workload, tpupoint.Options{Steps: steps, Seed: 1})
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
	recs, err := p.Stop()
	if err != nil {
		t.Fatal(err)
	}
	return s, recs
}

// TestExportThenAnalyzeMatchesInProcess: `-export DIR` then `-analyze
// DIR` prints the phases and top operators the in-process analysis of
// the same records found, the export holds the profiles and nothing
// else of the bucket, and `-analyze` of a missing directory fails
// without creating it.
func TestExportThenAnalyzeMatchesInProcess(t *testing.T) {
	s, recs := profiledAfterTraining(t, "dcgan-mnist", 60)
	rep, err := s.Analyze(recs, tpupoint.OLS)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Bucket().Put("ckpt/model.ckpt-0", []byte("weights")); err != nil {
		t.Fatal(err)
	}

	dir := filepath.Join(t.TempDir(), "export")
	n, err := exportProfiles(s.Bucket(), dir)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(s.Bucket().List("profiles/")); n != want || n == 0 {
		t.Fatalf("exported %d objects, the bucket holds %d profiles", n, want)
	}
	store, err := storage.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range store.List("") {
		if !strings.HasPrefix(name, "profiles/") {
			t.Fatalf("export wrote %s, outside profiles/", name)
		}
	}
	store.Close()

	out := mustCLI(t, "-analyze", dir)
	phases := fmt.Sprintf("phases: %d (%s); top-3 cover %.1f%%", len(rep.Phases), rep.Algorithm, 100*rep.CoverageTop3)
	if !strings.Contains(out, phases) {
		t.Fatalf("-analyze printed\n%s\nwant the in-process %q", out, phases)
	}
	var ops strings.Builder
	printTopOps(&ops, rep)
	if len(rep.TopTPUOps) == 0 || !strings.Contains(out, ops.String()) {
		t.Fatalf("-analyze printed\n%s\nwant the in-process top operators\n%s", out, ops.String())
	}

	missing := filepath.Join(t.TempDir(), "missing")
	if _, err := cli("-analyze", missing); err == nil {
		t.Fatal("-analyze of a missing directory succeeded")
	}
	if _, err := os.Stat(missing); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("-analyze created the missing directory (stat: %v)", err)
	}
}

// TestWatchFullSizeWindowsMatchBatchOLS: in a recording profiled in
// full-size windows a step's host and TPU fragments can lie hundreds of
// steps apart, and the stream still seals each step whole — every
// record carries the service's OpenStep — so watch, at its default
// options, prints batch OLS's phases: the same boundaries, step counts
// and phase times.
func TestWatchFullSizeWindowsMatchBatchOLS(t *testing.T) {
	for _, workload := range []string{"dcgan-mnist", "bert-mrpc", "resnet-imagenet"} {
		t.Run(workload, func(t *testing.T) {
			s, recs := profiledAfterTraining(t, workload, 300)
			var want []string
			for i, p := range analyzer.OLS(trace.AggregateSteps(recs), analyzer.DefaultThreshold) {
				want = append(want, fmt.Sprintf("phase %d closed  steps %d-%d (%d sampled, %.1fms",
					i, p.Steps[0].Step, p.Steps[len(p.Steps)-1].Step, len(p.Steps), p.Total.Milliseconds()))
			}
			rep, err := s.Analyze(recs, tpupoint.OLS)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			r, _, done, err := openRepoDir(io.Discard, dir, 0, true)
			if err != nil {
				t.Fatal(err)
			}
			_, err = s.ArchiveRun(r, "full", "", recs, rep)
			done()
			if err != nil {
				t.Fatal(err)
			}

			out := mustCLI(t, "-archive", dir, "watch", "-quiet", "full")
			var got []string
			for _, line := range strings.Split(out, "\n") {
				if strings.Contains(line, " closed ") {
					got = append(got, line[:strings.Index(line, "ms")+2])
				}
			}
			if strings.Join(got, "\n") != strings.Join(want, "\n") {
				t.Fatalf("watch printed\n%s\nwant batch OLS's phases\n%s", out, strings.Join(want, "\n"))
			}
		})
	}
}
