package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/archive"
	"repro/internal/core/analyzer"
	"repro/internal/repo"
	"repro/internal/rpc"
	"repro/internal/trace"
)

// collector serves a collection fleet over the repository in dir on a
// loopback port until the test ends, and returns its address.
func collector(t *testing.T, dir string) string {
	t.Helper()
	r, _, done, err := openRepoDir(io.Discard, dir, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	srv := rpc.NewServer()
	repo.NewFleet(r, repo.FleetOptions{}).Register(srv)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		done()
		t.Fatal(err)
	}
	go srv.Serve(l)
	t.Cleanup(func() {
		l.Close()
		srv.Close()
		done()
	})
	return l.Addr().String()
}

// sessionObjects lists the files under dir's sessions/ tree.
func sessionObjects(t *testing.T, dir string) []string {
	t.Helper()
	var names []string
	err := filepath.WalkDir(filepath.Join(dir, "sessions"), func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			names = append(names, path)
		}
		return err
	})
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		t.Fatal(err)
	}
	return names
}

// archivedRecords is the wire form of every record a run's archive holds.
func archivedRecords(t *testing.T, blob []byte) [][]byte {
	t.Helper()
	ar, err := archive.Open(blob)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := ar.Records()
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]byte, len(recs))
	for i, rec := range recs {
		out[i] = trace.MarshalRecord(rec)
	}
	return out
}

// TestArchiveAndCollectStoreOneArchive: `run -archive` is a local
// collector session, so for one run ID and label it stores, in a fresh
// repository, the archive `run -collect` stores through a collection
// server, byte for byte, and leaves no session behind. A live profile's
// windows are cut where its polls land, so the pair runs again, up to
// five times, until both runs recorded the same records; the archives
// must then be identical.
func TestArchiveAndCollectStoreOneArchive(t *testing.T) {
	run := []string{"-workload", "dcgan-mnist", "-steps", "60", "-run-id", "one", "-label", "same"}
	for try := 1; ; try++ {
		local, remote := t.TempDir(), t.TempDir()
		mustCLI(t, append(run, "-archive", local)...)
		mustCLI(t, append(run, "-collect", collector(t, remote))...)
		a, err := os.ReadFile(blobPath(local, "one"))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(blobPath(remote, "one"))
		if err != nil {
			t.Fatal(err)
		}
		if left := sessionObjects(t, local); len(left) != 0 {
			t.Fatalf("-archive left %v", left)
		}
		ra, rb := archivedRecords(t, a), archivedRecords(t, b)
		sameRecords := len(ra) == len(rb)
		for i := 0; sameRecords && i < len(ra); i++ {
			sameRecords = bytes.Equal(ra[i], rb[i])
		}
		if sameRecords {
			if !bytes.Equal(a, b) {
				t.Fatalf("the same records archived as %d bytes by -archive and %d by -collect", len(a), len(b))
			}
			return
		}
		if try == 5 {
			t.Fatalf("five pairs of runs never recorded the same records (last: %d and %d)", len(ra), len(rb))
		}
		t.Logf("pair %d recorded %d and %d records; running it again", try, len(ra), len(rb))
	}
}

// TestExportAfterStreamedRun: a run whose records stream into a
// collector session, local (-archive) or remote (-collect), still
// exports them, and -analyze of the export reports the run's profiled
// steps.
func TestExportAfterStreamedRun(t *testing.T) {
	steps := regexp.MustCompile(`over (\d+) profiled steps \((\d+) records\)`)
	for _, mode := range []string{"-archive", "-collect"} {
		t.Run(mode[1:], func(t *testing.T) {
			target := t.TempDir()
			if mode == "-collect" {
				target = collector(t, target)
			}
			export := filepath.Join(t.TempDir(), "export")
			out := mustCLI(t, "-workload", "dcgan-mnist", "-steps", "60", mode, target, "-run-id", "x", "-export", export)
			m := steps.FindStringSubmatch(out)
			if m == nil {
				t.Fatalf("the run printed no step count:\n%s", out)
			}
			mustMatch(t, "-export", out, fmt.Sprintf(`^exported: +%s profile records`, m[2]))
			mustMatch(t, "-analyze", mustCLI(t, "-analyze", export),
				fmt.Sprintf(`^offline analysis of %s records \(%s steps\)`, m[2], m[1]))
		})
	}
}

// TestFailedRunAbortsSession: a run that fails after its session opened
// (here its analysis, of an unknown algorithm) aborts the session, so
// the repository holds no run and no sessions/ object.
func TestFailedRunAbortsSession(t *testing.T) {
	dir := t.TempDir()
	if _, err := cli("-workload", "dcgan-mnist", "-steps", "60", "-algo", "magic", "-archive", dir, "-run-id", "x"); err == nil {
		t.Fatal("a run with an unknown algorithm succeeded")
	}
	if left := sessionObjects(t, dir); len(left) != 0 {
		t.Fatalf("the failed run left %v", left)
	}
	mustMatch(t, "runs list", mustCLI(t, "-archive", dir, "runs", "list"), `repository is empty`)
}

// TestRunsDiffRefusesMixedAlgorithms: an OLS footer and a k-means one,
// as an older build's `-algo kmeans -archive` stored, do not diff:
// Compare answers repo.ErrAlgorithmMismatch naming both algorithms, and
// `runs diff` fails with it.
func TestRunsDiffRefusesMixedAlgorithms(t *testing.T) {
	dir := t.TempDir()
	r, _, done, err := openRepoDir(io.Discard, dir, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range [][]byte{testBlob(t, "ols", 1), testBlobOf(t, "km", 2, analyzer.KMeansAlgo)} {
		if _, err := r.Save(b); err != nil {
			t.Fatalf("save %d: %v", i, err)
		}
	}
	_, err = r.Compare("ols", "km")
	done()
	if !errors.Is(err, repo.ErrAlgorithmMismatch) {
		t.Fatalf("Compare: err = %v, want ErrAlgorithmMismatch", err)
	}
	_, err = cli("-archive", dir, "runs", "diff", "ols", "km")
	if !errors.Is(err, repo.ErrAlgorithmMismatch) {
		t.Fatalf("runs diff: err = %v, want ErrAlgorithmMismatch", err)
	}
	if want := `"ols" against "kmeans"`; !strings.Contains(err.Error(), want) {
		t.Fatalf("runs diff: %v does not name both algorithms (%s)", err, want)
	}
	mustCLI(t, "-archive", dir, "runs", "diff", "ols", "ols")
}
