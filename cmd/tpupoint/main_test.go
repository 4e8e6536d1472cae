package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/obs"
)

// cli runs tpupoint with args and returns what it printed to stdout.
// What it printed to stderr rides along in a failure's message.
func cli(args ...string) (string, error) {
	var stdout, stderr bytes.Buffer
	err := run(args, &stdout, &stderr)
	if err != nil && stderr.Len() > 0 {
		err = fmt.Errorf("%w\nstderr:\n%s", err, stderr.String())
	}
	return stdout.String(), err
}

// mustCLI is cli for a command line that must succeed.
func mustCLI(t *testing.T, args ...string) string {
	t.Helper()
	out, err := cli(args...)
	if err != nil {
		t.Fatalf("tpupoint %s: %v\nstdout:\n%s", strings.Join(args, " "), err, out)
	}
	return out
}

// mustMatch fails the test unless out matches every pattern, each
// compiled in multi-line mode so ^ anchors at any line.
func mustMatch(t *testing.T, what, out string, patterns ...string) {
	t.Helper()
	for _, p := range patterns {
		if !regexp.MustCompile("(?m)" + p).MatchString(out) {
			t.Fatalf("%s printed no line matching %q:\n%s", what, p, out)
		}
	}
}

// TestRunExitStatuses: run returns flag.ErrHelp for -h (main exits 0),
// errUsage for a command line the flag set refuses (main exits 2, as
// flag.ExitOnError did) and a plain error for any other failure (main
// exits 1).
func TestRunExitStatuses(t *testing.T) {
	if _, err := cli("-h"); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-h: err = %v, want flag.ErrHelp", err)
	}
	_, err := cli("-no-such-flag")
	if !errors.Is(err, errUsage) || errors.Is(err, flag.ErrHelp) {
		t.Fatalf("unknown flag: err = %v, want errUsage", err)
	}
	if !strings.Contains(err.Error(), "flag provided but not defined: -no-such-flag") {
		t.Fatalf("unknown flag: the flag set's complaint is not on stderr: %v", err)
	}
	_, err = cli("-workload", "no-such-workload")
	if err == nil || errors.Is(err, errUsage) || errors.Is(err, flag.ErrHelp) {
		t.Fatalf("unknown workload: err = %v, want a plain failure", err)
	}
}

// readSnapshot decodes a -metrics file.
func readSnapshot(t *testing.T, path string) obs.Snapshot {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatalf("-metrics wrote no snapshot: %v\n%s", err, raw)
	}
	return snap
}

// TestRunMetricsSnapshot: a profiled run with -metrics <file> prints
// its run summary and leaves a snapshot whose core profiler counters
// moved — a component handed no registry leaves them at zero.
func TestRunMetricsSnapshot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "metrics.json")
	out := mustCLI(t, "-workload", "dcgan-mnist", "-steps", "150", "-metrics", path)
	mustMatch(t, "a -metrics run", out, `^run summary: .*windows=`)
	snap := readSnapshot(t, path)
	for _, name := range []string{"profiler.windows.fetched", "profiler.records.persisted"} {
		if v := snap.Counters[name]; v <= 0 {
			t.Errorf("counter %s = %d, want > 0", name, v)
		}
	}
}

// TestFailedRunWritesMetrics: a run that fails still writes its
// -metrics snapshot, which holds what would explain the failure.
func TestFailedRunWritesMetrics(t *testing.T) {
	path := filepath.Join(t.TempDir(), "metrics.json")
	if _, err := cli("-metrics", path, "-workload", "no-such-workload"); err == nil {
		t.Fatal("a run of an unknown workload succeeded")
	}
	readSnapshot(t, path)
}

// TestRunsArchiveListShowDiff: two real runs of one workload, archived
// on TPUv2 and TPUv3, list, show their phases and diff with aligned
// phase rows and wall-time and op-mix deltas, as a table and as CSV.
// The first run also writes its -out artifacts.
func TestRunsArchiveListShowDiff(t *testing.T) {
	dir, outDir := t.TempDir(), t.TempDir()
	out := mustCLI(t, "-workload", "dcgan-mnist", "-steps", "60", "-archive", dir, "-run-id", "smoke-v2", "-label", "smoke", "-out", outDir)
	mustMatch(t, "an -out run", out, `^archived: +run "smoke-v2"`, `^artifacts: `)
	for _, name := range []string{"trace.json", "report.csv"} {
		if st, err := os.Stat(filepath.Join(outDir, name)); err != nil || st.Size() == 0 {
			t.Fatalf("-out wrote no %s (%v)", name, err)
		}
	}
	mustCLI(t, "-workload", "dcgan-mnist", "-steps", "60", "-version", "3", "-archive", dir, "-run-id", "smoke-v3", "-label", "smoke")

	mustMatch(t, "runs list", mustCLI(t, "-archive", dir, "runs", "list"), `smoke-v2`, `smoke-v3`)
	mustMatch(t, "runs show", mustCLI(t, "-archive", dir, "runs", "show", "smoke-v2"), `phases=`)
	mustMatch(t, "runs diff", mustCLI(t, "-archive", dir, "runs", "diff", "smoke-v2", "smoke-v3"),
		`Δwall`, `^#[0-9]+ +#[0-9]+`, `%`)
	csv := mustCLI(t, "-archive", dir, "-csv", "runs", "diff", "smoke-v2", "smoke-v3")
	if !strings.HasPrefix(csv, "phase_a,phase_b") {
		t.Fatalf("runs diff -csv:\n%s", csv)
	}
}

// TestWatchArchivedRun: `watch` tails a real archived run through the
// streaming analyzer and closes phases at full rate and at duty cycle
// 1/10.
func TestWatchArchivedRun(t *testing.T) {
	dir := t.TempDir()
	mustCLI(t, "-workload", "dcgan-mnist", "-steps", "120", "-archive", dir, "-run-id", "stream-v1")
	mustMatch(t, "watch", mustCLI(t, "-archive", dir, "watch", "stream-v1"),
		`phase .* closed`, `watch summary:`)
	mustMatch(t, "watch -duty 10", mustCLI(t, "-archive", dir, "watch", "-duty", "10", "-quiet", "stream-v1"),
		`phase .* closed`, `duty 1/10`)
}

// TestRunsShardedArchiveCompact: real runs archived into a fresh
// repository with -shards 4 land in a four-shard layout, compact into a
// pack, and every verb still reads the packed, sharded repository.
func TestRunsShardedArchiveCompact(t *testing.T) {
	dir := t.TempDir()
	for i := 1; i <= 3; i++ {
		mustCLI(t, "-workload", "dcgan-mnist", "-steps", "60", "-archive", dir, "-shards", "4",
			"-run-id", fmt.Sprintf("smoke-%d", i), "-label", "smoke")
	}
	layout, err := os.ReadFile(filepath.Join(dir, "runs", ".layout"))
	if err != nil || !strings.Contains(string(layout), `"shards":4`) {
		t.Fatalf("runs/.layout = %q, %v; want a four-shard layout", layout, err)
	}
	if m, _ := filepath.Glob(filepath.Join(dir, "runs", "manifest-*.json")); len(m) == 0 {
		t.Fatal("no runs/manifest-*.json on disk")
	}

	mustMatch(t, "runs list", mustCLI(t, "-archive", dir, "runs", "list"), `smoke-1`, `smoke-2`, `smoke-3`)
	mustCLI(t, "-archive", dir, "runs", "fsck")
	mustMatch(t, "runs compact", mustCLI(t, "-archive", dir, "runs", "compact"), `^packed `)
	if packs, err := os.ReadDir(filepath.Join(dir, "runs", ".pack")); err != nil || len(packs) == 0 {
		t.Fatalf("runs/.pack/ is empty after compact (%v)", err)
	}
	mustMatch(t, "runs show", mustCLI(t, "-archive", dir, "runs", "show", "smoke-2"), `records:`)
	mustCLI(t, "-archive", dir, "runs", "fsck")
}
