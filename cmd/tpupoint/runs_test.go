package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"testing"

	"repro/internal/archive"
	"repro/internal/core/analyzer"
	"repro/internal/faultnet"
	"repro/internal/repo"
	"repro/internal/rpc"
	"repro/internal/simclock"
	"repro/internal/storage"
	"repro/internal/trace"
)

func testRecord(i int) *trace.ProfileRecord {
	ts := simclock.Time(i * 1000)
	return trace.Reduce(int64(i), ts, []trace.Event{
		{Name: "MatMul", Device: trace.TPU, Start: ts, Dur: 500, Step: int64(i)},
	}, 0.2, 0.4)
}

// testBlob is a small multi-segment archive of 24 records with its
// phase summary embedded.
func testBlob(t *testing.T, runID string, seq uint64) []byte {
	t.Helper()
	w := archive.NewWriter(archive.Meta{RunID: runID, Workload: "synthetic", CreatedSeq: seq})
	if err := w.SetSegmentTarget(256); err != nil {
		t.Fatal(err)
	}
	recs := make([]*trace.ProfileRecord, 24)
	for i := range recs {
		recs[i] = testRecord(i)
		w.Add(recs[i])
	}
	rep, err := analyzer.Analyze("synthetic", recs, analyzer.OLSAlgo, analyzer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return w.Finalize(archive.SummarizeReport(rep))
}

// saveRuns archives one run per ID into the repository directory, the
// way `tpupoint -archive dir` does after training.
func saveRuns(t *testing.T, dir string, runIDs ...string) {
	t.Helper()
	r, _, done, err := openRepoDir(io.Discard, dir, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	defer done()
	for i, id := range runIDs {
		if _, err := r.Save(testBlob(t, id, uint64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
}

// writeRepoWithRun builds an on-disk repository containing one saved
// run and returns its directory plus the raw blob bytes.
func writeRepoWithRun(t *testing.T, runID string) (string, []byte) {
	t.Helper()
	dir := t.TempDir()
	saveRuns(t, dir, runID)
	return dir, testBlob(t, runID, 1)
}

func blobPath(dir, runID string) string {
	return filepath.Join(dir, "runs", runID, "archive")
}

// viewRepo opens dir the way a read-only verb does.
func viewRepo(t *testing.T, dir string) *repo.Repo {
	t.Helper()
	r, _, done, err := openRepoDir(io.Discard, dir, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(done)
	return r
}

// repoTree reads every repository file under dir (the store's own
// .dirstore bookkeeping aside), keyed by relative path.
func repoTree(t *testing.T, dir string) map[string]string {
	t.Helper()
	tree := make(map[string]string)
	err := filepath.WalkDir(dir, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			if e.Name() == ".dirstore" {
				return filepath.SkipDir
			}
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(dir, path)
		tree[filepath.ToSlash(rel)] = string(data)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// TestRunsSalvageRoundTrip drives the CLI path end to end: damage the
// on-disk blob, see `runs fsck` flag it, `runs salvage` it, and prove
// the repaired repository reads back cleanly. One blob is synthetic and
// loses its last third (footer and final segment); the other is a real
// archived run that loses its last 16 bytes.
func TestRunsSalvageRoundTrip(t *testing.T) {
	synthetic, blob := writeRepoWithRun(t, "run-a")
	if err := os.WriteFile(blobPath(synthetic, "run-a"), blob[:len(blob)*2/3], 0o644); err != nil {
		t.Fatal(err)
	}
	profiled := t.TempDir()
	mustCLI(t, "-workload", "dcgan-mnist", "-steps", "60", "-archive", profiled, "-run-id", "crash-v2", "-label", "crash")
	st, err := os.Stat(blobPath(profiled, "crash-v2"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(blobPath(profiled, "crash-v2"), st.Size()-16); err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct{ dir, id string }{{synthetic, "run-a"}, {profiled, "crash-v2"}} {
		t.Run(c.id, func(t *testing.T) {
			out, err := cli("-archive", c.dir, "runs", "fsck")
			if err == nil || !strings.Contains(out, c.id) {
				t.Fatalf("fsck of the torn blob: err = %v, output:\n%s\nwant a failure naming %s", err, out, c.id)
			}
			mustMatch(t, "runs salvage", mustCLI(t, "-archive", c.dir, "runs", "salvage", c.id), `segments`)
			mustMatch(t, "post-salvage fsck", mustCLI(t, "-archive", c.dir, "runs", "fsck"), `no issues`)
			// The salvaged archive keeps its records but may lose the
			// embedded summary with the footer: show prints the record line.
			mustMatch(t, "runs show", mustCLI(t, "-archive", c.dir, "runs", "show", c.id), `records:`)

			// Reopen from disk: the run must verify and carry records.
			info, a, err := viewRepo(t, c.dir).Get(c.id)
			if err != nil {
				t.Fatalf("salvaged run unreadable from disk: %v", err)
			}
			if info.Records == 0 || info.Records != a.RecordCount() {
				t.Fatalf("info = %+v, archive records = %d", info, a.RecordCount())
			}
		})
	}
}

// TestRunsFsckRepair: a phantom manifest entry (blob deleted on disk)
// is detected and repaired through the CLI verb.
func TestRunsFsckRepair(t *testing.T) {
	dir, _ := writeRepoWithRun(t, "run-a")
	if err := os.Remove(blobPath(dir, "run-a")); err != nil {
		t.Fatal(err)
	}

	// Check-only finds the issue and exits non-zero.
	if _, err := cli("-archive", dir, "runs", "fsck"); err == nil {
		t.Fatal("fsck should report unrepaired issues")
	}
	if _, err := cli("-archive", dir, "runs", "fsck", "-repair"); err != nil {
		t.Fatalf("fsck -repair: %v", err)
	}
	if _, err := cli("-archive", dir, "runs", "fsck"); err != nil {
		t.Fatalf("repository not clean after repair: %v", err)
	}
	if _, err := viewRepo(t, dir).Info("run-a"); err == nil {
		t.Fatal("phantom entry survived on-disk repair")
	}
}

// TestRunsFsckRepairQuarantinesOnDisk: a blob fsck -repair cannot save
// is in the directory's quarantine area, and out of runs/, when the
// verb returns.
func TestRunsFsckRepairQuarantinesOnDisk(t *testing.T) {
	dir, _ := writeRepoWithRun(t, "run-a")
	if err := os.WriteFile(blobPath(dir, "run-a"), []byte("XXXXnothing"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := cli("-archive", dir, "runs", "fsck", "-repair"); err != nil {
		t.Fatalf("fsck -repair: %v", err)
	}
	q := filepath.Join(dir, "quarantine", "runs", "run-a", "archive")
	if _, err := os.Stat(q); err != nil {
		t.Fatalf("quarantined blob not persisted: %v", err)
	}
	if _, err := os.Stat(blobPath(dir, "run-a")); !os.IsNotExist(err) {
		t.Fatal("corrupt blob left in runs/ after quarantine")
	}
}

// TestRunsFsckRepairReadoptsHandPlacedArchive: a well-formed archive
// copied by hand to runs/<id>/archive is re-adopted and listed by
// `runs fsck -repair`, as README promises. The repair verb opens without
// Open's sweep, which would reclaim the unindexed blob first.
func TestRunsFsckRepairReadoptsHandPlacedArchive(t *testing.T) {
	dir, _ := writeRepoWithRun(t, "run-a")
	if err := os.MkdirAll(filepath.Dir(blobPath(dir, "run-b")), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(blobPath(dir, "run-b"), testBlob(t, "run-b", 7), 0o644); err != nil {
		t.Fatal(err)
	}
	out := mustCLI(t, "-archive", dir, "runs", "fsck", "-repair")
	if !strings.Contains(out, "re-adopted") {
		t.Fatalf("fsck -repair did not re-adopt the hand-placed archive:\n%s", out)
	}
	out = mustCLI(t, "-archive", dir, "runs", "list")
	if !strings.Contains(out, "run-b") {
		t.Fatalf("re-adopted run not listed:\n%s", out)
	}
	if _, err := cli("-archive", dir, "runs", "fsck"); err != nil {
		t.Fatalf("fsck after re-adoption: %v", err)
	}
}

// TestReadOnlyVerbsNeverWrite: list/show/diff/fsck/watch create no
// directory for a mistyped path and leave every repository byte alone —
// in particular an unindexed blob, which may belong to a live
// collector's in-flight save. The first index-mutating verb sweeps the
// repository and reclaims the orphan.
func TestReadOnlyVerbsNeverWrite(t *testing.T) {
	typo := filepath.Join(t.TempDir(), "typo")
	out := mustCLI(t, "-archive", typo, "runs", "list")
	if !strings.Contains(out, "repository is empty") {
		t.Fatalf("runs list on a missing directory printed:\n%s", out)
	}
	if _, err := os.Stat(typo); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("runs list created %s (stat: %v)", typo, err)
	}

	dir := t.TempDir()
	saveRuns(t, dir, "run-a", "run-b")

	// A parked fleet session, so sessions/ has a meta object and a log.
	store, err := storage.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	srv := rpc.NewServer()
	repo.NewFleet(repo.New(store), repo.FleetOptions{}).Register(srv)
	defer srv.Close()
	conn := rpc.Pipe(srv)
	defer conn.Close()
	fc, err := repo.OpenResilient(conn, repo.OpenRequest{RunID: "live", Workload: "synthetic"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := fc.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}

	// A save that lost power after its blob, before its manifest CAS.
	crash := faultnet.NewCrashStore(store)
	doomed, _, err := repo.Open(crash)
	if err != nil {
		t.Fatal(err)
	}
	crash.CrashAfterWrites(1, false)
	if _, err := doomed.Save(testBlob(t, "cut", 9)); !errors.Is(err, faultnet.ErrPowerLost) {
		t.Fatalf("cut save: %v, want ErrPowerLost", err)
	}
	if _, err := os.Stat(blobPath(dir, "cut")); err != nil {
		t.Fatalf("test setup: no orphan blob: %v", err)
	}

	before := repoTree(t, dir)
	for _, verb := range [][]string{{"list"}, {"show", "run-a"}, {"diff", "run-a", "run-b"}} {
		mustCLI(t, append([]string{"-archive", dir, "runs"}, verb...)...)
	}
	// The orphan is debris fsck reports; check-only must not touch it.
	if _, err := cli("-archive", dir, "runs", "fsck"); err == nil {
		t.Fatal("plain fsck passed over an orphan blob")
	}
	mustCLI(t, "-archive", dir, "watch", "-quiet", "run-a")
	out = mustCLI(t, "-archive", dir, "watch", "-quiet", "-session", fc.Token())
	if !strings.Contains(out, "8 records") {
		t.Fatalf("watch -session did not replay the 8 accepted records:\n%s", out)
	}
	if after := repoTree(t, dir); !reflect.DeepEqual(before, after) {
		t.Fatalf("read-only verbs changed the directory:\nbefore %v\nafter  %v", keys(before), keys(after))
	}

	out = mustCLI(t, "-archive", dir, "runs", "gc")
	if !strings.Contains(out, "recovery: reclaimed 1 unreferenced objects") {
		t.Fatalf("runs gc printed no recovery line:\n%s", out)
	}
	if _, err := os.Stat(blobPath(dir, "cut")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("orphan blob survived the sweep (stat: %v)", err)
	}
	if _, err := cli("-archive", dir, "runs", "fsck"); err != nil {
		t.Fatalf("fsck after the sweep: %v", err)
	}
}

func keys(m map[string]string) []string {
	var ks []string
	for k, v := range m {
		ks = append(ks, fmt.Sprintf("%s(%d)", k, len(v)))
	}
	return ks
}

// TestExportedDirectoryStillWorks: a directory laid out by earlier
// builds' export route — raw object files, no .dirstore sidecars — is
// adopted in place: it lists, shows, GCs and compacts.
func TestExportedDirectoryStillWorks(t *testing.T) {
	bucket, err := storage.NewService().CreateBucket("old")
	if err != nil {
		t.Fatal(err)
	}
	old := repo.New(bucket)
	for i, id := range []string{"run-1", "run-2", "run-3", "run-4"} {
		if _, err := old.Save(testBlob(t, id, uint64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	dir := t.TempDir()
	for _, name := range bucket.List("runs/") {
		obj, err := bucket.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, obj.Data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	out := mustCLI(t, "-archive", dir, "runs", "list")
	for _, id := range []string{"run-1", "run-2", "run-3", "run-4"} {
		if !strings.Contains(out, id) {
			t.Fatalf("runs list lost %s:\n%s", id, out)
		}
	}
	out = mustCLI(t, "-archive", dir, "runs", "show", "run-2")
	if !strings.Contains(out, "records:   24") {
		t.Fatalf("runs show run-2:\n%s", out)
	}
	out = mustCLI(t, "-archive", dir, "runs", "gc")
	if !strings.Contains(out, "removed run-1") || !strings.Contains(out, "gc: removed 1 runs") {
		t.Fatalf("runs gc -keep 3:\n%s", out)
	}
	if _, err := os.Stat(blobPath(dir, "run-1")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("gc left its victim's blob on disk (stat: %v)", err)
	}
	out = mustCLI(t, "-archive", dir, "runs", "compact")
	if !strings.Contains(out, "compact: 1 packs from 3 runs") {
		t.Fatalf("runs compact:\n%s", out)
	}
	r := viewRepo(t, dir)
	if _, _, err := r.Get("run-3"); err != nil {
		t.Fatalf("packed run unreadable: %v", err)
	}
	if rep, err := r.Fsck(false); err != nil || !rep.Clean() {
		t.Fatalf("fsck after gc+compact: %+v, %v", rep, err)
	}
}

// TestRunsRefuseV1Layout: a directory holding the v1 single-manifest
// layout (hand-built: no build writes it) is refused by every verb,
// reading or mutating — `runs fsck -repair`, once its converter,
// included — and not a byte of it changes.
func TestRunsRefuseV1Layout(t *testing.T) {
	bucket, err := storage.NewService().CreateBucket("scratch")
	if err != nil {
		t.Fatal(err)
	}
	scratch := repo.New(bucket)
	ids := []string{"run-1", "run-2", "run-3"}
	var v1 struct {
		NextSeq uint64         `json:"next_seq"`
		Runs    []repo.RunInfo `json:"runs"`
	}
	dir := t.TempDir()
	put := func(name string, data []byte) {
		t.Helper()
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for i, id := range ids {
		blob := testBlob(t, id, uint64(i+1))
		info, err := scratch.Save(blob)
		if err != nil {
			t.Fatal(err)
		}
		v1.Runs = append(v1.Runs, info)
		put(info.Object, blob)
	}
	v1.NextSeq = uint64(len(ids)) + 1
	data, err := json.Marshal(v1)
	if err != nil {
		t.Fatal(err)
	}
	put("runs/manifest.json", data)
	before := repoTree(t, dir)

	for _, verb := range [][]string{{"list"}, {"show", "run-1"}, {"fsck"}, {"fsck", "-repair"}, {"gc"}, {"compact"},
		{"delete", "run-1"}, {"salvage", "run-1"}} {
		if _, err := cli(append([]string{"-archive", dir, "-shards", "4", "runs"}, verb...)...); !errors.Is(err, repo.ErrLegacyLayout) {
			t.Fatalf("runs %v on a v1 directory: err = %v, want ErrLegacyLayout", verb, err)
		}
	}
	if after := repoTree(t, dir); !reflect.DeepEqual(after, before) {
		t.Fatal("refused verbs changed the v1 directory")
	}
}

// TestCollectServeRefusesOtherShardCount: a replica whose shard count
// (here the 4-per-replica default) is not the repository's would own,
// by its own arithmetic, shards placement never gives it; the collector
// does not start, and says which count to pass.
func TestCollectServeRefusesOtherShardCount(t *testing.T) {
	dir := t.TempDir()
	r, _, done, err := openRepoDir(io.Discard, dir, 12, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Save(testBlob(t, "seed", 1)); err != nil { // makes the 12-shard layout durable
		t.Fatal(err)
	}
	done()
	_, err = cli("-collect-serve", "127.0.0.1:0", "-archive", dir, "-replicas", "2", "-replica-id", "1")
	if err == nil || !strings.Contains(err.Error(), "pass -shards 12") {
		t.Fatalf("collectServe with 8 shards over a 12-shard repository: err = %v, want \"pass -shards 12\"", err)
	}
}

// gateStore calls park around a save's two writes: before the blob Put
// (after = false) and after the manifest CAS (after = true). A test
// parks a writer at a chosen point.
type gateStore struct {
	repo.Store
	park func(after bool)
}

func (g *gateStore) Put(name string, data []byte) (*storage.Object, error) {
	g.park(false)
	return g.Store.Put(name, data)
}

func (g *gateStore) PutIf(name string, data []byte, gen int64) (*storage.Object, error) {
	obj, err := g.Store.PutIf(name, data, gen)
	g.park(true)
	return obj, err
}

// TestRunsGCBesideLiveWriter: `runs gc` works on the live directory
// under the store's lock, so a writer on a second handle keeps what it
// saved — the old import/mutate/re-export route wiped whatever landed
// between its import and its sync. The writer is parked at the two
// points of a save where a full sweep is harmless (before its blob Put;
// after its manifest CAS); between them the collectors must be
// stopped, as the package comment says.
func TestRunsGCBesideLiveWriter(t *testing.T) {
	for _, parkAfterCAS := range []bool{false, true} {
		name := "parked-before-the-blob-put"
		if parkAfterCAS {
			name = "parked-after-the-manifest-cas"
		}
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			saveRuns(t, dir, "old-1", "old-2")

			store, err := storage.OpenDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer store.Close()
			parked, release := make(chan struct{}), make(chan struct{})
			writer := repo.New(&gateStore{Store: store, park: func(after bool) {
				if after == parkAfterCAS {
					close(parked)
					<-release
				}
			}})
			saved := make(chan error, 1)
			go func() {
				_, err := writer.Save(testBlob(t, "live", 3))
				saved <- err
			}()
			<-parked

			out := mustCLI(t, "-archive", dir, "-keep", "2", "runs", "gc")
			close(release)
			if err := <-saved; err != nil {
				t.Fatalf("in-flight save: %v", err)
			}

			// gc ranked what was indexed when it ran: with the save parked
			// before its blob that is the two old runs (nothing to drop),
			// with it parked after its CAS the oldest of three.
			wantRuns := []string{"old-1", "old-2", "live"}
			if parkAfterCAS {
				wantRuns = []string{"old-2", "live"}
				if !strings.Contains(out, "removed old-1") {
					t.Fatalf("gc did not drop the oldest run:\n%s", out)
				}
			}
			r := viewRepo(t, dir)
			runs, err := r.List(repo.Filter{})
			if err != nil {
				t.Fatal(err)
			}
			var got []string
			for _, info := range runs {
				got = append(got, info.RunID)
			}
			if !reflect.DeepEqual(got, wantRuns) {
				t.Fatalf("runs after gc beside a live save = %v, want %v", got, wantRuns)
			}
			if rep, err := r.Fsck(false); err != nil || !rep.Clean() {
				t.Fatalf("fsck: %+v, %v", rep, err)
			}
		})
	}
}

// TestStandaloneCollectorAcksAreOnDisk: a standalone -collect-serve
// runs on the live directory, so a record is readable through a second
// handle as soon as it is acked — no shutdown sync exists — and a
// restarted collector parks the session for the client to resume by
// token.
func TestStandaloneCollectorAcksAreOnDisk(t *testing.T) {
	dir := t.TempDir()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	serve := func() <-chan error {
		errc := make(chan error, 1)
		go func() {
			errc <- run([]string{"-collect-serve", addr, "-archive", dir}, io.Discard, io.Discard)
		}()
		return errc
	}
	stop := func(errc <-chan error) {
		t.Helper()
		if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		if err := <-errc; err != nil {
			t.Fatalf("-collect-serve: %v", err)
		}
	}

	first := serve()
	client, err := rpc.NewReconnectClient(rpc.ReconnectOptions{Endpoints: []string{addr}})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	fc, err := repo.OpenResilient(client, repo.OpenRequest{RunID: "vm0", Workload: "synthetic"})
	if err != nil {
		t.Fatal(err)
	}
	const acked = 16
	for i := 0; i < acked; i++ {
		if err := fc.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}

	second, err := storage.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()
	recs, err := repo.SessionRecords(second, fc.Token())
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != acked {
		t.Fatalf("%d of %d acked records on disk while the collector runs", len(recs), acked)
	}

	stop(first)
	restarted := serve()
	for i := acked; i < acked+4; i++ {
		if err := fc.Append(testRecord(i)); err != nil {
			t.Fatalf("append after restart: %v", err)
		}
	}
	if fc.Resumes() == 0 {
		t.Fatal("client never resumed the parked session")
	}
	info, err := fc.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if info.Records != acked+4 {
		t.Fatalf("archived %d records, want %d", info.Records, acked+4)
	}
	// Finalized means indexed on disk, again before any shutdown.
	if got, err := repo.New(second).Info("vm0"); err != nil || got.Records != acked+4 {
		t.Fatalf("run on disk = %+v, %v", got, err)
	}
	stop(restarted)
}
