package main

// Everything the benchmark knows about the system under test lives in
// this file: it is the only one that imports repro/internal/..., so an
// API change in the repository lands here and nowhere else in bench/.
// The workloads (workloads.go) drive these adapters and never name an
// internal type.

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	tpupoint "repro"
	"repro/internal/archive"
	"repro/internal/core/analyzer"
	"repro/internal/obs"
	"repro/internal/repo"
	"repro/internal/rpc"
	"repro/internal/storage"
	"repro/internal/trace"
)

// sutStore and sutObject let a test wrap the collector's store without
// importing the internal packages itself.
type (
	sutStore    = repo.Store
	sutObject   = storage.Object
	sutRegistry = obs.Registry
)

func newRegistry() *sutRegistry { return obs.NewRegistry(0) }

const collectorShards = repo.DefaultShards

// ---- recordings: the inputs ------------------------------------------

// recording is the wire-encoded profile of one simulated training run —
// the only thing a collector or repository under test ever receives.
type recording struct {
	workload string
	version  string
	hostSpec string
	records  [][]byte // trace.MarshalRecord bytes, one per profile window
	// stepsThrough[i] is how many distinct training steps records[:i+1]
	// cover (a step can straddle two windows).
	stepsThrough []int
	decoded      []*trace.ProfileRecord
}

func (r *recording) steps() int { return r.stepsThrough[len(r.records)-1] }

func (r *recording) wireBytes() int {
	n := 0
	for _, b := range r.records {
		n += len(b)
	}
	return n
}

// prefix is the recording cut to its first n records.
func (r *recording) prefix(n int) *recording {
	c := *r
	c.records, c.stepsThrough, c.decoded = r.records[:n], r.stepsThrough[:n], r.decoded[:n]
	return &c
}

func tpuVersion(v3 bool) tpupoint.Version {
	if v3 {
		return tpupoint.V3
	}
	return tpupoint.V2
}

// simulate runs one Table I workload on the simulator and then drains its
// profile through TPUPoint-Profiler. The profiler is attached after
// training ends: every window is then cut at the service's size limits,
// so the same seed yields the same records. (A live profiler's windows
// depend on wall-clock polling, and it loses a few events at window
// seams, which is enough to change k-means and DBSCAN phase membership
// from run to run — README.md, finding 4.)
func simulate(rec *recorder, reg *obs.Registry, workload string, v3 bool, steps int, seed uint64, parent, op int64) (*tpupoint.Session, []*trace.ProfileRecord, error) {
	s, err := tpupoint.NewSession(workload, tpupoint.Options{Version: tpuVersion(v3), Steps: steps, Seed: seed, Obs: reg})
	if err != nil {
		return nil, nil, err
	}
	o := rec.begin()
	if err := s.Train(); err != nil {
		return nil, nil, err
	}
	rec.end(o, "estimator.train", parent, op)
	rec.simSteps += float64(steps)

	o = rec.begin()
	p, err := s.StartProfiler(true)
	if err != nil {
		return nil, nil, err
	}
	recs, err := p.Stop()
	rec.end(o, "profiler.capture", parent, op)
	return s, recs, err
}

// makeRecording is simulate's records in wire form.
func makeRecording(rec *recorder, reg *obs.Registry, workload string, v3 bool, steps int, seed uint64) (*recording, error) {
	s, recs, err := simulate(rec, reg, workload, v3, steps, seed, 0, 0)
	if err != nil {
		return nil, err
	}
	spec := s.Workload().Spec()
	out := &recording{
		workload: workload,
		version:  tpuVersion(v3).String(),
		hostSpec: fmt.Sprintf("%dc %gMBps", spec.Cores, spec.ReadMBps),
		decoded:  recs,
	}
	seen := map[int64]bool{}
	for _, r := range recs {
		out.records = append(out.records, trace.MarshalRecord(r))
		for _, st := range r.Steps {
			seen[st.Step] = true
		}
		out.stepsThrough = append(out.stepsThrough, len(seen))
	}
	if len(out.records) == 0 {
		return nil, fmt.Errorf("recording %s: profiler returned no records", workload)
	}
	return out, nil
}

// ---- collector: rpc server -> fleet -> ingestor -> repo -> DirStore ---

type collectorOptions struct {
	compactEvery int
	// wrapStore, when set, decorates the DirStore before the repository
	// sees it (the test's fault injection).
	wrapStore func(sutStore) sutStore
	// counts, when set, attributes store traffic to object classes; reg
	// receives the instruments the collector publishes.
	counts *storeCounts
	reg    *obs.Registry
}

// collector is the in-process collection server in the one
// configuration ROADMAP item 2 keeps: a 1-replica set owning every
// shard of a live DirStore, saves through the group-commit Ingestor.
type collector struct {
	store  *storage.DirStore
	repo   *repo.Repo
	ingest *repo.Ingestor
	fleet  *repo.Fleet
	srv    *rpc.Server
	ln     net.Listener
}

func startCollector(dir string, opts collectorOptions) (*collector, error) {
	store, err := storage.OpenDir(dir)
	if err != nil {
		return nil, err
	}
	c := &collector{store: store}
	var s repo.Store = store
	if opts.wrapStore != nil {
		s = opts.wrapStore(s)
	}
	if opts.counts != nil {
		s = &countingStore{inner: s, n: opts.counts}
	}
	rc := &repo.ReplicaConfig{ID: 0, Replicas: 1}
	c.repo, _, err = repo.OpenShardsOwned(s, collectorShards, rc.OwnedShards(collectorShards))
	if err != nil {
		store.Close()
		return nil, err
	}
	c.repo.SetObs(opts.reg)
	c.ingest = repo.NewIngestor(c.repo, repo.IngestorOptions{Replica: rc, Obs: opts.reg})
	c.fleet = repo.NewFleet(c.repo, repo.FleetOptions{
		CompactEvery: opts.compactEvery, Obs: opts.reg, Replica: rc, Ingest: c.ingest,
		// The finalize-time OLS publishes its stage time to the same registry.
		Analyzer: analyzer.Options{Obs: opts.reg},
	})
	c.srv = rpc.NewServer()
	c.fleet.Register(c.srv)
	c.ln, err = net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		c.ingest.Close()
		store.Close()
		return nil, err
	}
	go c.srv.Serve(c.ln)
	return c, nil
}

func (c *collector) addr() string { return c.ln.Addr().String() }

// compact packs one workload's archives, as the background pass does.
func (c *collector) compact(workload string) error {
	_, err := c.repo.Compact(repo.CompactOptions{Workload: workload})
	return err
}

// drain waits for the compaction passes finalizes have started.
func (c *collector) drain() { c.fleet.WaitBackground() }

// stop drains background compaction and releases everything; the store
// directory stays for the reader.
func (c *collector) stop() {
	c.ln.Close()
	c.srv.Close()
	c.drain()
	c.ingest.Close()
	c.store.Close()
}

// ---- agent: ReconnectClient + ResilientClient, as cmd/tpupoint -------

type agent struct {
	client *rpc.ReconnectClient
}

// dialAgent builds one agent connection. wire, when set, counts the
// bytes and frames crossing it.
func dialAgent(addr string, reg *obs.Registry, wire *connCounts) (*agent, error) {
	opts := rpc.ReconnectOptions{Endpoints: []string{addr}, Obs: reg}
	if wire != nil {
		opts.DialEndpoint = func(a string) (net.Conn, error) {
			conn, err := net.Dial("tcp", a)
			if err != nil {
				return nil, err
			}
			return &countingConn{Conn: conn, n: wire}, nil
		}
	}
	client, err := rpc.NewReconnectClient(opts)
	if err != nil {
		return nil, err
	}
	return &agent{client: client}, nil
}

func (a *agent) ping() error {
	_, err := repo.PingEndpoint(a.client)
	return err
}

func (a *agent) close() { a.client.Close() }

type agentSession struct {
	rc *repo.ResilientClient
}

func (a *agent) open(runID, label string, r *recording) (*agentSession, error) {
	rc, err := repo.OpenResilient(a.client, repo.OpenRequest{
		RunID: runID, Workload: r.workload, Label: label,
		HostSpec: r.hostSpec, TPUVersion: r.version,
	})
	if err != nil {
		return nil, err
	}
	return &agentSession{rc: rc}, nil
}

// put sends one record and returns once the collector has acked it
// durable — the call the profiler's recording thread makes.
func (s *agentSession) put(i int, data []byte) error {
	_, err := s.rc.Put(fmt.Sprintf("profiles/%06d", i), data)
	return err
}

func (s *agentSession) token() string { return s.rc.Token() }

// finalize returns the record count of the archived, indexed run.
func (s *agentSession) finalize() (int64, error) {
	info, err := s.rc.Finalize()
	return info.Records, err
}

// ---- reader: an independent handle on the same directory -------------

// logReader reads session logs beside a live collector. It opens only
// the store: opening a repository replays journals, which a second
// handle must not do while the owner has saves in flight.
type logReader struct {
	store *storage.DirStore
}

func openLogReader(dir string) (*logReader, error) {
	store, err := storage.OpenDir(dir)
	if err != nil {
		return nil, err
	}
	return &logReader{store: store}, nil
}

// durableRecords is how many records of a session a restarted collector
// would find in its log right now.
func (l *logReader) durableRecords(token string) (int, error) {
	recs, err := repo.SessionRecords(l.store, token)
	return len(recs), err
}

func (l *logReader) close() { l.store.Close() }

// reader is a repository opened on a quiescent directory, the way
// `tpupoint runs ...` opens one.
type reader struct {
	store *storage.DirStore
	repo  *repo.Repo
}

// openReader opens the repository in dir; counts, when set, sees its
// store traffic.
func openReader(dir string, counts *storeCounts, reg *obs.Registry) (*reader, error) {
	store, err := storage.OpenDir(dir)
	if err != nil {
		return nil, err
	}
	rd := &reader{store: store}
	var s repo.Store = store
	if counts != nil {
		s = &countingStore{inner: s, n: counts}
	}
	rd.repo, _, err = repo.OpenShards(s, 0)
	if err != nil {
		store.Close()
		return nil, err
	}
	rd.repo.SetObs(reg)
	return rd, nil
}

func (rd *reader) close() { rd.store.Close() }

type runRef struct {
	id, workload, version string
	records               int64
}

func (rd *reader) list(workload string) ([]runRef, error) {
	infos, err := rd.repo.List(repo.Filter{Workload: workload})
	if err != nil {
		return nil, err
	}
	out := make([]runRef, len(infos))
	for i, in := range infos {
		out[i] = runRef{id: in.RunID, workload: in.Workload, version: in.TPUVersion, records: in.Records}
	}
	return out, nil
}

// get opens a run (manifest lookup, blob read, CRC verify) and decodes
// every record, returning the record and distinct-step counts.
func (rd *reader) get(rec *recorder, parent, op int64, id string) (records, steps int, err error) {
	o := rec.begin()
	_, a, err := rd.repo.Get(id)
	rec.end(o, "repo.get", parent, op)
	if err != nil {
		return 0, 0, err
	}
	o = rec.begin()
	recs, err := a.Records()
	rec.end(o, "archive.records", parent, op)
	if err != nil {
		return 0, 0, err
	}
	return len(recs), len(trace.AggregateSteps(recs)), nil
}

func (rd *reader) compare(a, b string) (phasesMatched int, err error) {
	d, err := rd.repo.Compare(a, b)
	if err != nil {
		return 0, err
	}
	return len(d.Matches), nil
}

// watchSealWindow is the streaming analyzer's seal window for the watch
// replays. At the default (8) full-size profile windows deliver a step's
// host and TPU fragments further apart than the window, the later
// fragment is dropped as late, and the stream reports boundaries batch
// OLS does not; from 128 up the two agree on every Table I recording
// used here (README.md, finding 5).
const watchSealWindow = 128

// watch replays a stored run through the streaming analyzer, as
// `tpupoint watch <run>` does, and returns its phase boundaries.
func (rd *reader) watch(rec *recorder, parent, op int64, id string) (boundaries []int64, steps int64, err error) {
	o := rec.begin()
	_, a, err := rd.repo.Get(id)
	rec.end(o, "repo.get", parent, op)
	if err != nil {
		return nil, 0, err
	}
	o = rec.begin()
	s := analyzer.NewStream("watch", analyzer.StreamOptions{SealWindow: watchSealWindow})
	it := a.Iter()
	for it.Next() {
		if err := s.Feed(it.Record()); err != nil {
			return nil, 0, err
		}
	}
	if err := it.Err(); err != nil {
		return nil, 0, err
	}
	rep := s.Finish()
	rec.end(o, "stream.replay", parent, op)
	return rep.Boundaries(), rep.Steps, nil
}

// batchBoundaries is the batch OLS answer watch must reproduce.
func (rd *reader) batchBoundaries(id string) ([]int64, error) {
	_, a, err := rd.repo.Get(id)
	if err != nil {
		return nil, err
	}
	recs, err := a.Records()
	if err != nil {
		return nil, err
	}
	var out []int64
	for _, p := range analyzer.OLS(trace.AggregateSteps(recs), analyzer.DefaultThreshold)[1:] {
		out = append(out, p.Steps[0].Step)
	}
	return out, nil
}

// fsck returns the check-only consistency pass's findings.
func (rd *reader) fsck() ([]string, error) {
	rep, err := rd.repo.Fsck(false)
	if err != nil {
		return nil, err
	}
	var issues []string
	for _, is := range rep.Issues {
		issues = append(issues, fmt.Sprintf("%s %s %s: %s", is.Kind, is.RunID, is.Object, is.Detail))
	}
	return issues, nil
}

// ---- paper pipeline: the public tpupoint API, Figure 2 ---------------

// memRepo is the in-memory repository paper-pipeline archives into.
type memRepo struct {
	bucket *storage.Bucket
	repo   *repo.Repo
}

func newMemRepo(reg *obs.Registry) (*memRepo, error) {
	bucket, err := storage.NewService().CreateBucket("bench-pipeline")
	if err != nil {
		return nil, err
	}
	r := repo.New(bucket)
	r.SetObs(reg)
	return &memRepo{bucket: bucket, repo: r}, nil
}

func (m *memRepo) storedBytes() int64 { return m.bucket.TotalBytes() }

func (m *memRepo) compare(a, b string) error {
	_, err := m.repo.Compare(a, b)
	return err
}

type pipelineRun struct {
	steps     int
	idle      float64
	wireBytes int
	vizBytes  int
	digest    string // phase membership under all three algorithms
}

// runPipeline is one user's Figure 2 flow for one workload and TPU
// generation: simulate, profile, load the persisted records, analyze
// with all three algorithms, render, archive.
func runPipeline(rec *recorder, reg *obs.Registry, m *memRepo, workload string, v3 bool, steps int, seed uint64, runID string, parent, op int64) (pipelineRun, error) {
	var out pipelineRun
	s, _, err := simulate(rec, reg, workload, v3, steps, seed, parent, op)
	if err != nil {
		return out, err
	}
	records, err := s.LoadRecords()
	if err != nil {
		return out, err
	}
	for _, r := range records {
		out.wireBytes += len(trace.MarshalRecord(r))
	}
	out.idle = s.IdleFraction()

	h := sha256.New()
	var ols *tpupoint.Report
	report := rec.begin()
	for _, algo := range []tpupoint.Algorithm{tpupoint.OLS, tpupoint.KMeans, tpupoint.DBSCAN} {
		o := rec.begin()
		rep, err := s.Analyze(records, algo)
		if err != nil {
			return out, err
		}
		rec.end(o, "analyzer.report."+string(algo), report.id, op)
		fmt.Fprintf(h, "%s:", algo)
		for _, ph := range rep.Phases {
			fmt.Fprintf(h, "%v;", ph.StepIDs())
		}
		if algo == tpupoint.OLS {
			ols = rep
		}
		out.steps = rep.Steps
	}
	rec.end(report, "analyzer.report", parent, op)
	out.digest = fmt.Sprintf("%x", h.Sum(nil)[:8])

	var buf bytes.Buffer
	o := rec.begin()
	if err := s.WriteTrace(&buf, ols, records); err != nil {
		return out, err
	}
	rec.end(o, "viz.trace", parent, op)
	out.vizBytes = buf.Len()
	buf.Reset()
	o = rec.begin()
	if err := s.WriteCSV(&buf, ols); err != nil {
		return out, err
	}
	rec.end(o, "viz.csv", parent, op)
	out.vizBytes += buf.Len()

	o = rec.begin()
	_, err = s.ArchiveRun(m.repo, runID, "bench", records, ols)
	rec.end(o, "repo.save", parent, op)
	return out, err
}

// optimize runs TPUPoint-Optimizer on the workload's naive pipeline and
// returns the measured speedup over the untuned baseline.
func optimize(reg *obs.Registry, workload string, steps int, seed uint64) (float64, error) {
	res, err := tpupoint.Optimize(workload, tpupoint.OptimizeOptions{Steps: steps, Seed: seed, Naive: true, Obs: reg})
	if err != nil {
		return 0, err
	}
	return res.MeasuredSpeedup, nil
}

// ---- one layer at a time: replays of the workload's own inputs -------

// replayLayers feeds a recording to the trace codec, the streaming
// analyzer and the archive codec in isolation and reports each one's
// cost per training step (medians over reps passes).
func replayLayers(r *recording, reps int) (map[string]float64, error) {
	steps := float64(r.steps())
	perStep := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / steps }
	var marshal, unmarshal, allocs, feed, finish, encode, decode, open []float64
	var framed, blob []byte
	var stateBytes, phases float64
	for i := 0; i < reps; i++ {
		t := time.Now()
		framed = framed[:0]
		for _, rec := range r.decoded {
			framed = trace.AppendFramedRecord(framed, rec)
		}
		marshal = append(marshal, perStep(time.Since(t)))

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		t = time.Now()
		recs, err := trace.UnmarshalFramed(framed)
		unmarshal = append(unmarshal, perStep(time.Since(t)))
		runtime.ReadMemStats(&after)
		if err != nil {
			return nil, err
		}
		allocs = append(allocs, float64(after.Mallocs-before.Mallocs)/float64(len(recs)))

		s := analyzer.NewStream(r.workload, analyzer.StreamOptions{SealWindow: watchSealWindow})
		t = time.Now()
		for _, rec := range recs {
			if err := s.Feed(rec); err != nil {
				return nil, err
			}
		}
		feed = append(feed, perStep(time.Since(t)))
		stateBytes = float64(s.StateBytes())
		t = time.Now()
		rep := s.Finish()
		finish = append(finish, float64(time.Since(t))/float64(time.Microsecond))
		phases = float64(len(rep.Phases))

		w := archive.NewWriter(archive.Meta{RunID: "replay", Workload: r.workload})
		t = time.Now()
		if _, err := w.AddRawBatch(framed); err != nil {
			return nil, err
		}
		blob = w.Finalize(nil)
		encode = append(encode, perStep(time.Since(t)))

		t = time.Now()
		a, err := archive.Open(blob)
		open = append(open, float64(time.Since(t))/float64(time.Microsecond))
		if err != nil {
			return nil, err
		}
		t = time.Now()
		if _, err := a.Records(); err != nil {
			return nil, err
		}
		decode = append(decode, perStep(time.Since(t)))
	}
	return map[string]float64{
		"trace.marshal_ns_per_step":   median(marshal),
		"trace.unmarshal_ns_per_step": median(unmarshal),
		"trace.allocs_per_record":     median(allocs),
		"stream.feed_ns_per_step":     median(feed),
		"stream.state_bytes":          stateBytes,
		"stream.phases":               phases,
		"stream.finish_us":            median(finish),
		"archive.encode_ns_per_step":  median(encode),
		"archive.decode_ns_per_step":  median(decode),
		"archive.bytes_per_step":      float64(len(blob)) / steps,
		"archive.open_verify_us_p50":  median(open),
	}, nil
}

// ---- what the code already publishes ---------------------------------

// obsMetrics maps instruments the system publishes to per-layer metric
// names, summed over the registries of one run.
func obsMetrics(regs ...*obs.Registry) map[string]float64 {
	counters := map[string]string{
		"profiler.records.persisted": "profiler.records",
		"profiler.records.dropped":   "profiler.records_dropped",
		"rpc.calls":                  "rpc.calls",
		"rpc.call.retries":           "rpc.call_retries",
		"rpc.call.busy":              "rpc.call_busy",
		"fleet.records.in":           "fleet.records_in",
		"fleet.records.archived":     "fleet.records_archived",
		"fleet.appends.busy":         "fleet.appends_busy",
		"repo.manifest.cas.retries":  "repo.cas_retries",
		"repo.ingest.batches":        "repo.ingest_batches",
		"repo.ingest.batched_runs":   "repo.ingest_runs",
		"repo.compact.packs":         "repo.compact_packs",
		"repo.compact.bytes":         "repo.compact_bytes",
		"optimizer.probes.started":   "optimizer.probes_started",
	}
	stages := map[string]string{
		"analyzer.stage.features_us": "analyzer.features_us",
		"analyzer.stage.pca_us":      "analyzer.pca_us",
		"analyzer.stage.kmeans_us":   "analyzer.kmeans_us",
		"analyzer.stage.dbscan_us":   "analyzer.dbscan_us",
		"analyzer.stage.ols_us":      "analyzer.ols_us",
	}
	out := map[string]float64{}
	for _, reg := range regs {
		snap := reg.Snapshot()
		for from, to := range counters {
			out[to] += float64(snap.C(from))
		}
		for from, to := range stages {
			out[to] += float64(snap.Histograms[from].SumUs)
		}
	}
	return out
}

// ---- decorators -------------------------------------------------------

// connCounts are the bytes and frames that crossed the agents'
// connections. The rpc client ships each request with one Write.
type connCounts struct {
	bytesOut, bytesIn, frames atomic.Int64
}

type countingConn struct {
	net.Conn
	n *connCounts
}

func (c *countingConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.n.bytesOut.Add(int64(n))
	c.n.frames.Add(1)
	return n, err
}

func (c *countingConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.n.bytesIn.Add(int64(n))
	return n, err
}

// storeClasses are the object classes store traffic is attributed to,
// after tf-Darshan's per-file-class I/O accounting.
var storeClasses = []string{"manifest", "journal", "sessionlog", "sessionmeta", "archive", "pack"}

func storeClass(name string) string {
	switch {
	case strings.HasPrefix(name, "sessions/"):
		if strings.HasSuffix(name, "/meta") {
			return "sessionmeta"
		}
		return "sessionlog"
	case strings.HasPrefix(name, repo.PackPrefix):
		return "pack"
	case strings.HasPrefix(name, "runs/.journal"):
		return "journal"
	case strings.HasPrefix(name, "runs/manifest"), name == repo.LayoutObject:
		return "manifest"
	case strings.HasPrefix(name, "runs/") && strings.HasSuffix(name, "/archive"):
		return "archive"
	}
	return "other"
}

type classStats struct {
	ops, bytesWritten, bytesRead int64
	busy                         time.Duration
}

// storeCounts attributes store operations to object classes and keeps
// per-operation latencies for the three calls on the ack, commit and
// read paths. One is shared by every store a traced section opens.
type storeCounts struct {
	mu    sync.Mutex
	class map[string]*classStats
	lat   map[string][]float64 // "append"/"putif"/"get" -> µs
}

func newStoreCounts() *storeCounts {
	return &storeCounts{class: map[string]*classStats{}, lat: map[string][]float64{}}
}

// reset forgets what set-up did.
func (c *storeCounts) reset() {
	c.mu.Lock()
	c.class, c.lat = map[string]*classStats{}, map[string][]float64{}
	c.mu.Unlock()
}

func (c *storeCounts) note(name, op string, start time.Time, written, read int) {
	d := time.Since(start)
	c.mu.Lock()
	cs := c.class[storeClass(name)]
	if cs == nil {
		cs = &classStats{}
		c.class[storeClass(name)] = cs
	}
	cs.ops++
	cs.bytesWritten += int64(written)
	cs.bytesRead += int64(read)
	cs.busy += d
	if op != "" {
		c.lat[op] = append(c.lat[op], float64(d)/float64(time.Microsecond))
	}
	c.mu.Unlock()
}

// countingStore is the repo.Store decorator that feeds a storeCounts.
type countingStore struct {
	inner repo.Store
	n     *storeCounts
}

func (c *countingStore) Get(name string) (*storage.Object, error) {
	t := time.Now()
	obj, err := c.inner.Get(name)
	n := 0
	if obj != nil {
		n = len(obj.Data)
	}
	c.n.note(name, "get", t, 0, n)
	return obj, err
}

func (c *countingStore) Put(name string, data []byte) (*storage.Object, error) {
	t := time.Now()
	obj, err := c.inner.Put(name, data)
	c.n.note(name, "", t, len(data), 0)
	return obj, err
}

func (c *countingStore) PutIf(name string, data []byte, gen int64) (*storage.Object, error) {
	t := time.Now()
	obj, err := c.inner.PutIf(name, data, gen)
	c.n.note(name, "putif", t, len(data), 0)
	return obj, err
}

func (c *countingStore) Append(name string, data []byte) (*storage.Object, error) {
	t := time.Now()
	obj, err := c.inner.Append(name, data)
	c.n.note(name, "append", t, len(data), 0)
	return obj, err
}

// GetRange keeps ranged pack reads ranged when the wrapped store offers
// them, and otherwise falls back the way the repository itself does.
func (c *countingStore) GetRange(name string, off, n int64) ([]byte, error) {
	t := time.Now()
	var data []byte
	var err error
	if rr, ok := c.inner.(storage.RangeReader); ok {
		data, err = rr.GetRange(name, off, n)
	} else {
		var obj *storage.Object
		if obj, err = c.inner.Get(name); err == nil {
			if off < 0 || n < 0 || off+n > int64(len(obj.Data)) {
				err = fmt.Errorf("range [%d,%d) outside %s (%d bytes)", off, off+n, name, len(obj.Data))
			} else {
				data = obj.Data[off : off+n]
			}
		}
	}
	c.n.note(name, "get", t, 0, len(data))
	return data, err
}

func (c *countingStore) Delete(name string) error {
	t := time.Now()
	err := c.inner.Delete(name)
	c.n.note(name, "", t, 0, 0)
	return err
}

func (c *countingStore) Exists(name string) bool {
	t := time.Now()
	ok := c.inner.Exists(name)
	c.n.note(name, "", t, 0, 0)
	return ok
}

func (c *countingStore) List(prefix string) []string {
	t := time.Now()
	names := c.inner.List(prefix)
	c.n.note(prefix, "", t, 0, 0)
	return names
}

// metrics renders the counts under the storage.* names, per round.
// userBytes is the record wire bytes a round sent, the denominator of
// write amplification.
func (c *storeCounts) metrics(userBytes, rounds float64) map[string]float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := map[string]float64{}
	var written float64
	for _, class := range storeClasses {
		cs := c.class[class]
		if cs == nil {
			cs = &classStats{}
		}
		out["storage."+class+".ops"] = float64(cs.ops) / rounds
		out["storage."+class+".bytes_written"] = float64(cs.bytesWritten) / rounds
		out["storage."+class+".bytes_read"] = float64(cs.bytesRead) / rounds
		out["storage."+class+".busy_ms"] = float64(cs.busy) / float64(time.Millisecond) / rounds
		written += float64(cs.bytesWritten) / rounds
	}
	for _, op := range []string{"append", "putif", "get"} {
		out["storage."+op+"_us_p50"] = median(c.lat[op])
	}
	if userBytes > 0 {
		out["storage.bytes_written_per_user_byte"] = written / userBytes
	}
	return out
}

// busy is the total time callers spent inside the store.
func (c *storeCounts) busy() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	var d time.Duration
	for _, cs := range c.class {
		d += cs.busy
	}
	return d
}
