package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"time"
)

// sizes are the fixed input sizes of the four workloads. They are part
// of the benchmark: a run at other sizes is not comparable.
type sizes struct {
	Workloads      []string // Table I workloads paper-pipeline runs and query-readback stores
	StreamSteps    int      // simulated steps of collect-stream's recording
	StreamSessions int      // sessions per agent per round
	SmallSteps     int      // simulated steps of the recording collect-small cuts from
	SmallRecords   int      // records per collect-small session
	SmallSessions  int      // sessions per agent per round
	PipelineSteps  int      // simulated steps per paper-pipeline run
	QuerySteps     int      // simulated steps per stored query-readback run
	QuerySeeds     int      // stored runs per (workload, TPU generation)
	PingSamples    int      // idle pings per agent (traced run)
	ReplayReps     int      // passes of each per-layer replay (traced run)
	MinSetups      int      // set-ups per run; setup_s is their median
	MaxSetups      int
	SetupBudgetSec float64 // keep setting up (to MaxSetups) while below this
}

var fullSizes = sizes{
	Workloads:   []string{"bert-mrpc", "resnet-imagenet", "dcgan-mnist"},
	StreamSteps: 4000, StreamSessions: 1,
	SmallSteps: 500, SmallRecords: 2, SmallSessions: 32,
	PipelineSteps: 300,
	QuerySteps:    1000, QuerySeeds: 2,
	PingSamples: 200, ReplayReps: 5,
	MinSetups: 3, MaxSetups: 15, SetupBudgetSec: 2.5,
}

// env is what one set-up and the rounds after it run in.
type env struct {
	seed uint64
	sz   sizes
	dir  string    // fresh scratch directory, removed by the caller
	rec  *recorder // set-up spans; the rounds' are merged in
	// traced turns on span lists and the three below: the registry the
	// system's own instruments publish to, and the store and connection
	// decorators. They live as long as the section, across its rounds.
	traced    bool
	reg       *sutRegistry
	store     *storeCounts
	wire      *connCounts
	wrapStore func(sutStore) sutStore // test fault injection
}

// roundResult is what one round reports. Every round of a workload does
// the same work on the same inputs.
type roundResult struct {
	stat      roundStat
	work      float64 // steps or ops completed
	attempted int
	stored    float64 // bytes at rest after the round
	user      float64 // record wire bytes behind them
	failures
}

type state interface{ close() }

type workload struct {
	def     workloadDef
	call    string // span of the call whose median latency is call_p50_ms
	clients int
	setup   func(*env) (state, error)
	// round runs one fixed unit of work, timed, and checks its outputs.
	round func(e *env, st state, rec *recorder, n int) (*roundResult, error)
	// layers adds what a traced section knows beyond its spans.
	layers func(e *env, st state, sec *section) (map[string]float64, error)
}

func workloads() []workload {
	return []workload{
		{workloadDefs[0], "fleet.put", clients, setupCollect(false), roundCollect, layersCollect},
		{workloadDefs[1], "fleet.put", clients, setupCollect(true), roundCollect, layersCollect},
		{workloadDefs[2], "analyzer.report", 1, setupPipeline, roundPipeline, layersPipeline},
		{workloadDefs[3], "query.get", clients, setupQuery, roundQuery, layersQuery},
	}
}

// inputSeed spreads the run seed over the simulator seeds of one run's
// recordings; 0 would select each workload's built-in seed.
func inputSeed(seed uint64, k int) uint64 { return seed*1000 + uint64(k) + 1 }

// ---- collect-stream and collect-small --------------------------------

type collectState struct {
	rec      *recording
	sessions int // per agent per round
	opts     collectorOptions
}

func (s *collectState) close() {}

// setupCollect makes the recording and brings a collector up once, with
// both agents dialled, so that work a change moves into start-up shows
// in setup_s. Each round starts its own collector the same way.
func setupCollect(small bool) func(*env) (state, error) {
	return func(e *env) (state, error) {
		st := &collectState{sessions: e.sz.StreamSessions,
			opts: collectorOptions{wrapStore: e.wrapStore, counts: e.store, reg: e.reg}}
		steps := e.sz.StreamSteps
		if small {
			// One compaction pass per round, started by its last finalize
			// and drained on the clock: passes that overlap later sessions
			// retry manifest updates a varying number of times, and no two
			// rounds would do the same work.
			steps, st.sessions, st.opts.compactEvery = e.sz.SmallSteps, e.sz.SmallSessions, clients*e.sz.SmallSessions
		}
		var err error
		if st.rec, err = makeRecording(e.rec, nil, "resnet-imagenet", false, steps, inputSeed(e.seed, 0)); err != nil {
			return nil, err
		}
		if small {
			st.rec = st.rec.prefix(e.sz.SmallRecords)
		}
		site, err := openSite(filepath.Join(e.dir, "setup"), st.opts, nil, nil)
		if err != nil {
			return nil, err
		}
		site.close()
		return st, nil
	}
}

// site is one collector with the benchmark's agents dialled and an
// independent reader on its session logs.
type site struct {
	coll   *collector
	agents []*agent
	logs   *logReader
}

func openSite(dir string, opts collectorOptions, reg *sutRegistry, wire *connCounts) (*site, error) {
	s := &site{}
	var err error
	if s.coll, err = startCollector(dir, opts); err != nil {
		return nil, err
	}
	for i := 0; i < clients; i++ {
		a, err := dialAgent(s.coll.addr(), reg, wire)
		if err != nil {
			s.close()
			return nil, err
		}
		s.agents = append(s.agents, a)
		if err := a.ping(); err != nil { // dials the connection
			s.close()
			return nil, err
		}
	}
	if s.logs, err = openLogReader(dir); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// close stops the agents, then the collector once its background work
// has drained; the directory stays for a reader.
func (s *site) close() {
	for _, a := range s.agents {
		a.close()
	}
	if s.logs != nil {
		s.logs.close()
	}
	s.coll.stop()
}

// samplePings times round trips to an idle collector, over a connection
// of its own so that the rounds' rpc counts stay exact.
func samplePings(addr string, rec *recorder, n int) error {
	a, err := dialAgent(addr, nil, nil)
	if err != nil {
		return err
	}
	defer a.close()
	for i := 0; i <= n; i++ {
		o := rec.begin()
		if err := a.ping(); err != nil {
			return err
		}
		if i > 0 { // the first ping dials
			rec.end(o, "rpc.ping", 0, 0)
		}
	}
	return nil
}

// agentResult is one agent goroutine's tally.
type agentResult struct {
	rec       *recorder
	acked     map[string]int // run ID -> records the collector acked
	steps     int
	bytes     int
	attempted int
	failures
	err error
}

// runAgent streams the round's sessions back to back: Open, one Put per
// record, Finalize. Before every Finalize the session's durable log is
// read through an independent store handle: acked must already mean
// durable.
func runAgent(id, round int, a *agent, st *collectState, logs *logReader, epoch time.Time, traced bool) *agentResult {
	res := &agentResult{rec: newRecorder(id+1, epoch, traced), acked: map[string]int{}}
	r := st.rec
	for n := 0; n < st.sessions; n++ {
		runID := fmt.Sprintf("round%d-agent%d-%04d", round, id, n)
		op := int64(round+1)<<40 | int64(id+1)<<32 | int64(n)
		whole := res.rec.begin()

		o := res.rec.begin()
		sess, err := a.open(runID, "bench", r)
		res.rec.end(o, "fleet.open", whole.id, op)
		res.attempted++
		if err != nil {
			res.err = fmt.Errorf("open %s: %w", runID, err)
			return res
		}
		for i, data := range r.records {
			o = res.rec.begin()
			err := sess.put(i, data)
			res.rec.end(o, "fleet.put", whole.id, op)
			res.attempted++
			if err != nil {
				res.err = fmt.Errorf("put %s #%d: %w", runID, i, err)
				return res
			}
			res.bytes += len(data)
		}
		sent := len(r.records)

		durable, err := logs.durableRecords(sess.token())
		res.check(err == nil && durable == sent,
			"%s: %d records acked but %d in the durable log (%v)", runID, sent, durable, err)

		o = res.rec.begin()
		archived, err := sess.finalize()
		res.rec.end(o, "fleet.finalize", whole.id, op)
		res.attempted++
		if err != nil {
			res.err = fmt.Errorf("finalize %s: %w", runID, err)
			return res
		}
		res.check(archived == int64(sent), "%s: finalize archived %d of %d records", runID, archived, sent)
		res.rec.end(whole, "session", 0, op)
		res.acked[runID] = sent
		res.steps += r.steps()
	}
	return res
}

// roundCollect brings up a fresh collector, lets both agents stream their
// sessions, waits for the collector's background compaction to drain —
// that is the timed part — and then checks, through handles of its own,
// that nothing acked was lost.
func roundCollect(e *env, s state, rec *recorder, n int) (*roundResult, error) {
	st := s.(*collectState)
	out := &roundResult{}
	dir := filepath.Join(e.dir, fmt.Sprintf("round-%d", n))
	defer os.RemoveAll(dir)
	site, err := openSite(dir, st.opts, e.reg, e.wire)
	if err != nil {
		return nil, err
	}
	closed := false
	defer func() {
		if !closed {
			site.close()
		}
	}()

	if e.traced && n == 0 {
		if err := samplePings(site.coll.addr(), rec, e.sz.PingSamples); err != nil {
			return nil, err
		}
	}

	results := make([]*agentResult, len(site.agents))
	var wg sync.WaitGroup
	t := startTimer()
	for i := range site.agents {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = runAgent(i, n, site.agents[i], st, site.logs, rec.epoch, e.traced)
		}(i)
	}
	wg.Wait()
	site.coll.drain()
	out.stat = t.stop()

	acked := map[string]int{}
	for _, r := range results {
		if r.err != nil {
			return nil, r.err
		}
		rec.merge(r.rec)
		out.failures = append(out.failures, r.failures...)
		out.attempted += r.attempted
		out.work += float64(r.steps)
		out.user += float64(r.bytes)
		for id, n := range r.acked {
			acked[id] = n
		}
	}

	site.close()
	closed = true
	stored, err := dirBytes(dir)
	if err != nil {
		return nil, err
	}
	out.stored = float64(stored)

	rd, err := openReader(dir, nil, nil)
	if err != nil {
		return nil, err
	}
	defer rd.close()
	listed, err := rd.list("")
	if err != nil {
		return nil, err
	}
	out.check(len(listed) == len(acked), "zero loss: %d runs acked, %d listed", len(acked), len(listed))
	for _, ref := range listed {
		n, ok := acked[ref.id]
		out.check(ok && int64(n) == ref.records, "zero loss: run %s listed with %d records, acked %d", ref.id, ref.records, n)
	}
	o := rec.begin()
	issues, err := rd.fsck()
	rec.end(o, "repo.fsck", 0, 0)
	if err != nil {
		return nil, err
	}
	out.check(len(issues) == 0, "fsck: %v", issues)
	return out, nil
}

func layersCollect(e *env, s state, sec *section) (map[string]float64, error) {
	st := s.(*collectState)
	rounds := float64(sec.all)
	v := perRound(obsMetrics(e.reg), rounds)
	sent := float64(clients * st.sessions * len(st.rec.records))
	sec.check(v["fleet.records_in"] == sent && v["fleet.records_archived"] == sent,
		"zero loss: %v records sent per round, fleet counted %v in and %v archived",
		sent, v["fleet.records_in"], v["fleet.records_archived"])
	v["profiler.bytes"] = float64(st.rec.wireBytes())
	for k, x := range e.store.metrics(sec.user, rounds) {
		v[k] = x
	}
	v["rpc.bytes_out"] = float64(e.wire.bytesOut.Load()) / rounds
	v["rpc.bytes_in"] = float64(e.wire.bytesIn.Load()) / rounds
	v["rpc.frames"] = float64(e.wire.frames.Load()) / rounds
	replay, err := replayLayers(st.rec, e.sz.ReplayReps)
	if err != nil {
		return nil, err
	}
	for k, x := range replay {
		v[k] = x
	}
	puts := float64(len(e.rec.samples["fleet.put"]))
	putP50, ping := median(e.rec.samples["fleet.put"]), median(e.rec.samples["rpc.ping"])
	logBusyPerPut := v["storage.sessionlog.busy_ms"] * 1000 * rounds / puts
	v["fleet.server_self_us_per_put"] = putP50 - ping - logBusyPerPut
	if b := v["repo.ingest_batches"]; b > 0 {
		v["repo.ingest_runs_per_batch"] = v["repo.ingest_runs"] / b
	}
	// Blocking path of a collect client: wire round trips, time inside
	// the store, and the server-side codec, stream and OLS work the
	// replays and stage histograms price per step.
	perStepNs := 2*replay["trace.unmarshal_ns_per_step"] + replay["stream.feed_ns_per_step"] + replay["archive.encode_ns_per_step"]
	sec.attributed = rounds * (v["rpc.calls"]*ping + sec.work*perStepNs/1000 + v["analyzer.ols_us"])
	sec.attributed += float64(e.store.busy()) / float64(time.Microsecond)
	return v, nil
}

// perRound divides a section's totals by the rounds that produced them.
func perRound(totals map[string]float64, rounds float64) map[string]float64 {
	for k := range totals {
		totals[k] /= rounds
	}
	return totals
}

// ---- paper-pipeline ---------------------------------------------------

type pipelineState struct {
	digests    map[string]string // workload/generation -> phase digest
	minSpeedup float64
	vizBytes   int
}

func (s *pipelineState) close() {}

// setupPipeline is a user's first run: an in-memory repository and one
// whole pipeline, lazy initialisation included.
func setupPipeline(e *env) (state, error) {
	m, err := newMemRepo(nil)
	if err != nil {
		return nil, err
	}
	_, err = runPipeline(e.rec, nil, m, e.sz.Workloads[0], false, e.sz.PipelineSteps, inputSeed(e.seed, 0), "warm-up", 0, 0)
	return &pipelineState{digests: map[string]string{}}, err
}

// roundPipeline takes each of the three workloads through Figure 2 once:
// both TPU generations simulated, profiled, analyzed three ways, rendered
// and archived, then diffed, then the naive pipeline tuned.
func roundPipeline(e *env, s state, rec *recorder, n int) (*roundResult, error) {
	st := s.(*pipelineState)
	out := &roundResult{}
	m, err := newMemRepo(e.reg)
	if err != nil {
		return nil, err
	}
	t := startTimer()
	for wi, wl := range e.sz.Workloads {
		op := int64(n+1)<<32 | int64(wi+1)
		item := rec.begin()
		var runs [2]pipelineRun
		var ids [2]string
		for v := 0; v < 2; v++ {
			ids[v] = fmt.Sprintf("%s-v%d", wl, v+2)
			run, err := runPipeline(rec, e.reg, m, wl, v == 1, e.sz.PipelineSteps, inputSeed(e.seed, wi), ids[v], item.id, op)
			out.attempted++
			if err != nil {
				return nil, fmt.Errorf("pipeline %s: %w", ids[v], err)
			}
			runs[v] = run
			out.work += float64(run.steps)
			out.user += float64(run.wireBytes)
			st.vizBytes += run.vizBytes
			if prev, seen := st.digests[ids[v]]; seen {
				out.check(prev == run.digest, "%s: phase digest %s differs from an earlier round's %s", ids[v], run.digest, prev)
			}
			st.digests[ids[v]] = run.digest
		}
		out.check(runs[1].idle >= runs[0].idle, "%s: TPUv3 idle %.4f below TPUv2 idle %.4f (Observation 5)", wl, runs[1].idle, runs[0].idle)

		o := rec.begin()
		err := m.compare(ids[0], ids[1])
		rec.end(o, "repo.compare", item.id, op)
		out.attempted++
		if err != nil {
			return nil, fmt.Errorf("compare %s: %w", wl, err)
		}
		o = rec.begin()
		speedup, err := optimize(e.reg, wl, e.sz.PipelineSteps, inputSeed(e.seed, wi))
		rec.end(o, "optimizer.tune", item.id, op)
		out.attempted++
		if err != nil {
			return nil, fmt.Errorf("optimize %s: %w", wl, err)
		}
		out.check(speedup >= 1, "%s: optimizer measured speedup %.3f < 1", wl, speedup)
		if st.minSpeedup == 0 || speedup < st.minSpeedup {
			st.minSpeedup = speedup
		}
		rec.end(item, "pipeline.item", 0, op)
	}
	out.stat = t.stop()
	out.stored = float64(m.storedBytes())
	return out, nil
}

func layersPipeline(e *env, s state, sec *section) (map[string]float64, error) {
	st := s.(*pipelineState)
	rounds := float64(sec.all)
	v := perRound(obsMetrics(e.reg), rounds)
	v["optimizer.measured_speedup_min"] = st.minSpeedup
	v["viz.bytes_out"] = float64(st.vizBytes) / rounds
	v["profiler.bytes"] = sec.user
	for _, name := range []string{"estimator.train", "profiler.capture", "analyzer.report", "viz.trace", "viz.csv", "repo.save", "repo.compare", "optimizer.tune"} {
		sec.attributed += e.rec.sum(name)
	}
	return v, nil
}

// ---- query-readback ---------------------------------------------------

type storedRun struct {
	ref        runRef
	steps      int
	boundaries []int64 // batch OLS boundaries watch must reproduce
	recording  *recording
}

// queryOp is one operation of the readers' plan.
type queryOp struct {
	kind string
	run  int // index into runs
	pair int // index into pairs (compare)
}

type queryState struct {
	rd          *reader
	runs        []storedRun
	perWorkload int         // stored runs of each workload
	pairs       [][2]string // TPUv2/TPUv3 runs of one workload and seed
	plan        [][]queryOp // per reader; the same every round
	user        float64
	stored      float64
	watchSteps  int64
}

func (s *queryState) close() {
	if s.rd != nil {
		s.rd.close()
	}
}

// querySpan names each op's span: list and compare are single repo
// calls; get and watch are composites with repo.get, archive.records
// and stream.replay children.
var querySpan = map[string]string{"list": "repo.list", "get": "query.get", "compare": "repo.compare", "watch": "query.watch"}

// setupQuery populates a repository the way production does — agents
// stream recordings to a collector, which analyzes, archives and indexes
// them at finalize — packs one workload, stops the collector, opens the
// directory as a reader does and orders the readers' plan by the seed.
func setupQuery(e *env) (state, error) {
	st := &queryState{perWorkload: 2 * e.sz.QuerySeeds}
	dir := filepath.Join(e.dir, "repo")
	coll, err := startCollector(dir, collectorOptions{})
	if err != nil {
		return nil, err
	}
	a, err := dialAgent(coll.addr(), nil, nil)
	if err != nil {
		coll.stop()
		return nil, err
	}
	populate := func() error {
		for wi, wl := range e.sz.Workloads {
			for k := 0; k < e.sz.QuerySeeds; k++ {
				var pair [2]string
				for v := 0; v < 2; v++ {
					r, err := makeRecording(e.rec, nil, wl, v == 1, e.sz.QuerySteps, inputSeed(e.seed, wi*e.sz.QuerySeeds+k))
					if err != nil {
						return err
					}
					id := fmt.Sprintf("%s-v%d-seed%d", wl, v+2, k)
					sess, err := a.open(id, "bench", r)
					if err != nil {
						return err
					}
					for i, data := range r.records {
						if err := sess.put(i, data); err != nil {
							return err
						}
					}
					if _, err := sess.finalize(); err != nil {
						return err
					}
					pair[v] = id
					st.user += float64(r.wireBytes())
					st.runs = append(st.runs, storedRun{
						ref:   runRef{id: id, workload: wl, version: r.version, records: int64(len(r.records))},
						steps: r.steps(), recording: r,
					})
				}
				st.pairs = append(st.pairs, pair)
			}
		}
		return coll.compact(e.sz.Workloads[len(e.sz.Workloads)-1])
	}
	err = populate()
	a.close()
	coll.stop()
	if err != nil {
		return nil, err
	}
	stored, err := dirBytes(dir)
	if err != nil {
		return nil, err
	}
	st.stored = float64(stored)
	if st.rd, err = openReader(dir, e.store, e.reg); err != nil {
		return nil, err
	}
	for i := range st.runs {
		if st.runs[i].boundaries, err = st.rd.batchBoundaries(st.runs[i].ref.id); err != nil {
			st.close()
			return nil, err
		}
	}

	// Every reader's plan holds the same operations whatever the seed, so
	// a round costs the same on every seed: each stored run read twice
	// and replayed once, each pair diffed twice, each workload listed as
	// often as it has runs. The seed only orders them.
	var plan []queryOp
	for r := range st.runs {
		plan = append(plan, queryOp{"get", r, 0}, queryOp{"get", r, 0}, queryOp{"watch", r, 0}, queryOp{"list", r, 0})
	}
	for p := range st.pairs {
		plan = append(plan, queryOp{"compare", 0, p}, queryOp{"compare", 0, p})
	}
	rng := rand.New(rand.NewSource(int64(e.seed)))
	st.plan = make([][]queryOp, clients)
	for c := range st.plan {
		st.plan[c] = append([]queryOp(nil), plan...)
		rng.Shuffle(len(plan), func(i, j int) { st.plan[c][i], st.plan[c][j] = st.plan[c][j], st.plan[c][i] })
	}
	return st, nil
}

type readerResult struct {
	rec *recorder
	failures
	watchSteps int64
	err        error
}

// runReader issues its plan back to back and checks every answer against
// what set-up stored.
func runReader(id, round int, st *queryState, epoch time.Time, traced bool) *readerResult {
	res := &readerResult{rec: newRecorder(id+1, epoch, traced)}
	for n, q := range st.plan[id] {
		op := int64(round+1)<<40 | int64(id+1)<<32 | int64(n)
		run := st.runs[q.run]
		o := res.rec.begin()
		switch q.kind {
		case "list":
			refs, err := st.rd.list(run.ref.workload)
			if err != nil {
				res.err = err
				return res
			}
			res.check(len(refs) == st.perWorkload, "list %s: %d runs, want %d", run.ref.workload, len(refs), st.perWorkload)
		case "get":
			records, steps, err := st.rd.get(res.rec, o.id, op, run.ref.id)
			if err != nil {
				res.err = err
				return res
			}
			res.check(int64(records) == run.ref.records && steps == run.steps,
				"get %s: decoded %d records / %d steps, stored %d / %d", run.ref.id, records, steps, run.ref.records, run.steps)
		case "compare":
			pair := st.pairs[q.pair]
			matched, err := st.rd.compare(pair[0], pair[1])
			if err != nil {
				res.err = err
				return res
			}
			res.check(matched > 0, "compare %s %s: no phases matched", pair[0], pair[1])
		case "watch":
			boundaries, steps, err := st.rd.watch(res.rec, o.id, op, run.ref.id)
			if err != nil {
				res.err = err
				return res
			}
			res.check(reflect.DeepEqual(boundaries, run.boundaries),
				"watch %s: stream boundaries %v, batch OLS %v", run.ref.id, boundaries, run.boundaries)
			res.watchSteps += steps
		}
		res.rec.end(o, querySpan[q.kind], 0, op)
	}
	return res
}

func roundQuery(e *env, s state, rec *recorder, n int) (*roundResult, error) {
	st := s.(*queryState)
	out := &roundResult{user: st.user, stored: st.stored}
	results := make([]*readerResult, clients)
	var wg sync.WaitGroup
	t := startTimer()
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = runReader(i, n, st, rec.epoch, e.traced)
		}(i)
	}
	wg.Wait()
	out.stat = t.stop()
	for i, r := range results {
		if r.err != nil {
			return nil, r.err
		}
		rec.merge(r.rec)
		out.failures = append(out.failures, r.failures...)
		out.work += float64(len(st.plan[i]))
		st.watchSteps += r.watchSteps
	}
	out.attempted = int(out.work)
	return out, nil
}

func layersQuery(e *env, s state, sec *section) (map[string]float64, error) {
	st := s.(*queryState)
	rounds := float64(sec.all)
	v := perRound(obsMetrics(e.reg), rounds)
	v["profiler.bytes"] = st.user
	for k, x := range e.store.metrics(0, rounds) {
		v[k] = x
	}
	if t := e.rec.sum("query.watch"); t > 0 {
		v["stream.watch_steps_per_s"] = float64(st.watchSteps) / (t / 1e6)
	}
	replay, err := replayLayers(st.runs[0].recording, e.sz.ReplayReps)
	if err != nil {
		return nil, err
	}
	for k, x := range replay {
		v[k] = x
	}
	for _, name := range []string{"repo.list", "repo.compare", "repo.get", "archive.records", "stream.replay"} {
		sec.attributed += e.rec.sum(name)
	}
	return v, nil
}

// scratchDir makes a fresh directory for one set-up under root.
func scratchDir(root string) (string, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(root, "run-")
}
