// Command tpupoint runs a workload on the simulated Cloud TPU under the
// TPUPoint profiler, analyzes the profile into phases, and writes the
// chrome://tracing and CSV artifacts.
//
// Usage:
//
//	tpupoint -workload resnet-imagenet -version 3 -algo ols -out ./out
//	tpupoint -list
//	tpupoint -workload qanet-squad -optimize
//
// Profile repository (multi-run archive + cross-run diff):
//
//	tpupoint -workload resnet-imagenet -archive ./runs -run-id base
//	tpupoint -workload resnet-imagenet -archive ./runs -run-id tuned -version 3
//	tpupoint -archive ./runs runs list
//	tpupoint -archive ./runs runs diff base tuned
//	tpupoint -archive ./runs -keep 2 runs gc
//	tpupoint -archive ./runs runs fsck -repair     (rebuild, re-adopt or quarantine what fsck finds)
//	tpupoint -archive ./runs runs compact          (merge small archives into packs)
//
// Fleet collection (profilers stream records to a central server):
//
//	tpupoint -collect-serve :8471 -archive ./runs -max-sessions 16
//	tpupoint -workload bert-squad -collect 127.0.0.1:8471 -run-id vm0
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"time"

	tpupoint "repro"
	"repro/internal/cliflag"
	"repro/internal/core/analyzer"
	"repro/internal/core/profiler"
	"repro/internal/estimator"
	"repro/internal/obs"
	"repro/internal/repo"
	"repro/internal/rpc"
	"repro/internal/storage"
	"repro/internal/trace"
	"repro/internal/workloads"
)

func main() {
	err := run(os.Args[1:], os.Stdout, os.Stderr)
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
	case errors.Is(err, errUsage):
		os.Exit(2) // the flag set has printed the error and the usage
	default:
		fmt.Fprintln(os.Stderr, "tpupoint:", err)
		os.Exit(1)
	}
}

// errUsage marks a command line the flag set refused; main exits 2 on
// it, as flag.ExitOnError does.
var errUsage = errors.New("bad command line")

// run is the tpupoint command: it parses args, prints its report to
// stdout and the flag set's complaints and usage to stderr, and
// returns what failed (flag.ErrHelp for -h). A -metrics file is written
// on the way out, failed runs included.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("tpupoint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		list     = fs.Bool("list", false, "list available workloads and exit")
		workload = fs.String("workload", "", "workload name (see -list)")
		version  = fs.Int("version", 2, "TPU generation: 2 or 3")
		steps    = fs.Int("steps", 0, "override the workload's train-step count")
		algo     = fs.String("algo", "ols", "phase algorithm: ols, kmeans, dbscan")
		outDir   = fs.String("out", "", "directory for trace.json and report.csv (omit to skip)")
		naive    = fs.Bool("naive", false, "use the untuned (naive) input pipeline")
		small    = fs.Bool("small", false, "use the reduced-dataset variant")
		optimize = fs.Bool("optimize", false, "run TPUPoint-Optimizer instead of profiling")
		serve    = fs.String("serve", "", "run the workload and serve its TPU profile service at this TCP address (for tpuprof -addr)")
		analyze  = fs.String("analyze", "", "offline mode: analyze profile records previously exported to this directory")
		export   = fs.String("export", "", "after profiling, export the recorded profiles to this directory (input for -analyze)")
		metrics  = fs.String("metrics", "", "observability sink: a host:port serves live JSON snapshots over HTTP, anything else is a file the final snapshot is written to")

		archiveDir  = fs.String("archive", "", "profile repository directory: archive the run there, or operate on it with the `runs` verbs")
		runID       = fs.String("run-id", "", "run identifier in the repository (default: <workload>-<nanos>)")
		label       = fs.String("label", "", "free-form run label recorded in the archive (e.g. an experiment tag)")
		csvOut      = fs.Bool("csv", false, "runs diff: emit machine-readable CSV instead of the table")
		keep        = fs.Int("keep", 3, "runs gc: newest runs to keep per workload")
		collect     = fs.String("collect", "", "stream profile records to the fleet collection server(s) at this comma-separated address list instead of the local bucket (multiple addresses = a replica set; the client follows redirects and fails over)")
		collectSrv  = fs.String("collect-serve", "", "run a fleet collection server at this TCP address writing into -archive")
		maxSessions = fs.Int("max-sessions", 0, "collection server: concurrent session cap (0 = default)")
		maxConns    = fs.Int("max-conns", 0, "served RPC endpoints: connection cap; excess connections get a transient busy error (0 = unlimited)")
		shards      = fs.Int("shards", 0, "manifest shard count for the profile repository: sizes a fresh repository; an existing repository keeps its recorded count; 0 = 1 shard when fresh (4 per replica with -replicas > 1, where a count other than the recorded one is refused)")
		compactEach = fs.Int("compact-every", 0, "collection server: run a background compaction pass every N finalized sessions (0 = never; on demand via `runs compact`)")

		replicaID = fs.Int("replica-id", 0, "collection server: this replica's index in the replica set (with -replicas > 1)")
		replicas  = fs.Int("replicas", 1, "collection server: replica-set size (1 = standalone, the same server as the sole writer of every shard); each replica owns the manifest shards s with s %% replicas == replica-id and redirects misplaced sessions to their owner")
		peersF    = fs.String("peers", "", "collection server: comma-separated replica endpoints in replica-id order (entry i is replica i's address), used to redirect misplaced sessions and to probe fleet readiness")
	)
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return err
	} else if err != nil {
		return fmt.Errorf("%w: %v", errUsage, err)
	}

	var reg *obs.Registry
	health := obs.NewHealth()
	fleetView := obs.NewFleetView()
	if *metrics != "" {
		reg = obs.NewRegistry(0)
		flush, err := cliflag.MetricsSink("tpupoint", *metrics, stdout, reg, health, fleetView)
		if err != nil {
			return err
		}
		defer flush()
	}

	switch fs.Arg(0) {
	case "runs":
		return runsCmd(stdout, stderr, fs.Args()[1:], *archiveDir, *keep, *csvOut, *shards)
	case "watch":
		return watchCmd(stdout, stderr, fs.Args()[1:], *archiveDir)
	}

	if *collectSrv != "" {
		peers, err := cliflag.Endpoints(*peersF)
		if err != nil {
			return err
		}
		cfg := collectConfig{
			Addr: *collectSrv, Dir: *archiveDir,
			MaxSessions: *maxSessions, MaxConns: *maxConns,
			Shards: *shards, CompactEvery: *compactEach,
			ReplicaID: *replicaID, Replicas: *replicas, Peers: peers,
			Reg: reg, Health: health, Fleet: fleetView,
		}
		return collectServe(stdout, cfg)
	}

	if *analyze != "" {
		return analyzeDir(stdout, *analyze, *algo)
	}

	if *list {
		for _, name := range tpupoint.Workloads() {
			w, err := tpupoint.GetWorkload(name)
			if err != nil {
				return err
			}
			fmt.Fprintln(stdout, tpupoint.Describe(w))
		}
		return nil
	}
	if *workload == "" {
		return errors.New("missing -workload (try -list)")
	}
	ver := tpupoint.V2
	if *version == 3 {
		ver = tpupoint.V3
	}

	if *serve != "" {
		return serveProfile(stdout, *workload, ver, *steps, *serve, *maxConns)
	}

	if *optimize {
		res, err := tpupoint.Optimize(*workload, tpupoint.OptimizeOptions{
			Version: ver, Steps: *steps, Naive: *naive, Obs: reg,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "workload:  %s on %s\n", res.Workload, res.Version)
		fmt.Fprintf(stdout, "speedup:   measured %.3fx, projected %.3fx\n", res.MeasuredSpeedup, res.ProjectedSpeedup)
		fmt.Fprintf(stdout, "idle:      %.1f%% -> %.1f%%\n", 100*res.BaselineIdle, 100*res.OptimizedIdle)
		fmt.Fprintf(stdout, "mxu util:  %.1f%% -> %.1f%%\n", 100*res.BaselineMXU, 100*res.OptimizedMXU)
		fmt.Fprintf(stdout, "pipeline:  %v -> %v\n", res.InitialParams, res.FinalParams)
		for _, m := range res.Moves {
			verdict := "rejected"
			if m.Accepted {
				verdict = "accepted"
			}
			fmt.Fprintf(stdout, "  move %-14s %6d -> %-6d %s (%.0fus -> %.0fus)\n",
				m.Param, m.From, m.To, verdict, m.PeriodBefore, m.PeriodAfter)
		}
		if line := reg.Snapshot().SummaryLine(); line != "" {
			fmt.Fprintf(stdout, "run summary: %s speedup=%.3fx\n", line, res.MeasuredSpeedup)
		}
		return nil
	}

	s, err := tpupoint.NewSession(*workload, tpupoint.Options{
		Version: ver, Steps: *steps,
		NaivePipeline: *naive, SmallDataset: *small, Obs: reg,
	})
	if err != nil {
		return err
	}
	rid := *runID
	if rid == "" {
		rid = fmt.Sprintf("%s-%d", *workload, time.Now().UnixNano())
	}

	// A run with a repository streams its records into a collector
	// session, the one way a run becomes an archive: -collect reaches the
	// fleet collection server(s) over TCP, -archive an in-process fleet
	// over the directory. Only the rpc.Caller differs, and where the
	// archive is said to be: localDir is "" for a collection server.
	var caller rpc.Caller
	localDir := ""
	switch {
	case *collect != "":
		// -collect accepts a comma-separated replica set: the endpoint-set
		// client follows placement redirects to the run's owner and fails
		// over on transport errors, while the resilient session layer
		// resumes by durable token and resends the unacknowledged tail —
		// a replica crash costs a reconnect, never a record.
		endpoints, err := cliflag.Endpoints(*collect)
		if err != nil {
			return err
		}
		client, err := rpc.NewReconnectClient(rpc.ReconnectOptions{
			Endpoints: endpoints,
			Obs:       reg,
		})
		if err != nil {
			return err
		}
		defer client.Close()
		caller = client
	case *archiveDir != "":
		r, _, done, err := openRepoDir(stdout, *archiveDir, *shards, true)
		if err != nil {
			return err
		}
		defer done()
		srv := rpc.NewServer()
		defer srv.Close()
		repo.NewFleet(r, repo.FleetOptions{Obs: reg}).Register(srv)
		c := rpc.Pipe(srv)
		defer c.Close()
		caller, localDir = c, *archiveDir
	}

	var p *profiler.Profiler
	var session *repo.ResilientClient
	if caller != nil {
		spec := s.Workload().Spec()
		session, err = repo.OpenResilient(caller, repo.OpenRequest{
			RunID: rid, Workload: s.Workload().Name, Label: *label,
			HostSpec:   fmt.Sprintf("%dc %gMBps", spec.Cores, spec.ReadMBps),
			TPUVersion: ver.String(),
		})
		if err != nil {
			return err
		}
		if p, err = s.StartProfilerTo(session); err != nil {
			return errors.Join(err, session.Abort())
		}
	} else if p, err = s.StartProfiler(true); err != nil {
		return err
	}
	err = s.Train()
	records, stopErr := p.Stop()
	err = errors.Join(err, stopErr)
	var rep *tpupoint.Report
	if err == nil {
		rep, err = s.Analyze(records, tpupoint.Algorithm(*algo))
	}
	// A failed run leaves no session behind; a finished one is archived
	// before its report prints.
	var info repo.RunInfo
	if session != nil && err != nil {
		err = errors.Join(err, session.Abort())
	} else if session != nil {
		info, err = session.Finalize()
	}
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "workload:    %s (%s, %s)\n", s.Workload().Name, s.Workload().Model, ver)
	fmt.Fprintf(stdout, "sim time:    %.2fs over %d profiled steps (%d records)\n",
		s.TotalSeconds(), rep.Steps, len(records))
	fmt.Fprintf(stdout, "idle:        %.1f%%   mxu util: %.1f%%\n", 100*s.IdleFraction(), 100*s.MXUUtilization())
	fmt.Fprintf(stdout, "phases:      %d (%s); top-3 cover %.1f%%\n", len(rep.Phases), rep.Algorithm, 100*rep.CoverageTop3)
	fmt.Fprintf(stdout, "longest:     %d steps, checkpoint %q\n", len(rep.Longest.Steps), rep.Longest.Checkpoint)
	printTopOps(stdout, rep)
	if line := reg.Snapshot().SummaryLine(); line != "" {
		fmt.Fprintf(stdout, "run summary: %s\n", line)
	}
	if session != nil {
		printRunInfo(stdout, info, localDir)
	}

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return err
		}
		tracePath := filepath.Join(*outDir, "trace.json")
		if err := writeFile(tracePath, func(w io.Writer) error { return s.WriteTrace(w, rep, records) }); err != nil {
			return err
		}
		csvPath := filepath.Join(*outDir, "report.csv")
		if err := writeFile(csvPath, func(w io.Writer) error { return s.WriteCSV(w, rep) }); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "artifacts:   %s (open in chrome://tracing), %s\n", tracePath, csvPath)
	}
	if *export != "" {
		n, err := exportProfiles(records, *export)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "exported:    %d profile records to %s (re-analyze with -analyze)\n", n, *export)
	}
	return nil
}

// writeFile creates path and fills it with write.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// exportProfiles writes a run's records into a directory store at dir,
// one profiles/record-%06d object each, the names the profiler persists
// under: the input of -analyze. They come from the profiler, not the
// session bucket, which a streamed run never writes.
func exportProfiles(records []*tpupoint.ProfileRecord, dir string) (int, error) {
	store, err := storage.OpenDir(dir)
	if err != nil {
		return 0, err
	}
	defer store.Close()
	for i, rec := range records {
		if _, err := store.Put(fmt.Sprintf("profiles/record-%06d", i), trace.MarshalRecord(rec)); err != nil {
			return 0, err
		}
	}
	return len(records), nil
}

// analyzeDir runs TPUPoint-Analyzer over profile records exported to a
// directory (see exportProfiles) — post-execution analysis without
// rerunning the workload. A missing directory is an error, not created.
func analyzeDir(stdout io.Writer, dir, algo string) error {
	if _, err := os.Stat(dir); err != nil {
		return err
	}
	store, err := storage.OpenDir(dir)
	if err != nil {
		return err
	}
	defer store.Close()
	records, err := profiler.LoadRecords(store)
	if err != nil {
		return err
	}
	if len(records) == 0 {
		return fmt.Errorf("no profile records under %s", dir)
	}
	rep, err := analyzer.Analyze(dir, records, analyzer.Algorithm(algo), analyzer.Options{})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "offline analysis of %d records (%d steps) from %s\n", len(records), rep.Steps, dir)
	fmt.Fprintf(stdout, "phases: %d (%s); top-3 cover %.1f%%; idle %.1f%%, mxu %.1f%%\n",
		len(rep.Phases), rep.Algorithm, 100*rep.CoverageTop3, 100*rep.IdleFrac, 100*rep.MXUUtil)
	printTopOps(stdout, rep)
	return nil
}

// printTopOps lists the longest phase's top TPU and host operators.
func printTopOps(stdout io.Writer, rep *analyzer.Report) {
	fmt.Fprintln(stdout, "top TPU ops of the longest phase:")
	for _, op := range rep.TopTPUOps {
		fmt.Fprintf(stdout, "  %-32s x%-8d %8.1fms\n", op.Name, op.Count, op.Total.Milliseconds())
	}
	fmt.Fprintln(stdout, "top host ops of the longest phase:")
	for _, op := range rep.TopHostOps {
		fmt.Fprintf(stdout, "  %-32s x%-8d %8.1fms\n", op.Name, op.Count, op.Total.Milliseconds())
	}
}

// serveProfile trains the workload and keeps its profile service reachable
// over TCP, so external tools (tpuprof, a remote TPUPoint-Profiler) can
// request profile windows — the Cloud TPU deployment shape.
func serveProfile(stdout io.Writer, workload string, ver tpupoint.Version, steps int, addr string, maxConns int) error {
	w, err := workloads.Get(workload)
	if err != nil {
		return err
	}
	runner, err := estimator.New(w, estimator.Options{Version: ver, Steps: steps})
	if err != nil {
		return err
	}
	srv := rpc.NewServer()
	if maxConns > 0 {
		srv.SetConnLimit(maxConns)
	}
	runner.ProfileService().Register(srv)
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	defer l.Close()
	fmt.Fprintf(stdout, "serving %s profile service on %s (methods: tpu.Profile, tpu.Status)\n",
		w.Name, l.Addr())
	go srv.Serve(l)
	if err := runner.Run(); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "training finished: %.2fs simulated, idle %.1f%%, mxu %.1f%%\n",
		runner.TotalTime().Seconds(), 100*runner.IdleFraction(), 100*runner.MXUUtilization())
	fmt.Fprintln(stdout, "profile windows remain available; ctrl-c to stop")
	select {} // serve until interrupted
}
