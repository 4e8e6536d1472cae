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
	"flag"
	"fmt"
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
	"repro/internal/workloads"
)

func main() {
	var (
		list     = flag.Bool("list", false, "list available workloads and exit")
		workload = flag.String("workload", "", "workload name (see -list)")
		version  = flag.Int("version", 2, "TPU generation: 2 or 3")
		steps    = flag.Int("steps", 0, "override the workload's train-step count")
		algo     = flag.String("algo", "ols", "phase algorithm: ols, kmeans, dbscan")
		outDir   = flag.String("out", "", "directory for trace.json and report.csv (omit to skip)")
		naive    = flag.Bool("naive", false, "use the untuned (naive) input pipeline")
		small    = flag.Bool("small", false, "use the reduced-dataset variant")
		optimize = flag.Bool("optimize", false, "run TPUPoint-Optimizer instead of profiling")
		serve    = flag.String("serve", "", "run the workload and serve its TPU profile service at this TCP address (for tpuprof -addr)")
		analyze  = flag.String("analyze", "", "offline mode: analyze profile records previously exported to this directory")
		export   = flag.String("export", "", "after profiling, export the recorded profiles to this directory (input for -analyze)")
		par      = flag.Int("parallelism", 0, "analyzer worker pool size (0 = GOMAXPROCS, 1 = serial; results are identical for any value)")
		metrics  = flag.String("metrics", "", "observability sink: a host:port serves live JSON snapshots over HTTP, anything else is a file the final snapshot is written to")

		archiveDir  = flag.String("archive", "", "profile repository directory: archive the run there, or operate on it with the `runs` verbs")
		runID       = flag.String("run-id", "", "run identifier in the repository (default: <workload>-<nanos>)")
		label       = flag.String("label", "", "free-form run label recorded in the archive (e.g. an experiment tag)")
		csvOut      = flag.Bool("csv", false, "runs diff: emit machine-readable CSV instead of the table")
		keep        = flag.Int("keep", 3, "runs gc: newest runs to keep per workload")
		collect     = flag.String("collect", "", "stream profile records to the fleet collection server(s) at this comma-separated address list instead of the local bucket (multiple addresses = a replica set; the client follows redirects and fails over)")
		collectSrv  = flag.String("collect-serve", "", "run a fleet collection server at this TCP address writing into -archive")
		maxSessions = flag.Int("max-sessions", 0, "collection server: concurrent session cap (0 = default)")
		maxConns    = flag.Int("max-conns", 0, "served RPC endpoints: connection cap; excess connections get a transient busy error (0 = unlimited)")
		shards      = flag.Int("shards", 0, "manifest shard count for the profile repository: sizes a fresh repository; an existing repository keeps its recorded count; 0 = 1 shard when fresh (4 per replica with -replicas > 1, where a count other than the recorded one is refused)")
		compactEach = flag.Int("compact-every", 0, "collection server: run a background compaction pass every N finalized sessions (0 = never; on demand via `runs compact`)")

		replicaID = flag.Int("replica-id", 0, "collection server: this replica's index in the replica set (with -replicas > 1)")
		replicas  = flag.Int("replicas", 1, "collection server: replica-set size (1 = standalone, the same server as the sole writer of every shard); each replica owns the manifest shards s with s %% replicas == replica-id and redirects misplaced sessions to their owner")
		peersF    = flag.String("peers", "", "collection server: comma-separated replica endpoints in replica-id order (entry i is replica i's address), used to redirect misplaced sessions and to probe fleet readiness")
	)
	flag.Parse()

	var reg *obs.Registry
	health := obs.NewHealth()
	fleetView := obs.NewFleetView()
	flush := func() {}
	if *metrics != "" {
		reg = obs.NewRegistry(0)
		var err error
		if flush, err = cliflag.MetricsSink("tpupoint", *metrics, reg, health, fleetView); err != nil {
			fatal(err)
		}
		defer flush()
	}

	if args := flag.Args(); len(args) > 0 && args[0] == "runs" {
		if err := runsCmd(args[1:], *archiveDir, *keep, *csvOut, *shards); err != nil {
			fatal(err)
		}
		return
	}

	if args := flag.Args(); len(args) > 0 && args[0] == "watch" {
		if err := watchCmd(args[1:], *archiveDir); err != nil {
			fatal(err)
		}
		return
	}

	if *collectSrv != "" {
		peers, err := cliflag.Endpoints(*peersF)
		if err != nil {
			fatal(err)
		}
		cfg := collectConfig{
			Addr: *collectSrv, Dir: *archiveDir,
			MaxSessions: *maxSessions, MaxConns: *maxConns,
			Shards: *shards, CompactEvery: *compactEach,
			ReplicaID: *replicaID, Replicas: *replicas, Peers: peers,
			Reg: reg, Health: health, Fleet: fleetView,
		}
		if err := collectServe(cfg); err != nil {
			fatal(err)
		}
		return
	}

	if *analyze != "" {
		if err := analyzeDir(*analyze, *algo, *par); err != nil {
			fatal(err)
		}
		return
	}

	if *list {
		for _, name := range tpupoint.Workloads() {
			w, err := tpupoint.GetWorkload(name)
			if err != nil {
				fatal(err)
			}
			fmt.Println(tpupoint.Describe(w))
		}
		return
	}
	if *workload == "" {
		fatal(fmt.Errorf("missing -workload (try -list)"))
	}
	ver := tpupoint.V2
	if *version == 3 {
		ver = tpupoint.V3
	}

	if *serve != "" {
		if err := serveProfile(*workload, ver, *steps, *serve, *maxConns); err != nil {
			fatal(err)
		}
		return
	}

	if *optimize {
		res, err := tpupoint.Optimize(*workload, tpupoint.OptimizeOptions{
			Version: ver, Steps: *steps, Naive: *naive, Obs: reg,
		})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("workload:  %s on %s\n", res.Workload, res.Version)
		fmt.Printf("speedup:   measured %.3fx, projected %.3fx\n", res.MeasuredSpeedup, res.ProjectedSpeedup)
		fmt.Printf("idle:      %.1f%% -> %.1f%%\n", 100*res.BaselineIdle, 100*res.OptimizedIdle)
		fmt.Printf("mxu util:  %.1f%% -> %.1f%%\n", 100*res.BaselineMXU, 100*res.OptimizedMXU)
		fmt.Printf("pipeline:  %v -> %v\n", res.InitialParams, res.FinalParams)
		for _, m := range res.Moves {
			verdict := "rejected"
			if m.Accepted {
				verdict = "accepted"
			}
			fmt.Printf("  move %-14s %6d -> %-6d %s (%.0fus -> %.0fus)\n",
				m.Param, m.From, m.To, verdict, m.PeriodBefore, m.PeriodAfter)
		}
		if line := reg.Snapshot().SummaryLine(); line != "" {
			fmt.Printf("run summary: %s speedup=%.3fx\n", line, res.MeasuredSpeedup)
		}
		return
	}

	s, err := tpupoint.NewSession(*workload, tpupoint.Options{
		Version: ver, Steps: *steps,
		NaivePipeline: *naive, SmallDataset: *small,
		Parallelism: *par, Obs: reg,
	})
	if err != nil {
		fatal(err)
	}
	rid := *runID
	if rid == "" {
		rid = fmt.Sprintf("%s-%d", *workload, time.Now().UnixNano())
	}

	var p *profiler.Profiler
	var fc *repo.ResilientClient
	if *collect != "" {
		// Stream records to the fleet collection server(s) as they are
		// produced; the server archives and indexes them at finalize.
		// -collect accepts a comma-separated replica set: the endpoint-set
		// client follows placement redirects to the run's owner and fails
		// over on transport errors, while the resilient session layer
		// resumes by durable token and resends the unacknowledged tail —
		// a replica crash costs a reconnect, never a record.
		endpoints, err := cliflag.Endpoints(*collect)
		if err != nil {
			fatal(err)
		}
		client, err := rpc.NewReconnectClient(rpc.ReconnectOptions{
			Endpoints: endpoints,
			Obs:       reg,
		})
		if err != nil {
			fatal(err)
		}
		defer client.Close()
		spec := s.Workload().Spec()
		fc, err = repo.OpenResilient(client, repo.OpenRequest{
			RunID: rid, Workload: s.Workload().Name, Label: *label,
			HostSpec:   fmt.Sprintf("%dc %gMBps", spec.Cores, spec.ReadMBps),
			TPUVersion: ver.String(),
		})
		if err != nil {
			fatal(err)
		}
		if p, err = s.StartProfilerTo(fc); err != nil {
			fatal(err)
		}
	} else if p, err = s.StartProfiler(true); err != nil {
		fatal(err)
	}
	if err := s.Train(); err != nil {
		fatal(err)
	}
	records, err := p.Stop()
	if err != nil {
		fatal(err)
	}
	rep, err := s.Analyze(records, tpupoint.Algorithm(*algo))
	if err != nil {
		fatal(err)
	}

	fmt.Printf("workload:    %s (%s, %s)\n", s.Workload().Name, s.Workload().Model, ver)
	fmt.Printf("sim time:    %.2fs over %d profiled steps (%d records)\n",
		s.TotalSeconds(), rep.Steps, len(records))
	fmt.Printf("idle:        %.1f%%   mxu util: %.1f%%\n", 100*s.IdleFraction(), 100*s.MXUUtilization())
	fmt.Printf("phases:      %d (%s); top-3 cover %.1f%%\n", len(rep.Phases), rep.Algorithm, 100*rep.CoverageTop3)
	fmt.Printf("longest:     %d steps, checkpoint %q\n", len(rep.Longest.Steps), rep.Longest.Checkpoint)
	printTopOps(rep)
	if line := reg.Snapshot().SummaryLine(); line != "" {
		fmt.Printf("run summary: %s\n", line)
	}

	if fc != nil {
		info, err := fc.Finalize()
		if err != nil {
			fatal(err)
		}
		printRunInfo(os.Stdout, info, "")
	} else if *archiveDir != "" {
		r, _, done, err := openRepoDir(*archiveDir, *shards, true)
		if err != nil {
			fatal(err)
		}
		info, err := s.ArchiveRun(r, rid, *label, records, rep)
		done()
		if err != nil {
			fatal(err)
		}
		printRunInfo(os.Stdout, info, *archiveDir)
	}

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fatal(err)
		}
		tracePath := filepath.Join(*outDir, "trace.json")
		tf, err := os.Create(tracePath)
		if err != nil {
			fatal(err)
		}
		if err := s.WriteTrace(tf, rep, records); err != nil {
			fatal(err)
		}
		tf.Close()
		csvPath := filepath.Join(*outDir, "report.csv")
		cf, err := os.Create(csvPath)
		if err != nil {
			fatal(err)
		}
		if err := s.WriteCSV(cf, rep); err != nil {
			fatal(err)
		}
		cf.Close()
		fmt.Printf("artifacts:   %s (open in chrome://tracing), %s\n", tracePath, csvPath)
	}
	if *export != "" {
		n, err := exportProfiles(s.Bucket(), *export)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("exported:    %d profile records to %s (re-analyze with -analyze)\n", n, *export)
	}
}

// exportProfiles copies the session bucket's profiles/ objects into a
// directory store at dir, the input of -analyze.
func exportProfiles(b *storage.Bucket, dir string) (int, error) {
	store, err := storage.OpenDir(dir)
	if err != nil {
		return 0, err
	}
	defer store.Close()
	names := b.List("profiles/")
	for _, name := range names {
		obj, err := b.Get(name)
		if err != nil {
			return 0, err
		}
		if _, err := store.Put(name, obj.Data); err != nil {
			return 0, err
		}
	}
	return len(names), nil
}

// analyzeDir runs TPUPoint-Analyzer over profile records exported to a
// directory (see exportProfiles) — post-execution analysis without
// rerunning the workload. A missing directory is an error, not created.
func analyzeDir(dir, algo string, parallelism int) error {
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
	rep, err := analyzer.Analyze(dir, records, analyzer.Algorithm(algo),
		analyzer.Options{Parallelism: parallelism})
	if err != nil {
		return err
	}
	fmt.Printf("offline analysis of %d records (%d steps) from %s\n", len(records), rep.Steps, dir)
	fmt.Printf("phases: %d (%s); top-3 cover %.1f%%; idle %.1f%%, mxu %.1f%%\n",
		len(rep.Phases), rep.Algorithm, 100*rep.CoverageTop3, 100*rep.IdleFrac, 100*rep.MXUUtil)
	printTopOps(rep)
	return nil
}

// printTopOps lists the longest phase's top TPU and host operators.
func printTopOps(rep *analyzer.Report) {
	fmt.Println("top TPU ops of the longest phase:")
	for _, op := range rep.TopTPUOps {
		fmt.Printf("  %-32s x%-8d %8.1fms\n", op.Name, op.Count, op.Total.Milliseconds())
	}
	fmt.Println("top host ops of the longest phase:")
	for _, op := range rep.TopHostOps {
		fmt.Printf("  %-32s x%-8d %8.1fms\n", op.Name, op.Count, op.Total.Milliseconds())
	}
}

// serveProfile trains the workload and keeps its profile service reachable
// over TCP, so external tools (tpuprof, a remote TPUPoint-Profiler) can
// request profile windows — the Cloud TPU deployment shape.
func serveProfile(workload string, ver tpupoint.Version, steps int, addr string, maxConns int) error {
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
	fmt.Printf("serving %s profile service on %s (methods: tpu.Profile, tpu.Status)\n",
		w.Name, l.Addr())
	go srv.Serve(l)
	if err := runner.Run(); err != nil {
		return err
	}
	fmt.Printf("training finished: %.2fs simulated, idle %.1f%%, mxu %.1f%%\n",
		runner.TotalTime().Seconds(), 100*runner.IdleFraction(), 100*runner.MXUUtilization())
	fmt.Println("profile windows remain available; ctrl-c to stop")
	select {} // serve until interrupted
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tpupoint:", err)
	os.Exit(1)
}
