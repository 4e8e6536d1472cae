// Profile-repository subcommands and the fleet collection server.
//
// The repository lives in a directory on disk (-archive), opened as a
// live storage.DirStore: objects are files at their slash-mapped paths
// (runs/manifest-0.json, runs/<id>/archive, sessions/<token>/log, ...)
// and every mutation internal/repo makes lands in the directory as it
// happens, under the store's flock, so the crash-consistency contract
// of internal/repo holds for every verb and a verb can run beside live
// collectors on the same directory. Nothing is imported, held in
// memory, or synced back.
//
// Verbs that mutate the index (runs gc, delete, compact; archiving a
// run) sweep the repository when they open it: every object no
// manifest references is reclaimed. The sweep also reclaims the blob a
// live collector has written but not yet committed, so stop the
// collectors before running one. The repair verbs (runs salvage,
// fsck -repair) open without the sweep, because they re-adopt a
// well-formed orphan rather than reclaim it. Verbs that only read
// (runs list, show, diff, fsck; watch) never sweep and never write,
// and are safe at any time.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/core/viz"
	"repro/internal/obs"
	"repro/internal/repo"
	"repro/internal/rpc"
	"repro/internal/storage"
)

// openRepoDir opens the profile repository in dir and returns it with
// the store under it and a func releasing the store.
//
// sweep is true for a verb that mutates the index: the directory is
// created if missing, every object no manifest references is reclaimed
// (so what a crashed process left half done is settled before the verb
// runs), and shards sizes a fresh repository (an existing one keeps
// its count).
//
// sweep is false for a verb that only reads or repairs: opening
// creates or alters nothing under dir. An unreferenced blob may be a
// live collector's in-flight save, or the orphan a repair is about to
// re-adopt, and a directory that does not exist (a mistyped path)
// reads as an empty repository instead of being created.
//
// A directory written by earlier builds' export route (raw files, no
// generation sidecars) opens unchanged: DirStore adopts such objects at
// generation 1.
func openRepoDir(stdout io.Writer, dir string, shards int, sweep bool) (*repo.Repo, repo.Store, func(), error) {
	if !sweep {
		if _, err := os.Stat(dir); errors.Is(err, os.ErrNotExist) {
			bucket, err := storage.NewService().CreateBucket("empty")
			if err != nil {
				return nil, nil, nil, err
			}
			return repo.New(bucket), bucket, func() {}, nil
		}
	}
	store, err := storage.OpenDir(dir)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("opening repository %s: %w", dir, err)
	}
	done := func() { store.Close() }
	if !sweep {
		return repo.New(store), store, done, nil
	}
	r, rec, err := repo.OpenShards(store, shards)
	if err != nil {
		store.Close()
		return nil, nil, nil, fmt.Errorf("recovering repository %s: %w", dir, err)
	}
	printRecovery(stdout, rec)
	return r, store, done, nil
}

func printRecovery(stdout io.Writer, rec *repo.RecoveryReport) {
	if rec != nil && !rec.Clean() {
		fmt.Fprintf(stdout, "recovery: reclaimed %d unreferenced objects\n", len(rec.Reclaimed))
	}
}

// runsCmd dispatches the `runs list|show|diff|gc|...` verbs.
func runsCmd(stdout, stderr io.Writer, args []string, dir string, keep int, csv bool, shards int) error {
	if dir == "" {
		return errors.New("runs: -archive <dir> is required")
	}
	verb := "list"
	if len(args) > 0 {
		verb = args[0]
		args = args[1:]
	}
	repair := false
	if verb == "fsck" {
		for _, a := range args {
			switch a {
			case "-repair", "--repair":
				repair = true
			default:
				return fmt.Errorf("usage: runs fsck [-repair] (got %q)", a)
			}
		}
	}
	sweep := false
	switch verb {
	case "gc", "delete", "compact":
		sweep = true
	}
	r, _, done, err := openRepoDir(stdout, dir, shards, sweep)
	if err != nil {
		return err
	}
	defer done()
	switch verb {
	case "list":
		fs := flag.NewFlagSet("runs list", flag.ContinueOnError)
		fs.SetOutput(stderr)
		tenant := fs.String("tenant", "", "only runs archived under this tenant")
		workload := fs.String("workload", "", "only runs of this workload")
		labelF := fs.String("label", "", "only runs with this label")
		if err := fs.Parse(args); err != nil {
			return err
		}
		runs, err := r.List(repo.Filter{Workload: *workload, Label: *labelF, Tenant: *tenant})
		if err != nil {
			return err
		}
		if len(runs) == 0 {
			if *tenant != "" || *workload != "" || *labelF != "" {
				fmt.Fprintln(stdout, "no runs match the filter")
			} else {
				fmt.Fprintln(stdout, "repository is empty")
			}
			return nil
		}
		fmt.Fprintf(stdout, "%-24s %-20s %-12s %-12s %-6s %8s %8s %10s\n",
			"RUN", "WORKLOAD", "LABEL", "TENANT", "TPU", "RECORDS", "WINDOWS", "BYTES")
		for _, info := range runs {
			fmt.Fprintf(stdout, "%-24s %-20s %-12s %-12s %-6s %8d %8d %10d\n",
				info.RunID, info.Workload, info.Label, info.Tenant, info.TPUVersion,
				info.Records, info.Windows, info.Bytes)
		}
		return nil

	case "show":
		if len(args) != 1 {
			return errors.New("usage: runs show <run-id>")
		}
		info, sum, err := r.Summary(args[0])
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "run:       %s (seq %d)\n", info.RunID, info.CreatedSeq)
		fmt.Fprintf(stdout, "workload:  %s  label=%q  host=%q  tpu=%s\n",
			info.Workload, info.Label, info.HostSpec, info.TPUVersion)
		fmt.Fprintf(stdout, "records:   %d (%d windows), %d bytes, sim time [%.1fms, %.1fms]\n",
			info.Records, info.Windows, info.Bytes,
			float64(info.TimeFirst)/1000, float64(info.TimeLast)/1000)
		if sum == nil {
			fmt.Fprintln(stdout, "summary:   (none embedded)")
			return nil
		}
		fmt.Fprintf(stdout, "summary:   %s phases=%d steps=%d idle=%.1f%% mxu=%.1f%% top-3 cover %.1f%%\n",
			sum.Algorithm, len(sum.Phases), sum.Steps,
			100*sum.IdleFrac, 100*sum.MXUUtil, 100*sum.CoverageTop3)
		for _, p := range sum.Phases {
			fmt.Fprintf(stdout, "  phase #%d: %d steps, %s, idle=%.1f%% mxu=%.1f%%\n",
				p.ID, p.Steps, p.Total, 100*p.IdleFrac, 100*p.MXUUtil)
			for _, op := range p.Ops {
				fmt.Fprintf(stdout, "    %-6s %-32s x%-6d %10.1fms\n",
					op.Device, op.Name, op.Count, op.Total.Milliseconds())
			}
		}
		return nil

	case "diff":
		if len(args) != 2 {
			return errors.New("usage: runs diff <run-a> <run-b>")
		}
		d, err := r.Compare(args[0], args[1])
		if err != nil {
			return err
		}
		if csv {
			return viz.WriteDiffCSV(stdout, d)
		}
		return viz.WriteDiffTable(stdout, d)

	case "gc":
		victims, err := r.GC(keep)
		if err != nil {
			return err
		}
		for _, id := range victims {
			fmt.Fprintf(stdout, "removed %s\n", id)
		}
		fmt.Fprintf(stdout, "gc: removed %d runs (keeping %d newest per workload)\n", len(victims), keep)
		return nil

	case "delete":
		if len(args) != 1 {
			return errors.New("usage: runs delete <run-id>")
		}
		if err := r.Delete(args[0]); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "removed %s\n", args[0])
		return nil

	case "fsck":
		rep, err := r.Fsck(repair)
		if err != nil {
			return err
		}
		for _, issue := range rep.Issues {
			line := fmt.Sprintf("%-14s %-12s %s", issue.Kind, issue.RunID, issue.Detail)
			if issue.Action != "" {
				line += " -> " + issue.Action
			}
			fmt.Fprintln(stdout, line)
		}
		if rep.Clean() {
			fmt.Fprintf(stdout, "fsck: %d runs checked, no issues\n", rep.RunsChecked)
		} else {
			fmt.Fprintf(stdout, "fsck: %d runs checked, %d issues, %d repaired\n",
				rep.RunsChecked, len(rep.Issues), rep.Repaired)
		}
		if !rep.Clean() && rep.Repaired < len(rep.Issues) {
			return fmt.Errorf("fsck: %d unrepaired issues", len(rep.Issues)-rep.Repaired)
		}
		return nil

	case "compact":
		opts := repo.CompactOptions{}
		switch len(args) {
		case 0:
		case 1:
			opts.Workload = args[0]
		default:
			return errors.New("usage: runs compact [workload]")
		}
		rep, err := r.Compact(opts)
		if err != nil {
			return err
		}
		runsPacked, bytesPacked := 0, int64(0)
		for _, p := range rep.Packs {
			fmt.Fprintf(stdout, "packed %-20s %d runs, %d bytes -> %s\n",
				p.Workload, len(p.Runs), p.Bytes, p.Object)
			runsPacked += len(p.Runs)
			bytesPacked += p.Bytes
		}
		fmt.Fprintf(stdout, "compact: %d packs from %d runs (%d bytes)\n",
			len(rep.Packs), runsPacked, bytesPacked)
		return nil

	case "salvage":
		if len(args) != 1 {
			return errors.New("usage: runs salvage <run-id>")
		}
		info, srep, err := r.Salvage(args[0])
		if err != nil {
			return err
		}
		mode := "footer index"
		if !srep.FooterIntact {
			mode = "sequential scan (footer lost)"
		}
		fmt.Fprintf(stdout, "salvage %s: %d/%d segments via %s, %d records, %d bytes dropped\n",
			args[0], srep.SegmentsKept, srep.SegmentsTotal, mode,
			srep.RecordsKept, srep.BytesDropped)
		printRunInfo(stdout, info, dir)
		return nil

	default:
		return fmt.Errorf("unknown runs verb %q (want list, show, diff, gc, delete, fsck, salvage, compact)", verb)
	}
}

// collectConfig bundles the collection server's flag surface: one
// process = one replica of a set of Replicas (a set of one by default).
type collectConfig struct {
	Addr, Dir string

	MaxSessions, MaxConns, Shards, CompactEvery int

	// ReplicaID/Replicas/Peers place this process in the replica set: it
	// owns the manifest shards s with s % Replicas == ReplicaID and
	// answers misplaced sessions with a redirect to Peers[owner].
	ReplicaID, Replicas int
	Peers               []string

	Reg    *obs.Registry
	Health *obs.Health
	Fleet  *obs.FleetView
}

// collectServe runs the fleet collection server: profilers stream
// records in over RPC (tpupoint -collect <addr>), every finalized
// session becomes an indexed archive in the -archive directory.
//
// The directory is a live DirStore shared with the other replicas and
// with a restarted self: every accepted record is in its session log,
// and every finalized run in its manifest, before the client is
// acknowledged, so there is nothing to flush at shutdown and a kill -9
// loses nothing that was acked. Interrupted sessions stay parked in the
// directory and clients reattach with fleet.Resume after a restart.
// Saves flow through a group-commit Ingestor that amortizes manifest
// writes across concurrent finalizes.
//
// A standalone collector (-replicas 1) is a replica set of one that
// owns every shard: it opens the repository the same way, sweeping the
// shards it owns, and only has no peers to probe.
func collectServe(stdout io.Writer, cfg collectConfig) error {
	if cfg.Dir == "" {
		return errors.New("-collect-serve needs -archive <dir> for the repository")
	}
	reg, health := cfg.Reg, cfg.Health
	health.SetFailing("repository", "opening")
	health.SetFailing("collector", "starting")

	rc := &repo.ReplicaConfig{ID: cfg.ReplicaID, Replicas: max(cfg.Replicas, 1), Peers: cfg.Peers}
	if err := rc.Validate(); err != nil {
		return err
	}
	store, err := storage.OpenDir(cfg.Dir)
	if err != nil {
		return err
	}
	defer store.Close()
	// The set must agree on the shard count, so one other than what the
	// repository records (1 if it is fresh) is refused.
	stored, err := repo.New(store).Shards()
	if err != nil {
		return fmt.Errorf("opening repository %s: %w", cfg.Dir, err)
	}
	shards := cfg.Shards
	if shards == 0 && rc.Replicas > 1 {
		// Every replica needs shards to own; default to a few per
		// replica so reconfiguration has room to rebalance.
		shards = 4 * rc.Replicas
	} else if shards == 0 {
		shards = stored // a set of one has nothing to rebalance
	}
	if shards < rc.Replicas {
		return fmt.Errorf("-shards %d < -replicas %d leaves replicas owning nothing", shards, rc.Replicas)
	}
	r, rec, err := repo.OpenShardsOwned(store, shards, rc.OwnedShards(shards))
	if err != nil {
		if shards != stored && store.Exists(repo.LayoutObject) {
			err = fmt.Errorf("%w: pass -shards %d", err, stored)
		}
		return fmt.Errorf("recovering repository %s: %w", cfg.Dir, err)
	}
	printRecovery(stdout, rec)
	r.SetObs(reg)
	ingest := repo.NewIngestor(r, repo.IngestorOptions{Replica: rc, Obs: reg})
	defer ingest.Close()
	fleetID := fmt.Sprintf("replica-%d", rc.ID)
	reg.SetLabel("replica", fmt.Sprint(rc.ID))
	cfg.Fleet.Set(fleetID, obs.ReplicaUp)
	fleet := repo.NewFleet(r, repo.FleetOptions{
		MaxSessions: cfg.MaxSessions, CompactEvery: cfg.CompactEvery,
		Obs: reg, Replica: rc, Ingest: ingest,
	})
	parked, err := fleet.RecoverSessions()
	if err != nil {
		return err
	}
	for _, token := range parked {
		fmt.Fprintf(stdout, "parked session %s awaits fleet.Resume\n", token)
	}
	health.SetReady("repository")
	srv := rpc.NewServer()
	if cfg.MaxConns > 0 {
		srv.SetConnLimit(cfg.MaxConns)
	}
	fleet.Register(srv)
	// Registered before the first connection can be served, so a stop
	// request never finds the default (process-killing) disposition.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	l, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return err
	}
	defer l.Close()
	fmt.Fprintf(stdout, "fleet collection server on %s (replica %d of %d, shards %v), repository %s\n",
		l.Addr(), rc.ID, rc.Replicas, rc.OwnedShards(shards), cfg.Dir)
	go srv.Serve(l)
	health.SetReady("collector")

	// Probe peer replicas so /fleetz answers for the whole set.
	stopProbe := make(chan struct{})
	if len(rc.Peers) > 1 {
		go probePeers(rc, cfg.Fleet, stopProbe)
	}

	<-sig
	close(stopProbe)
	health.SetFailing("collector", "shutting down")
	cfg.Fleet.Set(fleetID, obs.ReplicaDown)
	srv.Close()
	if n := fleet.ActiveSessions(); n > 0 {
		fmt.Fprintf(stdout, "%d sessions still open; their accepted records are parked durably (clients resume by token)\n", n)
	}
	// Let an in-flight background compaction finish rather than leave
	// its pack or old blobs for the next open to reclaim.
	fleet.WaitBackground()
	return nil
}

// probePeers pings every peer replica on a short cadence and feeds the
// fleet readiness view: "up" on a healthy ping, "down" on a refused
// dial or failed call. Probing is best-effort observability — placement
// and redirects never consult it.
func probePeers(rc *repo.ReplicaConfig, view *obs.FleetView, stop <-chan struct{}) {
	probe := func() {
		for id, addr := range rc.Peers {
			if id == rc.ID {
				continue
			}
			state := obs.ReplicaDown
			if c, err := rpc.Dial(addr); err == nil {
				if _, perr := repo.PingEndpoint(c); perr == nil {
					state = obs.ReplicaUp
				}
				c.Close()
			}
			view.Set(fmt.Sprintf("replica-%d", id), state)
		}
	}
	probe()
	t := time.NewTicker(2 * time.Second)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			probe()
		}
	}
}

// printRunInfo summarizes a freshly archived run. dir is the local
// repository directory, or "" when the archive lives on a remote
// collection server.
func printRunInfo(w io.Writer, info repo.RunInfo, dir string) {
	dest := "collection server " + info.Object
	if dir != "" {
		dest = filepath.Join(dir, filepath.FromSlash(info.Object))
	}
	fmt.Fprintf(w, "archived:    run %q (seq %d): %d records, %d bytes -> %s\n",
		info.RunID, info.CreatedSeq, info.Records, info.Bytes, dest)
}
