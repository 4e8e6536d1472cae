// The `watch` verb: tail a record stream through the streaming phase
// analyzer and print phase boundaries as they close — the operator's
// live view of a run's structure, without waiting for finalize-time
// batch analysis.
//
//	tpupoint -archive ./runs watch <run-id>            replay an archived run
//	tpupoint -archive ./runs watch -session <token>    tail a fleet session log
//	tpupoint -archive ./runs watch -session <token> -follow
//
// With -follow the session log is re-read every -interval until it
// stops growing for -idle, so a live collection can be watched from a
// second terminal while the collector appends to the same directory.
// watch only reads: it never sweeps or writes to the repository, so it
// is safe beside live collectors.
package main

import (
	"flag"
	"fmt"
	"io"
	"time"

	"repro/internal/core/analyzer"
	"repro/internal/repo"
	"repro/internal/trace"
)

func watchCmd(stdout, stderr io.Writer, args []string, archiveDir string) error {
	fs := flag.NewFlagSet("watch", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		duty      = fs.Int("duty", 1, "profile duty cycle: analyze only steps ≡ 0 mod N (1 = every step)")
		threshold = fs.Float64("threshold", analyzer.DefaultThreshold, "OLS step-similarity threshold")
		sessionTk = fs.String("session", "", "tail a fleet session log by resume token instead of an archived run")
		follow    = fs.Bool("follow", false, "with -session: keep polling the log for new records")
		interval  = fs.Duration("interval", 500*time.Millisecond, "with -follow: poll interval")
		idle      = fs.Duration("idle", 5*time.Second, "with -follow: stop after the log is quiet this long")
		quiet     = fs.Bool("quiet", false, "print only phase closes and the summary")
	)
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: tpupoint -archive <dir> watch [flags] <run-id>")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if archiveDir == "" {
		return fmt.Errorf("watch needs -archive pointing at a profile repository")
	}

	if *sessionTk == "" && fs.NArg() != 1 {
		fs.Usage()
		return fmt.Errorf("watch needs a run ID or -session <token>")
	}

	r, store, done, err := openRepoDir(stdout, archiveDir, 0, false)
	if err != nil {
		return err
	}
	defer done()

	s := analyzer.NewStream("watch", analyzer.StreamOptions{
		Threshold: *threshold,
		DutyCycle: *duty,
		OnEvent:   watchPrinter(stdout, *quiet),
	})

	if *sessionTk != "" {
		err = watchSession(s, store, *sessionTk, *follow, *interval, *idle)
		if err == nil && *follow {
			fmt.Fprintf(stdout, "log quiet for %s; closing\n", *idle)
		}
	} else {
		err = watchArchive(s, r, fs.Arg(0))
	}
	if err != nil {
		return err
	}

	printStreamSummary(stdout, s.Finish())
	return nil
}

// watchPrinter renders stream events as they fire.
func watchPrinter(stdout io.Writer, quiet bool) func(analyzer.StreamEvent) {
	return func(ev analyzer.StreamEvent) {
		switch ev.Kind {
		case analyzer.PhaseOpen:
			if !quiet {
				fmt.Fprintf(stdout, "phase %d open    at step %d\n", ev.Phase.ID, ev.Step)
			}
		case analyzer.PhaseClose:
			p := ev.Phase
			fmt.Fprintf(stdout, "phase %d closed  steps %d-%d (%d sampled, %.1fms", p.ID, p.FirstStep, p.LastStep,
				p.Steps, p.Total.Milliseconds())
			if p.Degraded > 0 {
				fmt.Fprintf(stdout, ", %d degraded steps", p.Degraded)
			}
			fmt.Fprint(stdout, ")")
			for i, op := range p.Signature {
				if i == 3 {
					break
				}
				fmt.Fprintf(stdout, "  %s %.0f%%", op.Key.Name, 100*op.Share)
			}
			fmt.Fprintln(stdout)
		case analyzer.StepDegraded:
			if !quiet {
				fmt.Fprintf(stdout, "degraded        step %d in phase %d exceeds the phase-mean span\n",
					ev.Step, ev.Phase.ID)
			}
		}
	}
}

// watchArchive streams one archived run through the analyzer via the
// O(1)-resident record iterator.
func watchArchive(s *analyzer.StreamAnalyzer, r *repo.Repo, runID string) error {
	_, a, err := r.Get(runID)
	if err != nil {
		return err
	}
	it := a.Iter()
	for it.Next() {
		if err := s.Feed(it.Record()); err != nil {
			return err
		}
	}
	return it.Err()
}

// watchSession replays a fleet session's durable log, optionally
// following it as the collector appends. Each poll re-reads the log
// through the open store — the file on disk is the shared truth
// between the collector process and this one — and feeds only the new
// tail.
func watchSession(s *analyzer.StreamAnalyzer, store repo.Store, token string, follow bool, interval, idle time.Duration) error {
	fed := 0
	quietSince := time.Now()
	for {
		recs, err := repo.SessionRecords(store, token)
		if err != nil {
			return err
		}
		grew := len(recs) > fed
		for _, raw := range recs[fed:] {
			rec, err := trace.UnmarshalRecord(raw)
			if err != nil {
				return fmt.Errorf("session %q log record %d: %w", token, fed, err)
			}
			if err := s.Feed(rec); err != nil {
				return err
			}
			fed++
		}
		if !follow {
			return nil
		}
		if grew {
			quietSince = time.Now()
		}
		if time.Since(quietSince) > idle {
			return nil
		}
		time.Sleep(interval)
	}
}

func printStreamSummary(stdout io.Writer, rep *analyzer.StreamReport) {
	var degraded int64
	for _, p := range rep.Phases {
		degraded += p.Degraded
	}
	fmt.Fprintf(stdout, "watch summary: %d phases, %d/%d steps sampled (duty 1/%d), %d records (%d gaps), %.2fs, idle %.1f%%, mxu %.1f%%, %d degraded steps\n",
		len(rep.Phases), rep.Steps, rep.StepsSeen, rep.DutyCycle, rep.Records, rep.Gaps,
		rep.TotalTime.Seconds(), 100*rep.IdleFrac, 100*rep.MXUUtil, degraded)
}
