// Command paperbench regenerates the tables and figures of the TPUPoint
// paper's evaluation and prints them in the paper's row/series layout.
// testdata/paperbench.golden holds its output; TestPaperGolden checks it.
//
// Usage:
//
//	paperbench                    # every table and figure, to stdout
//	paperbench -json results.json # the same document, also as JSON
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"repro/internal/experiments"
)

func main() {
	err := run(os.Args[1:], os.Stdout, os.Stderr)
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
	case errors.Is(err, errUsage):
		os.Exit(2) // the flag set has printed the error and the usage
	default:
		fmt.Fprintln(os.Stderr, "paperbench:", err)
		os.Exit(1)
	}
}

// errUsage marks a command line the flag set refused; main exits 2 on
// it, as flag.ExitOnError does.
var errUsage = errors.New("bad command line")

// run is the paperbench command: it reproduces the paper once, prints
// the text rendering to stdout and, with -json, writes the same
// document to a file and says so on stderr.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("paperbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.String("json", "", "also write the regenerated document as JSON to this file")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return errUsage
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "paperbench: unexpected argument %q\n", fs.Arg(0))
		fs.Usage()
		return errUsage
	}

	p, err := experiments.Reproduce(experiments.NewLab())
	if err != nil {
		return err
	}
	if *jsonOut != "" {
		data, err := json.MarshalIndent(p, "", "  ")
		if err != nil {
			return fmt.Errorf("json: %w", err)
		}
		if err := os.WriteFile(*jsonOut, append(data, '\n'), 0o644); err != nil {
			return fmt.Errorf("json: %w", err)
		}
		fmt.Fprintf(stderr, "wrote machine-readable results to %s\n", *jsonOut)
	}
	_, err = stdout.Write(render(p))
	return err
}

// paperReports are the values the paper itself reports that the
// rendering quotes beside ours: Figures 10 and 11's averages in percent
// (TPUv2, TPUv3) and Figure 14's average speedup. EXPERIMENTS.md's
// Observations scoreboard quotes this table.
var paperReports = struct {
	Fig10IdleAvg, Fig11MXUAvg [2]float64
	Fig14Speedup              float64
}{
	Fig10IdleAvg: [2]float64{38.90, 43.53},
	Fig11MXUAvg:  [2]float64{22.72, 11.34},
	Fig14Speedup: 1.12,
}

// render prints the paper in its row/series layout, one block per
// artifact, each followed by a blank line.
func render(p *experiments.Paper) []byte {
	var b bytes.Buffer
	pct := experiments.FormatPct
	section := func(title string) { fmt.Fprintln(&b, title) }
	end := func() { b.WriteByte('\n') }

	section("Table I: workload breakdown and specifications")
	fmt.Fprintf(&b, "%-16s %-22s %-10s %-10s %12s %10s %6s\n",
		"workload", "type", "model", "dataset", "size", "records", "batch")
	for _, r := range p.Table1 {
		size := fmt.Sprintf("%.2f MiB", r.SizeMiB)
		if r.SizeMiB > 2048 {
			size = fmt.Sprintf("%.2f GiB", r.SizeMiB/1024)
		}
		fmt.Fprintf(&b, "%-16s %-22s %-10s %-10s %12s %10d %6d\n",
			r.Name, r.Task, r.Model, r.Dataset, size, r.Records, r.BatchSize)
		fmt.Fprintf(&b, "%18s params: %s\n", "", strings.Join(r.Params, "; "))
	}
	end()

	series := func(format string, ss []experiments.Series) {
		for _, s := range ss {
			if s.Err != "" {
				fmt.Fprintf(&b, "%-18s %s\n", s.Workload, s.Err)
				continue
			}
			fmt.Fprintf(&b, "%-18s", s.Workload)
			for _, v := range s.Y {
				fmt.Fprintf(&b, format, v)
			}
			b.WriteByte('\n')
		}
		end()
	}
	section("Figure 4: k-means sum of squared distances vs k (1..15)")
	series(" %8.1f", p.Fig4)
	section("Figure 5: DBSCAN noise ratio vs min samples (5..180, step 25)")
	series(" %6.3f", p.Fig5)
	section("Figure 6: OLS phase count vs similarity threshold")
	fmt.Fprintf(&b, "%-18s", "threshold")
	for _, th := range experiments.Fig6Thresholds {
		fmt.Fprintf(&b, " %6.2f", th)
	}
	b.WriteByte('\n')
	series(" %6.0f", p.Fig6)

	coverage := func(title string, rows []experiments.CoverageRow) {
		section(title)
		for _, r := range rows {
			if r.Err != "" {
				fmt.Fprintf(&b, "%-18s %s\n", r.Workload, r.Err)
				continue
			}
			fmt.Fprintf(&b, "%-18s phase1=%s phase2=%s phase3=%s total=%s\n",
				r.Workload, pct(r.Top[0]), pct(r.Top[1]), pct(r.Top[2]), pct(r.Total))
		}
		end()
	}
	coverage("Figure 7: top-3 phase coverage, OLS @ 70%", p.Fig7)
	coverage("Figure 8: top-3 phase coverage, DBSCAN min-samples=30", p.Fig8)
	coverage("Figure 9: top-3 phase coverage, k-means k=5", p.Fig9)

	// util prints one v2/v3 pair per workload and, when the paper
	// reports averages for the figure, our average beside them.
	util := func(title string, rows []experiments.UtilRow, pick func(experiments.UtilRow) (v2, v3 float64), paper *[2]float64) {
		section(title)
		var s2, s3 float64
		for _, r := range rows {
			v2, v3 := pick(r)
			fmt.Fprintf(&b, "%-18s v2=%s v3=%s\n", r.Workload, pct(v2), pct(v3))
			s2 += v2
			s3 += v3
		}
		if paper != nil {
			n := float64(len(rows))
			fmt.Fprintf(&b, "%-18s v2=%s v3=%s (paper: %.2f%% / %.2f%%)\n", "AVERAGE",
				pct(s2/n), pct(s3/n), paper[0], paper[1])
		}
		end()
	}
	idle := func(r experiments.UtilRow) (float64, float64) { return r.IdleV2, r.IdleV3 }
	mxu := func(r experiments.UtilRow) (float64, float64) { return r.MXUV2, r.MXUV3 }
	util("Figure 10: TPU idle time, TPUv2 vs TPUv3", p.Fig10and11, idle, &paperReports.Fig10IdleAvg)
	util("Figure 11: MXU utilization, TPUv2 vs TPUv3", p.Fig10and11, mxu, &paperReports.Fig11MXUAvg)
	util("Figure 12: TPU idle time with reduced datasets", p.Fig12and13, idle, nil)
	util("Figure 13: MXU utilization with reduced datasets", p.Fig12and13, mxu, nil)

	for _, t := range p.Table2 {
		fmt.Fprintf(&b, "Table II (%s): top-5 operators of the longest phase\n", t.Version)
		for _, c := range t.Cells {
			if c.Err != "" {
				fmt.Fprintf(&b, "%-18s %-7s %s\n", c.Workload, c.Algorithm, c.Err)
				continue
			}
			fmt.Fprintf(&b, "%-18s %-7s host: %s\n", c.Workload, c.Algorithm, strings.Join(c.HostOps, ", "))
			fmt.Fprintf(&b, "%-18s %-7s tpu:  %s\n", "", "", strings.Join(c.TPUOps, ", "))
		}
		fmt.Fprintf(&b, "appearance totals (%s):\n", t.Version)
		names := make([]string, 0, len(t.Totals))
		for name := range t.Totals {
			names = append(names, name)
		}
		sort.Slice(names, func(i, j int) bool {
			if ni, nj := t.Totals[names[i]], t.Totals[names[j]]; ni != nj {
				return ni > nj
			}
			return names[i] < names[j]
		})
		for _, name := range names {
			fmt.Fprintf(&b, "  %-40s %d\n", name, t.Totals[name])
		}
		end()
	}
	end()

	section(fmt.Sprintf("Figure 14: TPUPoint-Optimizer speedups for TPUv2 (paper: ~%.2fx average)", paperReports.Fig14Speedup))
	var sum float64
	for _, r := range p.Fig14 {
		fmt.Fprintf(&b, "%-18s measured=%.3fx projected(full-run)=%.3fx\n",
			r.Workload, r.MeasuredSpeedup, r.ProjectedSpeedup)
		sum += r.ProjectedSpeedup
	}
	fmt.Fprintf(&b, "%-18s projected average = %.3fx\n", "AVERAGE", sum/float64(len(p.Fig14)))
	end()

	section("Figure 15: idle time of naive implementations, with/without Optimizer")
	for _, r := range p.Fig15and16 {
		fmt.Fprintf(&b, "%-18s %s before=%s after=%s\n", r.Workload, r.Version,
			pct(r.IdleBefore), pct(r.IdleAfter))
	}
	end()
	section("Figure 16: MXU utilization of naive implementations, with/without Optimizer")
	for _, r := range p.Fig15and16 {
		fmt.Fprintf(&b, "%-18s %s before=%s after=%s (speedup %.2fx)\n", r.Workload, r.Version,
			pct(r.MXUBefore), pct(r.MXUAfter), r.Speedup)
	}
	end()
	return b.Bytes()
}
