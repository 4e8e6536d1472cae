// Command paperbench regenerates the tables and figures of the TPUPoint
// paper's evaluation and prints them in the paper's row/series layout.
//
// Usage:
//
//	paperbench              # everything
//	paperbench -only fig10  # one artifact (table1, table2, fig4..fig16)
//	paperbench -steps 300   # shorten runs (quick mode)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"repro/internal/experiments"
	"repro/internal/tpu"
)

func main() {
	only := flag.String("only", "", "regenerate a single artifact (table1, table2, fig4..fig16)")
	steps := flag.Int("steps", 0, "override per-workload step counts (0 = calibrated full runs)")
	jsonOut := flag.String("json", "", "also write all regenerated data as JSON to this file")
	flag.Parse()

	lab := experiments.NewLab()
	lab.StepsOverride = *steps

	if *jsonOut != "" {
		if err := dumpJSON(lab, *jsonOut); err != nil {
			fmt.Fprintf(os.Stderr, "paperbench: json: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote machine-readable results to %s\n\n", *jsonOut)
	}

	artifacts := []struct {
		name string
		fn   func(*experiments.Lab) error
	}{
		{"table1", func(l *experiments.Lab) error { return table1() }},
		{"fig4", fig4},
		{"fig5", fig5},
		{"fig6", fig6},
		{"fig7", coverageFig("Figure 7: top-3 phase coverage, OLS @ 70%", experiments.Fig7)},
		{"fig8", coverageFig("Figure 8: top-3 phase coverage, DBSCAN min-samples=30", experiments.Fig8)},
		{"fig9", coverageFig("Figure 9: top-3 phase coverage, k-means k=5", experiments.Fig9)},
		{"fig10", fig10},
		{"fig11", fig11},
		{"fig12", fig12},
		{"fig13", fig13},
		{"table2", table2},
		{"fig14", func(l *experiments.Lab) error { return fig14(l.StepsOverride) }},
		{"fig15", func(l *experiments.Lab) error { return fig1516(l.StepsOverride, true) }},
		{"fig16", func(l *experiments.Lab) error { return fig1516(l.StepsOverride, false) }},
	}

	ran := false
	for _, a := range artifacts {
		if *only != "" && a.name != *only {
			continue
		}
		ran = true
		if err := a.fn(lab); err != nil {
			fmt.Fprintf(os.Stderr, "paperbench: %s: %v\n", a.name, err)
			os.Exit(1)
		}
		fmt.Println()
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "paperbench: unknown artifact %q\n", *only)
		os.Exit(2)
	}
}

// dumpJSON regenerates every artifact into one machine-readable document.
func dumpJSON(lab *experiments.Lab, path string) error {
	doc := map[string]any{}
	t1, err := experiments.Table1()
	if err != nil {
		return err
	}
	doc["table1"] = t1
	for name, fn := range map[string]func(*experiments.Lab) ([]experiments.Series, error){
		"fig4": experiments.Fig4, "fig5": experiments.Fig5, "fig6": experiments.Fig6,
	} {
		v, err := fn(lab)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		doc[name] = v
	}
	for name, fn := range map[string]func(*experiments.Lab) ([]experiments.CoverageRow, error){
		"fig7": experiments.Fig7, "fig8": experiments.Fig8, "fig9": experiments.Fig9,
	} {
		v, err := fn(lab)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		doc[name] = v
	}
	for name, fn := range map[string]func(*experiments.Lab) ([]experiments.UtilRow, error){
		"fig10": experiments.Fig10, "fig11": experiments.Fig11,
		"fig12": experiments.Fig12, "fig13": experiments.Fig13,
	} {
		v, err := fn(lab)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		doc[name] = v
	}
	for _, v := range []tpu.Version{tpu.V2, tpu.V3} {
		cells, totals, err := experiments.Table2(lab, v)
		if err != nil {
			return err
		}
		doc[fmt.Sprintf("table2_%s", v)] = map[string]any{"cells": cells, "totals": totals}
	}
	f14, err := experiments.Fig14(lab.StepsOverride)
	if err != nil {
		return err
	}
	doc["fig14"] = f14
	f1516, err := experiments.Fig15and16(lab.StepsOverride)
	if err != nil {
		return err
	}
	doc["fig15_16"] = f1516

	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

func table1() error {
	rows, err := experiments.Table1()
	if err != nil {
		return err
	}
	fmt.Println("Table I: workload breakdown and specifications")
	fmt.Printf("%-16s %-22s %-10s %-10s %12s %10s %6s\n",
		"workload", "type", "model", "dataset", "size", "records", "batch")
	for _, r := range rows {
		size := fmt.Sprintf("%.2f MiB", r.SizeMiB)
		if r.SizeMiB > 2048 {
			size = fmt.Sprintf("%.2f GiB", r.SizeMiB/1024)
		}
		fmt.Printf("%-16s %-22s %-10s %-10s %12s %10d %6d\n",
			r.Name, r.Task, r.Model, r.Dataset, size, r.Records, r.BatchSize)
		fmt.Printf("%18s params: %s\n", "", strings.Join(r.Params, "; "))
	}
	return nil
}

func fig4(lab *experiments.Lab) error {
	series, err := experiments.Fig4(lab)
	if err != nil {
		return err
	}
	fmt.Println("Figure 4: k-means sum of squared distances vs k (1..15)")
	for _, s := range series {
		if s.Err != "" {
			fmt.Printf("%-18s %s\n", s.Workload, s.Err)
			continue
		}
		fmt.Printf("%-18s", s.Workload)
		for _, v := range s.Y {
			fmt.Printf(" %8.1f", v)
		}
		fmt.Println()
	}
	return nil
}

func fig5(lab *experiments.Lab) error {
	series, err := experiments.Fig5(lab)
	if err != nil {
		return err
	}
	fmt.Println("Figure 5: DBSCAN noise ratio vs min samples (5..180, step 25)")
	for _, s := range series {
		if s.Err != "" {
			fmt.Printf("%-18s %s\n", s.Workload, s.Err)
			continue
		}
		fmt.Printf("%-18s", s.Workload)
		for _, v := range s.Y {
			fmt.Printf(" %6.3f", v)
		}
		fmt.Println()
	}
	return nil
}

func fig6(lab *experiments.Lab) error {
	series, err := experiments.Fig6(lab)
	if err != nil {
		return err
	}
	fmt.Println("Figure 6: OLS phase count vs similarity threshold")
	fmt.Printf("%-18s", "threshold")
	for _, th := range experiments.Fig6Thresholds {
		fmt.Printf(" %6.2f", th)
	}
	fmt.Println()
	for _, s := range series {
		fmt.Printf("%-18s", s.Workload)
		for _, v := range s.Y {
			fmt.Printf(" %6.0f", v)
		}
		fmt.Println()
	}
	return nil
}

func coverageFig(title string, fn func(*experiments.Lab) ([]experiments.CoverageRow, error)) func(*experiments.Lab) error {
	return func(lab *experiments.Lab) error {
		rows, err := fn(lab)
		if err != nil {
			return err
		}
		fmt.Println(title)
		for _, r := range rows {
			if r.Err != "" {
				fmt.Printf("%-18s %s\n", r.Workload, r.Err)
				continue
			}
			fmt.Printf("%-18s phase1=%s phase2=%s phase3=%s total=%s\n",
				r.Workload,
				experiments.FormatPct(r.Top[0]), experiments.FormatPct(r.Top[1]),
				experiments.FormatPct(r.Top[2]), experiments.FormatPct(r.Total))
		}
		return nil
	}
}

func fig10(lab *experiments.Lab) error {
	rows, err := experiments.Fig10(lab)
	if err != nil {
		return err
	}
	fmt.Println("Figure 10: TPU idle time, TPUv2 vs TPUv3")
	var s2, s3 float64
	for _, r := range rows {
		fmt.Printf("%-18s v2=%s v3=%s\n", r.Workload,
			experiments.FormatPct(r.IdleV2), experiments.FormatPct(r.IdleV3))
		s2 += r.IdleV2
		s3 += r.IdleV3
	}
	n := float64(len(rows))
	fmt.Printf("%-18s v2=%s v3=%s (paper: 38.90%% / 43.53%%)\n", "AVERAGE",
		experiments.FormatPct(s2/n), experiments.FormatPct(s3/n))
	return nil
}

func fig11(lab *experiments.Lab) error {
	rows, err := experiments.Fig11(lab)
	if err != nil {
		return err
	}
	fmt.Println("Figure 11: MXU utilization, TPUv2 vs TPUv3")
	var s2, s3 float64
	for _, r := range rows {
		fmt.Printf("%-18s v2=%s v3=%s\n", r.Workload,
			experiments.FormatPct(r.MXUV2), experiments.FormatPct(r.MXUV3))
		s2 += r.MXUV2
		s3 += r.MXUV3
	}
	n := float64(len(rows))
	fmt.Printf("%-18s v2=%s v3=%s (paper: 22.72%% / 11.34%%)\n", "AVERAGE",
		experiments.FormatPct(s2/n), experiments.FormatPct(s3/n))
	return nil
}

func fig12(lab *experiments.Lab) error {
	rows, err := experiments.Fig12(lab)
	if err != nil {
		return err
	}
	fmt.Println("Figure 12: TPU idle time with reduced datasets")
	for _, r := range rows {
		fmt.Printf("%-18s v2=%s v3=%s\n", r.Workload,
			experiments.FormatPct(r.IdleV2), experiments.FormatPct(r.IdleV3))
	}
	return nil
}

func fig13(lab *experiments.Lab) error {
	rows, err := experiments.Fig13(lab)
	if err != nil {
		return err
	}
	fmt.Println("Figure 13: MXU utilization with reduced datasets")
	for _, r := range rows {
		fmt.Printf("%-18s v2=%s v3=%s\n", r.Workload,
			experiments.FormatPct(r.MXUV2), experiments.FormatPct(r.MXUV3))
	}
	return nil
}

func table2(lab *experiments.Lab) error {
	for _, v := range []tpu.Version{tpu.V2, tpu.V3} {
		cells, totals, err := experiments.Table2(lab, v)
		if err != nil {
			return err
		}
		fmt.Printf("Table II (%s): top-5 operators of the longest phase\n", v)
		for _, c := range cells {
			if c.Err != "" {
				fmt.Printf("%-18s %-7s %s\n", c.Workload, c.Algorithm, c.Err)
				continue
			}
			fmt.Printf("%-18s %-7s host: %s\n", c.Workload, c.Algorithm, strings.Join(c.HostOps, ", "))
			fmt.Printf("%-18s %-7s tpu:  %s\n", "", "", strings.Join(c.TPUOps, ", "))
		}
		fmt.Printf("appearance totals (%s):\n", v)
		printTotals(totals)
		fmt.Println()
	}
	return nil
}

func printTotals(totals map[string]int) {
	type kv struct {
		name string
		n    int
	}
	var list []kv
	for name, n := range totals {
		list = append(list, kv{name, n})
	}
	sort.Slice(list, func(i, j int) bool {
		if list[i].n != list[j].n {
			return list[i].n > list[j].n
		}
		return list[i].name < list[j].name
	})
	for _, e := range list {
		fmt.Printf("  %-40s %d\n", e.name, e.n)
	}
}

func fig14(steps int) error {
	rows, err := experiments.Fig14(steps)
	if err != nil {
		return err
	}
	fmt.Println("Figure 14: TPUPoint-Optimizer speedups for TPUv2 (paper: ~1.12x average)")
	var sum float64
	for _, r := range rows {
		fmt.Printf("%-18s measured=%.3fx projected(full-run)=%.3fx\n",
			r.Workload, r.MeasuredSpeedup, r.ProjectedSpeedup)
		sum += r.ProjectedSpeedup
	}
	fmt.Printf("%-18s projected average = %.3fx\n", "AVERAGE", sum/float64(len(rows)))
	return nil
}

func fig1516(steps int, idle bool) error {
	rows, err := experiments.Fig15and16(steps)
	if err != nil {
		return err
	}
	if idle {
		fmt.Println("Figure 15: idle time of naive implementations, with/without Optimizer")
		for _, r := range rows {
			fmt.Printf("%-18s %s before=%s after=%s\n", r.Workload, r.Version,
				experiments.FormatPct(r.IdleBefore), experiments.FormatPct(r.IdleAfter))
		}
		return nil
	}
	fmt.Println("Figure 16: MXU utilization of naive implementations, with/without Optimizer")
	for _, r := range rows {
		fmt.Printf("%-18s %s before=%s after=%s (speedup %.2fx)\n", r.Workload, r.Version,
			experiments.FormatPct(r.MXUBefore), experiments.FormatPct(r.MXUAfter), r.Speedup)
	}
	return nil
}
