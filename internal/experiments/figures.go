package experiments

import (
	"errors"
	"fmt"

	"repro/internal/core/analyzer"
	"repro/internal/core/cluster"
	"repro/internal/core/optimizer"
	"repro/internal/tpu"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// ---------------------------------------------------------------- Table I

// Table1Row is one workload-catalog entry.
type Table1Row struct {
	Name      string
	Task      string
	Model     string
	Dataset   string
	SizeMiB   float64
	Records   int64
	BatchSize int
	Params    []string
}

// Table1 reproduces the workload breakdown table.
func Table1() ([]Table1Row, error) {
	var rows []Table1Row
	for _, name := range AllWorkloads() {
		w, err := workloads.Get(name)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table1Row{
			Name:      w.Name,
			Task:      w.Task,
			Model:     w.Model,
			Dataset:   w.Dataset.Name,
			SizeMiB:   float64(w.Dataset.SizeBytes) / (1 << 20),
			Records:   w.Dataset.Records,
			BatchSize: w.BatchSize,
			Params:    w.ParamsDesc,
		})
	}
	return rows, nil
}

// ------------------------------------------------------------ Figures 4-6

// Series is one named line of a figure.
type Series struct {
	Workload string
	X        []float64
	Y        []float64
	Err      string // non-empty when the algorithm failed (e.g. OOM)
}

// Fig4 regenerates the k-means elbow sweep: SSD vs k (1..15) per workload.
func Fig4(lab *Lab) ([]Series, error) {
	var out []Series
	for _, name := range AllWorkloads() {
		run, err := lab.Run(name, Reference, tpu.V2)
		if err != nil {
			return nil, err
		}
		s := Series{Workload: name}
		m := run.Front.Matrix(analyzer.Options{})
		sweep, err := cluster.KMeansSweep(m, 15, 1, AnalyzerBudget, 0)
		if err != nil {
			s.Err = err.Error()
		}
		for i, r := range sweep {
			s.X = append(s.X, float64(i+1)) // the k asked for; r.K is clamped to the row count
			s.Y = append(s.Y, r.SSD)
		}
		out = append(out, s)
	}
	return out, nil
}

// Fig5 regenerates the DBSCAN noise sweep: noise ratio vs min samples
// (5..180 step 25) per workload.
func Fig5(lab *Lab) ([]Series, error) {
	var out []Series
	for _, name := range AllWorkloads() {
		run, err := lab.Run(name, Reference, tpu.V2)
		if err != nil {
			return nil, err
		}
		s := Series{Workload: name}
		m := run.Front.Matrix(analyzer.Options{})
		sweep, err := cluster.DBSCANSweep(m, 180, 25, AnalyzerBudget, 0)
		if err != nil {
			s.Err = err.Error()
		}
		for _, r := range sweep {
			s.X = append(s.X, float64(r.MinPts))
			s.Y = append(s.Y, r.NoiseRatio())
		}
		out = append(out, s)
	}
	return out, nil
}

// Fig6Thresholds is the similarity grid of Figure 6.
var Fig6Thresholds = []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 1.0}

// Fig6 regenerates the OLS threshold sweep: phase count vs similarity
// threshold per workload.
func Fig6(lab *Lab) ([]Series, error) {
	var out []Series
	for _, name := range AllWorkloads() {
		run, err := lab.Run(name, Reference, tpu.V2)
		if err != nil {
			return nil, err
		}
		counts := analyzer.OLSSweep(run.Steps, Fig6Thresholds)
		s := Series{Workload: name}
		for i, th := range Fig6Thresholds {
			s.X = append(s.X, th)
			s.Y = append(s.Y, float64(counts[i]))
		}
		out = append(out, s)
	}
	return out, nil
}

// --------------------------------------------------------- Figures 7, 8, 9

// CoverageRow is one workload's top-3 phase coverage decomposition.
type CoverageRow struct {
	Workload string
	// Top are the individual shares of the three longest phases (the
	// stacked colors of the paper's figures); Total is their sum.
	Top   [3]float64
	Total float64
	Err   string
}

func coverageRow(name string, phases []*analyzer.Phase) CoverageRow {
	row := CoverageRow{Workload: name}
	var total float64
	for _, p := range phases {
		total += float64(p.Total)
	}
	if total == 0 {
		return row
	}
	for i, p := range analyzer.SortByTotal(phases) {
		if i >= 3 {
			break
		}
		row.Top[i] = float64(p.Total) / total
		row.Total += row.Top[i]
	}
	return row
}

// Fig7 regenerates top-3 phase coverage under OLS at the 70% threshold.
func Fig7(lab *Lab) ([]CoverageRow, error) {
	var out []CoverageRow
	for _, name := range AllWorkloads() {
		run, err := lab.Run(name, Reference, tpu.V2)
		if err != nil {
			return nil, err
		}
		phases := analyzer.OLS(run.Steps, analyzer.DefaultThreshold)
		out = append(out, coverageRow(name, phases))
	}
	return out, nil
}

// Fig8 regenerates top-3 phase coverage under DBSCAN with min samples 30
// (noise kept as a cluster, as the paper does).
func Fig8(lab *Lab) ([]CoverageRow, error) {
	var out []CoverageRow
	for _, name := range AllWorkloads() {
		run, err := lab.Run(name, Reference, tpu.V2)
		if err != nil {
			return nil, err
		}
		m := run.Front.Matrix(analyzer.Options{})
		res, err := cluster.DBSCAN(m, 30, 0, AnalyzerBudget, 0)
		if err != nil {
			out = append(out, CoverageRow{Workload: name, Err: err.Error()})
			continue
		}
		phases := phasesFromLabels(run.Steps, res.Labels)
		out = append(out, coverageRow(name, phases))
	}
	return out, nil
}

// Fig9 regenerates top-3 phase coverage under k-means with k = 5.
func Fig9(lab *Lab) ([]CoverageRow, error) {
	var out []CoverageRow
	for _, name := range AllWorkloads() {
		run, err := lab.Run(name, Reference, tpu.V2)
		if err != nil {
			return nil, err
		}
		m := run.Front.Matrix(analyzer.Options{})
		res, err := cluster.KMeans(m, 5, 1, AnalyzerBudget, 0)
		if err != nil {
			out = append(out, CoverageRow{Workload: name, Err: err.Error()})
			continue
		}
		phases := phasesFromLabels(run.Steps, res.Assignment)
		out = append(out, coverageRow(name, phases))
	}
	return out, nil
}

// phasesFromLabels mirrors the analyzer's cluster→phase construction for
// direct clustering results.
func phasesFromLabels(steps []*trace.StepStat, labels []int) []*analyzer.Phase {
	byLabel := map[int][]*trace.StepStat{}
	var order []int
	for i, s := range steps {
		l := labels[i]
		if _, ok := byLabel[l]; !ok {
			order = append(order, l)
		}
		byLabel[l] = append(byLabel[l], s)
	}
	var out []*analyzer.Phase
	for id, l := range order {
		p := &analyzer.Phase{ID: id}
		for _, s := range byLabel[l] {
			// Reuse OLS's accumulation by building tiny single-step
			// phases and merging; simpler to recompute inline.
			if len(p.Steps) == 0 || s.Start < p.Start {
				p.Start = s.Start
			}
			if s.End > p.End {
				p.End = s.End
			}
			p.Total += s.End.Sub(s.Start)
			p.Steps = append(p.Steps, s)
		}
		out = append(out, p)
	}
	return out
}

// --------------------------------------------------------- Figures 10-13

// UtilRow is one workload's idle/MXU pair for both generations.
type UtilRow struct {
	Workload string
	IdleV2   float64
	IdleV3   float64
	MXUV2    float64
	MXUV3    float64
}

func utilRows(lab *Lab, names []string, variant Variant) ([]UtilRow, error) {
	var out []UtilRow
	for _, name := range names {
		r2, err := lab.Run(name, variant, tpu.V2)
		if err != nil {
			return nil, err
		}
		r3, err := lab.Run(name, variant, tpu.V3)
		if err != nil {
			return nil, err
		}
		out = append(out, UtilRow{
			Workload: name,
			IdleV2:   r2.IdleFrac, IdleV3: r3.IdleFrac,
			MXUV2: r2.MXUUtil, MXUV3: r3.MXUUtil,
		})
	}
	return out, nil
}

// Fig10and11 regenerates TPU idle time (Fig 10) and MXU utilization
// (Fig 11) per workload for TPUv2 and TPUv3: one set of runs, two figures.
func Fig10and11(lab *Lab) ([]UtilRow, error) {
	return utilRows(lab, AllWorkloads(), Reference)
}

// Fig12and13 regenerates idle time (Fig 12) and MXU utilization (Fig 13)
// for the reduced-dataset variants.
func Fig12and13(lab *Lab) ([]UtilRow, error) {
	return utilRows(lab, SmallDatasetWorkloads(), Small)
}

// ---------------------------------------------------------------- Table II

// Table2Cell is one (workload, algorithm) column: the top-5 operators of
// the most time-consuming phase per device.
type Table2Cell struct {
	Workload  string
	Algorithm analyzer.Algorithm
	HostOps   []string
	TPUOps    []string
	Err       string // "memory budget exceeded" for the paper's OOM cells
}

// Table2Algorithms mirrors the paper's column order.
var Table2Algorithms = []analyzer.Algorithm{analyzer.KMeansAlgo, analyzer.DBSCANAlgo, analyzer.OLSAlgo}

// Table2 regenerates the top-operator table for one generation, plus
// per-op appearance totals across all cells (the paper's Total columns).
func Table2(lab *Lab, version tpu.Version) ([]Table2Cell, map[string]int, error) {
	var cells []Table2Cell
	totals := make(map[string]int)
	for _, name := range AllWorkloads() {
		run, err := lab.Run(name, Reference, version)
		if err != nil {
			return nil, nil, err
		}
		for _, algo := range Table2Algorithms {
			cell := Table2Cell{Workload: name, Algorithm: algo}
			rep, err := run.Front.Analyze(name, algo,
				analyzer.Options{Seed: 1, MemoryBudget: AnalyzerBudget})
			if err != nil {
				if errors.Is(err, cluster.ErrMemoryBudget) {
					cell.Err = "memory budget exceeded"
					cells = append(cells, cell)
					continue
				}
				return nil, nil, err
			}
			for _, op := range rep.TopHostOps {
				cell.HostOps = append(cell.HostOps, op.Name)
				totals["host:"+op.Name]++
			}
			for _, op := range rep.TopTPUOps {
				cell.TPUOps = append(cell.TPUOps, op.Name)
				totals["tpu:"+op.Name]++
			}
			cells = append(cells, cell)
		}
	}
	return cells, totals, nil
}

// --------------------------------------------------------- Figures 14-16

// Fig14Row is one optimizer speedup measurement.
type Fig14Row struct {
	Workload         string
	MeasuredSpeedup  float64
	ProjectedSpeedup float64
}

// Fig14 regenerates the optimizer speedups on TPUv2 for the long-running
// workloads (the paper's "twenty minutes or more" criterion).
func Fig14(stepsOverride int) ([]Fig14Row, error) {
	var out []Fig14Row
	for _, name := range LongWorkloads() {
		w, err := workloads.Get(name)
		if err != nil {
			return nil, err
		}
		res, err := optimizer.Optimize(w, optimizer.Options{Version: tpu.V2, Steps: stepsOverride})
		if err != nil {
			return nil, err
		}
		out = append(out, Fig14Row{
			Workload:         name,
			MeasuredSpeedup:  res.MeasuredSpeedup,
			ProjectedSpeedup: res.ProjectedSpeedup,
		})
	}
	return out, nil
}

// OptRow is one naive workload's before/after utilization for Figures
// 15 and 16.
type OptRow struct {
	Workload string
	Version  tpu.Version

	IdleBefore, IdleAfter float64
	MXUBefore, MXUAfter   float64
	Speedup               float64
}

// Fig15and16 regenerates the naive-implementation idle (Fig 15) and MXU
// utilization (Fig 16) with and without TPUPoint-Optimizer, per
// generation.
func Fig15and16(stepsOverride int) ([]OptRow, error) {
	var out []OptRow
	for _, name := range LongWorkloads() {
		for _, v := range []tpu.Version{tpu.V2, tpu.V3} {
			w, err := workloads.Get(name)
			if err != nil {
				return nil, err
			}
			res, err := optimizer.Optimize(w.Naive(), optimizer.Options{Version: v, Steps: stepsOverride})
			if err != nil {
				return nil, err
			}
			out = append(out, OptRow{
				Workload:   name,
				Version:    v,
				IdleBefore: res.BaselineIdle, IdleAfter: res.OptimizedIdle,
				MXUBefore: res.BaselineMXU, MXUAfter: res.OptimizedMXU,
				Speedup: res.MeasuredSpeedup,
			})
		}
	}
	return out, nil
}

// FormatPct renders a fraction as a percent string for report printing.
func FormatPct(f float64) string { return fmt.Sprintf("%5.1f%%", 100*f) }
