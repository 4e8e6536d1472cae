package experiments

import (
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/repo"
	"repro/internal/tpu"
	"repro/internal/trace"
)

// shortLab shares one shortened-run lab across the test file: full-length
// runs belong to cmd/paperbench and the root bench suite.
var shortLab = func() *Lab {
	l := NewLab()
	l.StepsOverride = 220
	return l
}()

func TestTable1MatchesPaper(t *testing.T) {
	rows, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 {
		t.Fatalf("rows = %d, want 9", len(rows))
	}
	byName := map[string]Table1Row{}
	for _, r := range rows {
		byName[r.Name] = r
		if len(r.Params) == 0 || r.SizeMiB <= 0 || r.Records <= 0 {
			t.Fatalf("degenerate row %+v", r)
		}
	}
	if r := byName["resnet-imagenet"]; r.Model != "ResNet-50" || r.BatchSize != 1024 {
		t.Fatalf("resnet row %+v", r)
	}
	if r := byName["bert-squad"]; r.SizeMiB < 420 || r.SizeMiB > 425 {
		t.Fatalf("squad size %.2f, want ~422.27", r.SizeMiB)
	}
}

func TestLabCachesRuns(t *testing.T) {
	r1, err := shortLab.Run("dcgan-mnist", Reference, tpu.V2)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := shortLab.Run("dcgan-mnist", Reference, tpu.V2)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Fatal("lab did not cache the run")
	}
	if len(r1.Steps) == 0 {
		t.Fatal("run has no profile data")
	}
	// The run was archived, and its steps are the archive's.
	_, ar, err := shortLab.repo.Get("dcgan-mnist-reference-TPUv2")
	if err != nil {
		t.Fatal(err)
	}
	records, err := ar.Records()
	if err != nil {
		t.Fatal(err)
	}
	if n := len(trace.AggregateSteps(records)); n != len(r1.Steps) {
		t.Fatalf("archive holds %d steps, the run %d", n, len(r1.Steps))
	}
}

// TestLabRunsEachKeyOnce: concurrent Runs of one key share one run, which
// the Lab's repository archives once, and no goroutine of it outlives
// the Runs.
func TestLabRunsEachKeyOnce(t *testing.T) {
	before := runtime.NumGoroutine()
	lab := NewLab()
	lab.StepsOverride = 60
	const callers = 4
	results := make([]*RunResult, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = lab.Run("dcgan-mnist", Reference, tpu.V3)
		}()
	}
	wg.Wait()
	for i := range callers {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if results[i] != results[0] {
			t.Fatalf("caller %d got a different run", i)
		}
	}
	runs, err := lab.repo.List(repo.Filter{})
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 || runs[0].RunID != "dcgan-mnist-reference-TPUv3" {
		t.Fatalf("repository lists %+v, want the one run", runs)
	}
	// A closed pipe's receive loop ends just after Close returns.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the runs, %d before", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestFig4SSDFalls(t *testing.T) {
	series, err := Fig4(shortLab)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 9 {
		t.Fatalf("series = %d", len(series))
	}
	for _, s := range series {
		if s.Err != "" {
			t.Fatalf("%s failed: %s", s.Workload, s.Err)
		}
		if len(s.Y) != 15 {
			t.Fatalf("%s sweep has %d points", s.Workload, len(s.Y))
		}
		if s.Y[14] >= s.Y[0] {
			t.Errorf("%s SSD did not fall: %.1f -> %.1f", s.Workload, s.Y[0], s.Y[14])
		}
	}
}

func TestFig5NoiseRises(t *testing.T) {
	series, err := Fig5(shortLab)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range series {
		if s.Err != "" {
			continue // the budget failure is legitimate for big runs
		}
		first, last := s.Y[0], s.Y[len(s.Y)-1]
		if last < first {
			t.Errorf("%s noise ratio fell: %v", s.Workload, s.Y)
		}
	}
}

func TestFig6Observation1(t *testing.T) {
	series, err := Fig6(shortLab)
	if err != nil {
		t.Fatal(err)
	}
	at70 := indexOf(Fig6Thresholds, 0.7)
	at100 := indexOf(Fig6Thresholds, 1.0)
	condensed := 0
	for _, s := range series {
		if s.Y[at70] <= 8 {
			condensed++
		}
		if s.Y[at100] < 4*s.Y[at70] {
			t.Errorf("%s: no blow-up at 100%%: %v", s.Workload, s.Y)
		}
	}
	// Observation 1: most workloads summarize into few phases at 70%.
	if condensed < 7 {
		t.Fatalf("only %d of 9 workloads condensed at 70%%", condensed)
	}
}

func TestFig7Observation2(t *testing.T) {
	rows, err := Fig7(shortLab)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		// Observation 2 / Figure 7: top-3 phases cover >= 95%.
		if r.Total < 0.95 {
			t.Errorf("%s OLS top-3 coverage %.3f < 0.95", r.Workload, r.Total)
		}
	}
}

func TestFig8And9CoverageDominatedByTop3(t *testing.T) {
	for figName, fn := range map[string]func(*Lab) ([]CoverageRow, error){
		"fig8-dbscan": Fig8,
		"fig9-kmeans": Fig9,
	} {
		rows, err := fn(shortLab)
		if err != nil {
			t.Fatalf("%s: %v", figName, err)
		}
		for _, r := range rows {
			if r.Err != "" {
				continue
			}
			if r.Total < 0.75 {
				t.Errorf("%s %s top-3 coverage %.3f < 0.75", figName, r.Workload, r.Total)
			}
		}
	}
}

func TestFig10And11Observation5(t *testing.T) {
	rows, err := Fig10and11(shortLab)
	if err != nil {
		t.Fatal(err)
	}
	var i2, i3, m2, m3 float64
	for _, r := range rows {
		i2 += r.IdleV2
		i3 += r.IdleV3
		m2 += r.MXUV2
		m3 += r.MXUV3
		if r.IdleV3 <= r.IdleV2 {
			t.Errorf("%s: v3 idle %.3f not above v2 %.3f", r.Workload, r.IdleV3, r.IdleV2)
		}
		if r.MXUV3 >= r.MXUV2 {
			t.Errorf("%s: v3 MXU %.3f not below v2 %.3f", r.Workload, r.MXUV3, r.MXUV2)
		}
	}
	n := float64(len(rows))
	// Paper averages: idle 38.90% (v2) / 43.53% (v3); MXU 22.72% / 11.34%.
	if avg := i2 / n; avg < 0.30 || avg > 0.48 {
		t.Errorf("v2 idle average %.3f, paper 0.389", avg)
	}
	if avg := i3 / n; avg < 0.35 || avg > 0.53 {
		t.Errorf("v3 idle average %.3f, paper 0.435", avg)
	}
	if avg := m2 / n; avg < 0.15 || avg > 0.32 {
		t.Errorf("v2 MXU average %.3f, paper 0.227", avg)
	}
	if ratio := m2 / m3; ratio < 1.6 || ratio > 2.5 {
		t.Errorf("v2/v3 MXU ratio %.2f, paper ~2", ratio)
	}
}

func TestFig12And13Observation6(t *testing.T) {
	smalls, err := Fig12and13(shortLab)
	if err != nil {
		t.Fatal(err)
	}
	var refs []UtilRow
	for _, name := range SmallDatasetWorkloads() {
		r2, err := shortLab.Run(name, Reference, tpu.V2)
		if err != nil {
			t.Fatal(err)
		}
		r3, err := shortLab.Run(name, Reference, tpu.V3)
		if err != nil {
			t.Fatal(err)
		}
		refs = append(refs, UtilRow{Workload: name,
			IdleV2: r2.IdleFrac, IdleV3: r3.IdleFrac,
			MXUV2: r2.MXUUtil, MXUV3: r3.MXUUtil})
	}
	var resnetShift, otherShift float64
	for i, small := range smalls {
		ref := refs[i]
		if small.IdleV2 <= ref.IdleV2 {
			t.Errorf("%s small idle %.3f not above reference %.3f", small.Workload, small.IdleV2, ref.IdleV2)
		}
		if small.MXUV2 >= ref.MXUV2 {
			t.Errorf("%s small MXU %.3f not below reference %.3f", small.Workload, small.MXUV2, ref.MXUV2)
		}
		shift := small.IdleV2 - ref.IdleV2
		if small.Workload == "resnet-imagenet" {
			resnetShift = shift
		} else if shift > otherShift {
			otherShift = shift
		}
	}
	// "ResNet in particular experiences the greatest change."
	if resnetShift <= otherShift {
		t.Errorf("resnet shift %.3f not the largest (other max %.3f)", resnetShift, otherShift)
	}
}

func TestTable2Observation3(t *testing.T) {
	cells, totals, err := Table2(shortLab, tpu.V2)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 27 {
		t.Fatalf("cells = %d, want 9 workloads x 3 algorithms", len(cells))
	}
	// The data-exchange ops dominate host columns; fusion dominates TPU.
	if totals["tpu:fusion"] < 18 {
		t.Errorf("fusion appears %d times, want near-universal", totals["tpu:fusion"])
	}
	if totals["host:OutfeedDequeueTuple"]+totals["host:TransferBufferToInfeedLocked"] < 18 {
		t.Errorf("infeed/outfeed host ops appear %d+%d times",
			totals["host:OutfeedDequeueTuple"], totals["host:TransferBufferToInfeedLocked"])
	}
	if totals["tpu:Reshape"] < 9 {
		t.Errorf("Reshape appears %d times, want common", totals["tpu:Reshape"])
	}
	// OLS never fails on memory, matching the paper's claim.
	for _, c := range cells {
		if c.Algorithm == "ols" && c.Err != "" {
			t.Errorf("OLS failed on %s: %s", c.Workload, c.Err)
		}
	}
}

func TestFig14OptimizerSpeedups(t *testing.T) {
	rows, err := Fig14(260)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		// The paper reports ~1.12x on average for the long workloads.
		if r.ProjectedSpeedup < 1.02 || r.ProjectedSpeedup > 1.35 {
			t.Errorf("%s projected speedup %.3f outside the paper's regime", r.Workload, r.ProjectedSpeedup)
		}
	}
}

func TestFig15And16NaiveOptimization(t *testing.T) {
	rows, err := Fig15and16(260)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 2 workloads x 2 versions", len(rows))
	}
	var v2Gain, v3Gain float64
	for _, r := range rows {
		if r.IdleAfter >= r.IdleBefore {
			t.Errorf("%s %v: idle rose %.3f -> %.3f", r.Workload, r.Version, r.IdleBefore, r.IdleAfter)
		}
		if r.MXUAfter <= r.MXUBefore {
			t.Errorf("%s %v: MXU fell %.3f -> %.3f", r.Workload, r.Version, r.MXUBefore, r.MXUAfter)
		}
		gain := r.MXUAfter - r.MXUBefore
		if r.Version == tpu.V2 {
			v2Gain += gain
		} else {
			v3Gain += gain
		}
	}
	// Figure 16: the MXU change is pronounced on TPUv2.
	if v2Gain <= v3Gain {
		t.Errorf("v2 MXU gain %.3f not above v3 %.3f", v2Gain, v3Gain)
	}
}

func indexOf(xs []float64, v float64) int {
	for i, x := range xs {
		if x == v {
			return i
		}
	}
	return -1
}

func TestFormatPct(t *testing.T) {
	if got := FormatPct(0.389); !strings.Contains(got, "38.9") {
		t.Fatalf("FormatPct = %q", got)
	}
}
