package tpupoint

// One benchmark per internal/experiments function, that is per table or
// figure of the paper's evaluation, with figures drawn from the same runs
// (10 and 11, 12 and 13, 15 and 16) sharing one. Each bench regenerates
// its artifacts end to end (simulated training runs included, served from
// a shared lab cache within a bench loop).
//
// Run with:
//
//	go test -bench=. -benchmem
//
// cmd/paperbench prints the same artifacts in the paper's layout.

import (
	"testing"

	"repro/internal/experiments"
	"repro/internal/tpu"
)

// benchSteps shortens runs so the full suite stays in benchmark budgets;
// the shapes asserted in experiments_test.go hold at this scale too.
const benchSteps = 300

func newBenchLab() *experiments.Lab {
	lab := experiments.NewLab()
	lab.StepsOverride = benchSteps
	return lab
}

func BenchmarkTable1Workloads(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table1(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4KMeansElbow(b *testing.B) {
	for i := 0; i < b.N; i++ {
		lab := newBenchLab()
		if _, err := experiments.Fig4(lab); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5DBSCANNoise(b *testing.B) {
	for i := 0; i < b.N; i++ {
		lab := newBenchLab()
		if _, err := experiments.Fig5(lab); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6OLSThreshold(b *testing.B) {
	for i := 0; i < b.N; i++ {
		lab := newBenchLab()
		if _, err := experiments.Fig6(lab); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7OLSCoverage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		lab := newBenchLab()
		if _, err := experiments.Fig7(lab); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8DBSCANCoverage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		lab := newBenchLab()
		if _, err := experiments.Fig8(lab); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig9KMeansCoverage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		lab := newBenchLab()
		if _, err := experiments.Fig9(lab); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig10And11Utilization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		lab := newBenchLab()
		if _, err := experiments.Fig10and11(lab); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig12And13SmallDataset(b *testing.B) {
	for i := 0; i < b.N; i++ {
		lab := newBenchLab()
		if _, err := experiments.Fig12and13(lab); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2TopOps(b *testing.B) {
	for i := 0; i < b.N; i++ {
		lab := newBenchLab()
		if _, _, err := experiments.Table2(lab, tpu.V2); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig14OptimizerSpeedup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig14(benchSteps); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig15And16Optimizer(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig15and16(benchSteps); err != nil {
			b.Fatal(err)
		}
	}
}
