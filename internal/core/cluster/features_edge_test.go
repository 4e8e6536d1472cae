package cluster

// Edge-case coverage for feature normalization: zero-variance columns,
// single-step windows, and the NaN/Inf guard.

import (
	"math"
	"testing"

	"repro/internal/trace"
)

func TestStandardizeZeroVarianceColumns(t *testing.T) {
	m := NewMatrix(5, 3)
	for i := 0; i < 5; i++ {
		m.Set(i, 0, float64(i)) // varying
		m.Set(i, 1, 42)         // constant non-zero
		m.Set(i, 2, 0)          // constant zero
	}
	Standardize(m, 0)
	for i := 0; i < 5; i++ {
		if m.At(i, 1) != 0 {
			t.Fatalf("constant column not zeroed: row %d = %g", i, m.At(i, 1))
		}
		if m.At(i, 2) != 0 {
			t.Fatalf("zero column not preserved as zero: row %d = %g", i, m.At(i, 2))
		}
		if math.IsNaN(m.At(i, 0)) {
			t.Fatalf("varying column became NaN at row %d", i)
		}
	}
}

// TestStandardizeSingleStepWindow: a one-row matrix (single profiled step)
// has zero variance everywhere; every entry must become 0, never NaN.
func TestStandardizeSingleStepWindow(t *testing.T) {
	m := NewMatrix(1, 4)
	for j := 0; j < 4; j++ {
		m.Set(0, j, float64(3*j+1))
	}
	Standardize(m, 0)
	for j := 0; j < 4; j++ {
		if v := m.At(0, j); v != 0 {
			t.Fatalf("single-row column %d = %g, want 0", j, v)
		}
	}
}

func TestStandardizeNaNGuard(t *testing.T) {
	cases := []struct {
		name string
		bad  float64
	}{
		{"NaN", math.NaN()},
		{"+Inf", math.Inf(1)},
		{"-Inf", math.Inf(-1)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := NewMatrix(4, 2)
			for i := 0; i < 4; i++ {
				m.Set(i, 0, float64(i))
				m.Set(i, 1, float64(i*i))
			}
			m.Set(2, 1, tc.bad) // poison one cell of column 1
			Standardize(m, 0)
			for i := 0; i < 4; i++ {
				if v := m.At(i, 1); v != 0 {
					t.Fatalf("poisoned column row %d = %g, want 0", i, v)
				}
				if v := m.At(i, 0); math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("clean column row %d corrupted: %g", i, v)
				}
			}
		})
	}
}

// TestStandardizeEmptyAndDegenerate: empty and zero-column matrices pass
// through untouched instead of dividing by zero.
func TestStandardizeEmptyAndDegenerate(t *testing.T) {
	if m := Standardize(NewMatrix(0, 0), 0); m.Rows != 0 {
		t.Fatal("empty matrix mutated")
	}
	if m := Standardize(NewMatrix(3, 0), 0); m.Cols != 0 {
		t.Fatal("zero-column matrix mutated")
	}
}

// TestFeaturesSingleStep: a one-step window still produces a full
// (count, duration) row and survives the standardize → PCA → k-means
// pipeline without NaNs.
func TestFeaturesSingleStep(t *testing.T) {
	s := trace.NewStepStat(1)
	s.Observe(trace.Event{Name: "fusion", Device: trace.TPU, Start: 0, Dur: 100, Step: 1})
	s.Observe(trace.Event{Name: "copy", Device: trace.Host, Start: 0, Dur: 10, Step: 1})
	m, keys := Features([]*trace.StepStat{s}, 0)
	if m.Rows != 1 || len(keys) != 2 || m.Cols != 4 {
		t.Fatalf("matrix %dx%d with %d keys", m.Rows, m.Cols, len(keys))
	}
	Standardize(m, 0)
	for j := 0; j < m.Cols; j++ {
		if m.At(0, j) != 0 {
			t.Fatalf("single-step standardized col %d = %g", j, m.At(0, j))
		}
	}
	red := PCA(m, 2, 0)
	r, err := KMeans(red, 1, 1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(r.SSD) {
		t.Fatal("single-step k-means SSD is NaN")
	}
}

// TestFeaturesStepWithNoOps: steps with empty op maps yield all-zero rows
// (zero-variance features), which the pipeline must tolerate.
func TestFeaturesStepWithNoOps(t *testing.T) {
	s1 := trace.NewStepStat(1)
	s1.Observe(trace.Event{Name: "fusion", Device: trace.TPU, Start: 0, Dur: 100, Step: 1})
	s2 := trace.NewStepStat(2) // no ops observed
	m, _ := Features([]*trace.StepStat{s1, s2}, 0)
	row := m.Row(1)
	for j, v := range row {
		if v != 0 {
			t.Fatalf("empty step row col %d = %g", j, v)
		}
	}
	Standardize(m, 0)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if v := m.At(i, j); math.IsNaN(v) {
				t.Fatalf("NaN at (%d, %d)", i, j)
			}
		}
	}
	if _, err := DBSCAN(m, 1, 0, 0, 0); err != nil {
		t.Fatalf("DBSCAN on degenerate features: %v", err)
	}
}
