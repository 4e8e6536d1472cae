package prng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("streams diverged at %d: %d != %d", i, av, bv)
		}
	}
}

func TestDistinctSeedsDiverge(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical values", same)
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(5)
	for i := 0; i < 10000; i++ {
		v := s.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %g", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(11)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("mean of uniform draw = %g, want ~0.5", mean)
	}
}

func TestIntnRange(t *testing.T) {
	s := New(13)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := s.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn(10) out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Fatalf("Intn(10) hit only %d of 10 values in 1000 draws", len(seen))
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestNormalMoments(t *testing.T) {
	s := New(17)
	const n = 200000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := s.Normal(10, 2)
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean-10) > 0.05 {
		t.Errorf("Normal mean = %g, want ~10", mean)
	}
	if math.Abs(math.Sqrt(variance)-2) > 0.05 {
		t.Errorf("Normal stddev = %g, want ~2", math.Sqrt(variance))
	}
}

func TestJitterBounds(t *testing.T) {
	s := New(19)
	for i := 0; i < 10000; i++ {
		v := s.Jitter(100, 0.1)
		if v < 90 || v > 110 {
			t.Fatalf("Jitter(100, 0.1) out of [90,110]: %g", v)
		}
	}
}

func TestJitterZeroFactor(t *testing.T) {
	s := New(19)
	if v := s.Jitter(42, 0); v != 42 {
		t.Fatalf("Jitter with f=0 changed value: %g", v)
	}
}

func TestPermIsPermutation(t *testing.T) {
	f := func(seed uint64) bool {
		s := New(seed)
		n := 1 + int(seed%50)
		p := s.Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUint64BitSpread(t *testing.T) {
	// Every bit position should flip at least once over a modest sample.
	s := New(23)
	var ones uint64
	var zeros uint64
	for i := 0; i < 1000; i++ {
		v := s.Uint64()
		ones |= v
		zeros |= ^v
	}
	if ones != ^uint64(0) {
		t.Errorf("some bits never set: %064b", ones)
	}
	if zeros != ^uint64(0) {
		t.Errorf("some bits never cleared: %064b", zeros)
	}
}
