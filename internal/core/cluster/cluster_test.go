package cluster

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/prng"
	"repro/internal/simclock"
	"repro/internal/trace"
)

// blobs builds a matrix with three well-separated Gaussian blobs.
func blobs(n int, seed uint64) (*Matrix, []int) {
	rng := prng.New(seed)
	centers := [][2]float64{{0, 0}, {20, 0}, {0, 20}}
	m := NewMatrix(n, 2)
	truth := make([]int, n)
	for i := 0; i < n; i++ {
		c := i % 3
		truth[i] = c
		m.Set(i, 0, centers[c][0]+rng.Normal(0, 1))
		m.Set(i, 1, centers[c][1]+rng.Normal(0, 1))
	}
	return m, truth
}

// ssdSeries runs the k-means sweep and returns the SSD series the elbow
// method reads, with the sweep it came from.
func ssdSeries(t testing.TB, m *Matrix, kMax int, seed uint64) ([]float64, []*KMeansResult) {
	t.Helper()
	sweep, err := KMeansSweep(m, kMax, seed, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	ssd := make([]float64, len(sweep))
	for i, r := range sweep {
		ssd[i] = r.SSD
	}
	return ssd, sweep
}

func TestKMeansRecoversBlobs(t *testing.T) {
	m, truth := blobs(300, 1)
	r, err := KMeans(m, 3, 7, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	// All points with the same truth label must share a cluster.
	label := map[int]int{}
	errors := 0
	for i, c := range r.Assignment {
		if want, ok := label[truth[i]]; ok {
			if c != want {
				errors++
			}
		} else {
			label[truth[i]] = c
		}
	}
	if errors > 6 {
		t.Fatalf("k-means misassigned %d of 300 points", errors)
	}
	if r.SSD <= 0 {
		t.Fatal("SSD not positive")
	}
}

func TestKMeansSSDDecreasesWithK(t *testing.T) {
	m, _ := blobs(300, 2)
	ssd, _ := ssdSeries(t, m, 8, 1)
	// Not strictly monotone (local optima), but k=1 must dominate k=3
	// and the overall trend must fall.
	if ssd[2] >= ssd[0] {
		t.Fatalf("SSD(3)=%g >= SSD(1)=%g", ssd[2], ssd[0])
	}
	if ssd[7] >= ssd[0]/2 {
		t.Fatalf("SSD(8)=%g did not fall substantially from SSD(1)=%g", ssd[7], ssd[0])
	}
}

func TestKMeansElbowAtTrueK(t *testing.T) {
	m, _ := blobs(600, 3)
	ssd, _ := ssdSeries(t, m, 10, 1)
	k := Elbow(ssd)
	if k < 2 || k > 4 {
		t.Fatalf("elbow at k=%d, want ~3 (ssd=%v)", k, ssd)
	}
}

func TestKMeansKGreaterThanRows(t *testing.T) {
	m, _ := blobs(4, 1)
	r, err := KMeans(m, 10, 1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.K != 4 {
		t.Fatalf("K clamped to %d, want 4", r.K)
	}
}

func TestKMeansErrors(t *testing.T) {
	m, _ := blobs(10, 1)
	if _, err := KMeans(m, 0, 1, 0, 0); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := KMeans(NewMatrix(0, 0), 1, 1, 0, 0); err == nil {
		t.Fatal("empty matrix accepted")
	}
	if _, err := KMeansSweep(m, 0, 1, 0, 0); err == nil {
		t.Fatal("sweep kMax=0 accepted")
	}
}

func TestKMeansBudget(t *testing.T) {
	m, _ := blobs(1000, 1)
	_, err := KMeans(m, 3, 1, 100, 0) // 100 bytes: absurdly small
	if !errors.Is(err, ErrMemoryBudget) {
		t.Fatalf("err = %v, want ErrMemoryBudget", err)
	}
}

func TestKMeansDeterministic(t *testing.T) {
	m, _ := blobs(200, 9)
	a, _ := KMeans(m, 4, 42, 0, 0)
	b, _ := KMeans(m, 4, 42, 0, 0)
	if a.SSD != b.SSD {
		t.Fatal("same seed, different SSD")
	}
	for i := range a.Assignment {
		if a.Assignment[i] != b.Assignment[i] {
			t.Fatal("same seed, different assignment")
		}
	}
}

func TestDBSCANFindsBlobs(t *testing.T) {
	m, truth := blobs(300, 4)
	r, err := DBSCAN(m, 5, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.Clusters != 3 {
		t.Fatalf("clusters = %d, want 3 (noise %d, eps %g)", r.Clusters, r.NoiseCount, r.Eps)
	}
	// Cluster labels must be consistent with truth for non-noise points.
	label := map[int]int{}
	bad := 0
	for i, l := range r.Labels {
		if l == Noise {
			continue
		}
		if want, ok := label[truth[i]]; ok && l != want {
			bad++
		} else if !ok {
			label[truth[i]] = l
		}
	}
	if bad > 6 {
		t.Fatalf("DBSCAN misassigned %d points", bad)
	}
}

func TestDBSCANNoiseGrowsWithMinPts(t *testing.T) {
	m, _ := blobs(240, 5)
	sweep, err := DBSCANSweep(m, 180, 25, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(sweep) != 8 {
		t.Fatalf("sweep points = %d", len(sweep))
	}
	ratios := make([]float64, len(sweep))
	for i, r := range sweep {
		if want := 5 + 25*i; r.MinPts != want {
			t.Fatalf("sweep[%d].MinPts = %d, want %d", i, r.MinPts, want)
		}
		ratios[i] = r.NoiseRatio()
	}
	if ratios[len(ratios)-1] < ratios[0] {
		t.Fatalf("noise ratio not rising: %v", ratios)
	}
	// With minPts 180 > blob size 80, everything is noise.
	if ratios[len(ratios)-1] < 0.99 {
		t.Fatalf("minPts=180 on 80-point blobs should be all noise: %v", ratios)
	}
}

func TestDBSCANBudget(t *testing.T) {
	m, _ := blobs(200, 6)
	_, err := DBSCAN(m, 5, 0, 1000, 0)
	if !errors.Is(err, ErrMemoryBudget) {
		t.Fatalf("err = %v", err)
	}
}

func TestDBSCANErrors(t *testing.T) {
	m, _ := blobs(10, 1)
	if _, err := DBSCAN(m, 0, 0, 0, 0); err == nil {
		t.Fatal("minPts=0 accepted")
	}
	if _, err := DBSCAN(NewMatrix(0, 0), 5, 0, 0, 0); err == nil {
		t.Fatal("empty matrix accepted")
	}
	// A grid with no point on it is an error, never an empty sweep a
	// caller would index into.
	if _, err := DBSCANSweep(m, 4, 25, 0, 0); err == nil {
		t.Fatal("sweep maxPts=4 (empty grid) accepted")
	}
	if _, err := DBSCANSweep(m, 180, 0, 0, 0); err == nil {
		t.Fatal("sweep step=0 accepted")
	}
}

func TestElbow(t *testing.T) {
	// A classic elbow at index 3.
	series := []float64{100, 60, 30, 10, 8, 7, 6.5, 6}
	if k := Elbow(series); k != 4 && k != 3 {
		t.Fatalf("elbow at %d, want 3-4", k)
	}
	if k := Elbow([]float64{5, 4}); k != 2 {
		t.Fatalf("short series elbow = %d", k)
	}
	if k := Elbow(nil); k != 0 {
		t.Fatalf("nil series elbow = %d", k)
	}
}

func TestFeaturesMatrix(t *testing.T) {
	s1 := trace.NewStepStat(1)
	s1.Observe(trace.Event{Name: "fusion", Device: trace.TPU, Start: 0, Dur: 100, Step: 1})
	s1.Observe(trace.Event{Name: "fusion", Device: trace.TPU, Start: 100, Dur: 100, Step: 1})
	s2 := trace.NewStepStat(2)
	s2.Observe(trace.Event{Name: "Reshape", Device: trace.TPU, Start: 200, Dur: 50, Step: 2})

	m, keys := Features([]*trace.StepStat{s1, s2}, 0)
	if m.Rows != 2 || m.Cols != 4 {
		t.Fatalf("matrix %dx%d, want 2x4", m.Rows, m.Cols)
	}
	if len(keys) != 2 {
		t.Fatalf("keys = %v", keys)
	}
	// fusion dominates total time, so it is column pair 0.
	if keys[0].Name != "fusion" {
		t.Fatalf("keys[0] = %v", keys[0])
	}
	if m.At(0, 0) != 2 || m.At(0, 1) != 200 {
		t.Fatalf("fusion features = %g, %g", m.At(0, 0), m.At(0, 1))
	}
	if m.At(1, 2) != 1 || m.At(1, 3) != 50 {
		t.Fatalf("reshape features = %g, %g", m.At(1, 2), m.At(1, 3))
	}
}

func TestFeaturesCapsVocabulary(t *testing.T) {
	steps := make([]*trace.StepStat, 5)
	for i := range steps {
		s := trace.NewStepStat(int64(i))
		for j := 0; j < 150; j++ {
			s.Observe(trace.Event{
				Name:   "op" + string(rune('a'+j%26)) + string(rune('a'+j/26)),
				Device: trace.TPU,
				Start:  simclock.Time(j), Dur: simclock.Duration(j + 1), Step: int64(i),
			})
		}
		steps[i] = s
	}
	m, keys := Features(steps, 0)
	if len(keys) != MaxFeatureOps {
		t.Fatalf("vocabulary = %d, want %d", len(keys), MaxFeatureOps)
	}
	if m.Cols != 2*MaxFeatureOps {
		t.Fatalf("cols = %d", m.Cols)
	}
}

func TestFeaturesEmpty(t *testing.T) {
	m, keys := Features(nil, 0)
	if m.Rows != 0 || keys != nil {
		t.Fatal("empty input should produce empty matrix")
	}
}

func TestStandardize(t *testing.T) {
	m := NewMatrix(4, 2)
	for i := 0; i < 4; i++ {
		m.Set(i, 0, float64(i))
		m.Set(i, 1, 7) // constant column
	}
	Standardize(m, 0)
	var mean, variance float64
	for i := 0; i < 4; i++ {
		mean += m.At(i, 0)
	}
	mean /= 4
	for i := 0; i < 4; i++ {
		d := m.At(i, 0) - mean
		variance += d * d
	}
	variance /= 4
	if math.Abs(mean) > 1e-9 || math.Abs(variance-1) > 1e-9 {
		t.Fatalf("standardized column mean=%g var=%g", mean, variance)
	}
	for i := 0; i < 4; i++ {
		if m.At(i, 1) != 0 {
			t.Fatal("constant column not zeroed")
		}
	}
}

func TestPCAReducesAndPreservesStructure(t *testing.T) {
	// Embed 3 blobs in 10 dims (8 are pure noise); PCA to 2 must keep
	// the blobs separable for k-means.
	rng := prng.New(11)
	n := 300
	m := NewMatrix(n, 10)
	truth := make([]int, n)
	centers := [][2]float64{{0, 0}, {25, 0}, {0, 25}}
	for i := 0; i < n; i++ {
		c := i % 3
		truth[i] = c
		m.Set(i, 0, centers[c][0]+rng.Normal(0, 1))
		m.Set(i, 1, centers[c][1]+rng.Normal(0, 1))
		for j := 2; j < 10; j++ {
			m.Set(i, j, rng.Normal(0, 0.5))
		}
	}
	red := PCA(m, 2, 0)
	if red.Cols != 2 {
		t.Fatalf("PCA cols = %d", red.Cols)
	}
	r, err := KMeans(red, 3, 5, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	label := map[int]int{}
	bad := 0
	for i, c := range r.Assignment {
		if want, ok := label[truth[i]]; ok && c != want {
			bad++
		} else if !ok {
			label[truth[i]] = c
		}
	}
	if bad > 9 {
		t.Fatalf("PCA+kmeans misassigned %d of %d", bad, n)
	}
}

func TestPCANoOpWhenKLarge(t *testing.T) {
	m, _ := blobs(10, 1)
	if out := PCA(m, 5, 0); out != m {
		t.Fatal("PCA should return input when k >= cols")
	}
}

// Property: k-means SSD with k=n is ~0 (every point its own centroid).
func TestPropertyKMeansPerfectFit(t *testing.T) {
	f := func(seed uint64) bool {
		m, _ := blobs(30, seed)
		r, err := KMeans(m, 30, seed, 0, 0)
		if err != nil {
			return false
		}
		return r.SSD < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// Property: DBSCAN labels are either Noise or in [0, Clusters).
func TestPropertyDBSCANLabelRange(t *testing.T) {
	f := func(seed uint64, minPtsRaw uint8) bool {
		m, _ := blobs(60, seed)
		minPts := 1 + int(minPtsRaw%30)
		r, err := DBSCAN(m, minPts, 0, 0, 0)
		if err != nil {
			return false
		}
		for _, l := range r.Labels {
			if l != Noise && (l < 0 || l >= r.Clusters) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkKMeans600x40(b *testing.B) {
	rng := prng.New(1)
	m := NewMatrix(600, 40)
	for i := range m.Data {
		m.Data[i] = rng.Float64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := KMeans(m, 5, 1, 0, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDBSCAN600x40(b *testing.B) {
	rng := prng.New(1)
	m := NewMatrix(600, 40)
	for i := range m.Data {
		m.Data[i] = rng.Float64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DBSCAN(m, 10, 0, 0, 0); err != nil {
			b.Fatal(err)
		}
	}
}
