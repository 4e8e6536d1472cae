package cluster

import (
	"math"
	"testing"
)

// bicSeries scores every member of a k-means sweep.
func bicSeries(m *Matrix, sweep []*KMeansResult) []float64 {
	out := make([]float64, len(sweep))
	for i, r := range sweep {
		out[i] = BIC(m, r)
	}
	return out
}

func TestBICPrefersTrueK(t *testing.T) {
	m, _ := blobs(600, 21)
	_, sweep := ssdSeries(t, m, 8, 3)
	scores := bicSeries(m, sweep)
	if len(scores) != 8 {
		t.Fatalf("scores = %d", len(scores))
	}
	k := BestBIC(scores)
	if k < 3 || k > 5 {
		t.Fatalf("BIC chose k=%d for 3 blobs (scores %v)", k, scores)
	}
	// BIC must punish k=1 hard relative to the winner.
	if scores[0] >= scores[k-1] {
		t.Fatalf("k=1 (%.1f) scored no worse than k=%d (%.1f)", scores[0], k, scores[k-1])
	}
}

func TestBICAgreesWithElbowOnBlobs(t *testing.T) {
	m, _ := blobs(450, 23)
	ssd, sweep := ssdSeries(t, m, 10, 5)
	bic := bicSeries(m, sweep)
	ke := Elbow(ssd)
	kb := BestBIC(bic)
	if diff := ke - kb; diff > 2 || diff < -2 {
		t.Fatalf("elbow k=%d and BIC k=%d disagree badly", ke, kb)
	}
}

func TestBICDegenerateCases(t *testing.T) {
	m, _ := blobs(5, 1)
	r, err := KMeans(m, 5, 1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if v := BIC(m, r); !math.IsInf(v, -1) {
		t.Fatalf("BIC with k=n should be -Inf, got %g", v)
	}
	if BestBIC(nil) != 1 {
		t.Fatal("BestBIC(nil) should default to 1")
	}
}

func BenchmarkBICSweep(b *testing.B) {
	m, _ := blobs(400, 9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, sweep := ssdSeries(b, m, 10, 1)
		bicSeries(m, sweep)
	}
}
