package experiments

import (
	"fmt"
	"testing"
)

// TestRunArchiveBenchReportShape runs the codec benchmark at a small
// size and checks the document carries every kernel, the codec speedup
// keys the benchdiff gate reads, and allocs/op on the wire kernels.
func TestRunArchiveBenchReportShape(t *testing.T) {
	const n = 200
	rep, err := RunArchiveBench([]int{n}, 2, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []struct{ kernel, mode string }{
		{"archive_encode", "serial"},
		{"archive_encode_par", "parallel"},
		{"archive_decode", "serial"},
		{"archive_decode_par", "parallel"},
		{"wire_marshal", "pooled"},
		{"wire_unmarshal", "serial"},
		{"repo_diff", "serial"},
	} {
		if rep.find(want.kernel, want.mode, n) == nil {
			t.Fatalf("report is missing %s/%s n=%d", want.kernel, want.mode, n)
		}
	}
	for _, key := range []string{
		fmt.Sprintf("archive_encode_par_vs_serial_n%d", n),
		fmt.Sprintf("archive_decode_par_vs_serial_n%d", n),
	} {
		if _, ok := rep.Speedups[key]; !ok {
			t.Fatalf("report is missing speedup %q (have %v)", key, rep.Speedups)
		}
	}
	if e := rep.find("wire_unmarshal", "serial", n); e.AllocsPerOp <= 0 {
		t.Fatal("wire_unmarshal reported no allocations")
	}
	// Clustering-only fields stay zero on codec reports so omitempty
	// drops them from BENCH_archive.json.
	if rep.Dims != 0 || rep.K != 0 || rep.MinPts != 0 {
		t.Fatalf("codec report carries clustering fields: dims=%d k=%d minPts=%d",
			rep.Dims, rep.K, rep.MinPts)
	}
}
