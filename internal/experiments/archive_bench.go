package experiments

// The archive benchmark harness behind `paperbench -archive-bench`: it
// times the profile-archive codec (internal/archive, serial and
// parallel), the record wire codec (internal/trace, the pooled append
// encoder and the decoder, with allocs/op), and the cross-run diff
// engine (internal/repo) on synthetic record streams. It emits a
// BENCH_archive.json in the same document shape as the analyzer
// benchmark, so cmd/benchdiff tracks it across PRs (with the codec gate
// -min-decode-speedup).

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/archive"
	"repro/internal/repo"
	"repro/internal/simclock"
	"repro/internal/trace"
)

// ArchiveBenchSizes is the record-count sweep. Both sizes run in quick
// mode too (benchdiff matches entries by (kernel, mode, n)); quick only
// shortens the measurement window.
var ArchiveBenchSizes = []int{1_000, 10_000}

// archiveBenchPhases is the per-summary phase count the diff kernel
// aligns — a deliberately hard instance (every phase must be paired).
const archiveBenchPhases = 64

// RunArchiveBench times the codec pipeline end to end: archive encode
// (serial Add loop vs parallel AddBatch), archive decode (open + full
// record scan, per-segment CRC verification included; one worker vs a
// pool — bit-identical output either way), the record wire codec
// (pooled append encoder and decoder, allocs/op reported), and the
// phase-alignment diff. The codec sizes its pools from GOMAXPROCS and
// nothing else, so every entry is timed with GOMAXPROCS set to its
// Workers column: 1 for the serial modes, workers (0 = the current
// GOMAXPROCS) for the parallel ones. quick shortens the measurement
// window for CI smoke runs.
func RunArchiveBench(sizes []int, workers int, quick bool) (*AnalyzerBenchReport, error) {
	if len(sizes) == 0 {
		sizes = ArchiveBenchSizes
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	minTime := 500 * time.Millisecond
	if quick {
		minTime = 100 * time.Millisecond
	}
	rep := &AnalyzerBenchReport{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Quick:      quick,
		Speedups:   map[string]float64{},
	}

	for _, n := range sizes {
		recs := archiveBenchRecords(n)
		meta := archive.Meta{RunID: fmt.Sprintf("bench-%d", n), Workload: "synthetic"}

		encode := func() error {
			w := archive.NewWriter(meta)
			for _, r := range recs {
				w.Add(r)
			}
			if len(w.Finalize(nil)) == 0 {
				return fmt.Errorf("empty archive")
			}
			return nil
		}
		encodePar := func() error {
			w := archive.NewWriter(meta)
			if err := w.AddBatch(recs); err != nil {
				return err
			}
			if len(w.Finalize(nil)) == 0 {
				return fmt.Errorf("empty archive")
			}
			return nil
		}
		w := archive.NewWriter(meta)
		for _, r := range recs {
			w.Add(r)
		}
		blob := w.Finalize(nil)
		decode := func() error {
			a, err := archive.Open(blob)
			if err != nil {
				return err
			}
			got, err := a.Records()
			if err != nil {
				return err
			}
			if len(got) != n {
				return fmt.Errorf("decoded %d records, want %d", len(got), n)
			}
			return nil
		}
		var wireBuf []byte
		wirePooled := func() error {
			var total int
			for _, r := range recs {
				wireBuf = trace.MarshalRecordAppend(wireBuf[:0], r)
				total += len(wireBuf)
			}
			if total == 0 {
				return fmt.Errorf("empty encoding")
			}
			return nil
		}
		encoded := make([][]byte, len(recs))
		for i, r := range recs {
			encoded[i] = trace.MarshalRecord(r)
		}
		wireUnmarshal := func() error {
			for i, b := range encoded {
				r, err := trace.UnmarshalRecord(b)
				if err != nil {
					return fmt.Errorf("record %d: %w", i, err)
				}
				if r.Seq != recs[i].Seq {
					return fmt.Errorf("record %d decoded seq %d, want %d", i, r.Seq, recs[i].Seq)
				}
			}
			return nil
		}
		sa := archiveBenchSummary(archiveBenchPhases, 0)
		sb := archiveBenchSummary(archiveBenchPhases, 1)
		diff := func() error {
			d, err := repo.DiffSummaries(sa, sb)
			if err != nil {
				return err
			}
			if len(d.Matches) == 0 {
				return fmt.Errorf("no phase matches")
			}
			return nil
		}

		for _, r := range []struct {
			kernel  string
			mode    string
			workers int
			fn      func() error
		}{
			{"archive_encode", "serial", 1, encode},
			{"archive_encode_par", "parallel", workers, encodePar},
			{"archive_decode", "serial", 1, decode},
			{"archive_decode_par", "parallel", workers, decode},
			{"wire_marshal", "pooled", 1, wirePooled},
			{"wire_unmarshal", "serial", 1, wireUnmarshal},
			{"repo_diff", "serial", 1, diff},
		} {
			prev := runtime.GOMAXPROCS(r.workers)
			iters, nsPerOp, allocsPerOp, err := measureAllocs(minTime, r.fn)
			runtime.GOMAXPROCS(prev)
			if err != nil {
				return nil, fmt.Errorf("archive-bench: %s/%s n=%d: %w", r.kernel, r.mode, n, err)
			}
			rep.Entries = append(rep.Entries, AnalyzerBenchEntry{
				Kernel: r.kernel, Mode: r.mode, N: n, Workers: r.workers,
				Iters: iters, NsPerOp: nsPerOp,
				StepsPerSec: float64(n) * 1e9 / nsPerOp,
				AllocsPerOp: allocsPerOp,
			})
		}
		rep.deriveCodecSpeedups(n)
	}
	return rep, nil
}

// deriveCodecSpeedups records the headline ratios the codec gate in
// cmd/benchdiff enforces: parallel-vs-serial archive encode/decode.
func (r *AnalyzerBenchReport) deriveCodecSpeedups(n int) {
	for _, kernel := range []string{"archive_encode", "archive_decode"} {
		s := r.find(kernel, "serial", n)
		p := r.find(kernel+"_par", "parallel", n)
		if s != nil && p != nil && p.NsPerOp > 0 {
			r.Speedups[fmt.Sprintf("%s_par_vs_serial_n%d", kernel, n)] = s.NsPerOp / p.NsPerOp
		}
	}
}

// ArchiveBenchStream builds the synthetic record stream the archive
// benchmarks code — exported so bench_test.go times the codec kernels
// on exactly the records BENCH_archive.json reports.
func ArchiveBenchStream(n int) []*trace.ProfileRecord {
	return archiveBenchRecords(n)
}

// archiveBenchRecords synthesizes a two-regime record stream (the
// infeed-bound -> compute-bound shape real workloads produce).
func archiveBenchRecords(n int) []*trace.ProfileRecord {
	recs := make([]*trace.ProfileRecord, 0, n)
	var ts simclock.Time
	for i := 0; i < n; i++ {
		step := int64(i)
		compute := simclock.Duration(300 + 40*(i%7))
		infeed := simclock.Duration(600 - 30*(i%5))
		if i >= n/2 {
			compute, infeed = 700+simclock.Duration(20*(i%3)), 100
		}
		events := []trace.Event{
			{Name: "InfeedDequeueTuple", Device: trace.Host, Start: ts, Dur: infeed, Step: step},
			{Name: "fusion", Device: trace.TPU, Start: ts.Add(infeed), Dur: compute, Step: step},
			{Name: "Conv2D", Device: trace.TPU, Start: ts.Add(infeed + compute), Dur: 150, Step: step},
		}
		recs = append(recs, trace.Reduce(int64(i), ts, events, 0.2, 0.5))
		ts = ts.Add(1000)
	}
	return recs
}

// archiveBenchSummary builds a many-phase summary; variant perturbs op
// mixes and durations so the diff does real alignment work.
func archiveBenchSummary(phases int, variant int) *archive.Summary {
	s := &archive.Summary{
		Workload: "synthetic", Algorithm: "ols", Steps: int64(phases * 10),
		IdleFrac: 0.3, MXUUtil: 0.4,
	}
	var t simclock.Time
	for i := 0; i < phases; i++ {
		total := simclock.Duration(1000 + 100*(i%9) + 37*variant)
		p := archive.PhaseSummary{
			ID: i, Steps: 10, Start: t, End: t.Add(total), Total: total,
			IdleFrac: 0.2 + 0.01*float64(i%13),
			MXUUtil:  0.5 - 0.01*float64(i%11),
			Ops: []archive.OpSummary{
				{Name: fmt.Sprintf("fusion.%d", i%5), Device: trace.TPU, Count: 10,
					Total: total / simclock.Duration(2+variant)},
				{Name: "InfeedDequeueTuple", Device: trace.Host, Count: 10,
					Total: total / 4},
				{Name: fmt.Sprintf("Conv2D.%d", i%3), Device: trace.TPU, Count: 10,
					Total: total / 8},
			},
		}
		s.Phases = append(s.Phases, p)
		t = t.Add(total)
		s.TotalTime += total
	}
	return s
}
