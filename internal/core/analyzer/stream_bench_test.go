package analyzer_test

import (
	"testing"

	tpupoint "repro"
	"repro/internal/core/analyzer"
	"repro/internal/trace"
)

// BenchmarkStreamVsBatchOLS runs the two OLS chains over one 1000-step
// resnet-imagenet recording (profiled after training, as bench/ does):
// the streaming core — NewStream, Feed per record, Finish, at the
// options `watch` uses — and the batch Analyze(OLSAlgo). It reports each
// side's steps/s and their ratio, ROADMAP item 1 (b′)'s
// stream.vs_batch_ols, whose target is >= 0.5. (An external test package:
// the root package wires the simulator to the profiler and imports this
// one.)
func BenchmarkStreamVsBatchOLS(b *testing.B) {
	s, err := tpupoint.NewSession("resnet-imagenet", tpupoint.Options{Steps: 1000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	if err := s.Train(); err != nil {
		b.Fatal(err)
	}
	p, err := s.StartProfiler(true)
	if err != nil {
		b.Fatal(err)
	}
	recs, err := p.Stop()
	if err != nil {
		b.Fatal(err)
	}
	steps := float64(len(trace.AggregateSteps(recs)))

	var stream, batch float64 // steps/s
	b.Run("stream", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			st := analyzer.NewStream("resnet-imagenet", analyzer.StreamOptions{})
			if err := st.FeedBatch(recs); err != nil {
				b.Fatal(err)
			}
			st.Finish()
		}
		stream = steps * float64(b.N) / b.Elapsed().Seconds()
		b.ReportMetric(stream, "steps/s")
	})
	b.Run("batch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := analyzer.Analyze("resnet-imagenet", recs, analyzer.OLSAlgo, analyzer.Options{}); err != nil {
				b.Fatal(err)
			}
		}
		batch = steps * float64(b.N) / b.Elapsed().Seconds()
		b.ReportMetric(batch, "steps/s")
		if stream > 0 {
			b.ReportMetric(stream/batch, "stream/batch")
		}
	})
}
