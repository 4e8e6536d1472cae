// Per-session streaming analysis for the fleet collector: each open
// session owns a StreamAnalyzer fed by its drain goroutine, so phase
// boundaries and degradation alerts surface on internal/obs *while the
// run is in flight* — not at finalize, which may be hours away for a
// long training job — and finalize archives the same closed phases as
// the run's summary. The analyzer's bounded-memory contract keeps this
// affordable at MaxSessions concurrency: a session's analysis state is
// O(steps at or above the records' OpenStep watermark + closed phases),
// not O(records streamed).
//
// Determinism note: the drain goroutine is the session's single
// consumer, so the stream sees records in exactly the accepted order —
// the same order the durable log replays on resume, which is why a
// resumed session's analyzer picks up mid-run with identical state.
package repo

import (
	"errors"
	"fmt"

	"repro/internal/archive"
	"repro/internal/core/analyzer"
	"repro/internal/obs"
)

// streamMetrics are the collector's streaming-analysis instruments.
type streamMetrics struct {
	opened   *obs.Counter
	closed   *obs.Counter
	degraded *obs.Counter
}

func newStreamMetrics(r *obs.Registry) streamMetrics {
	return streamMetrics{
		opened:   r.Counter("fleet.stream.phases.opened"),
		closed:   r.Counter("fleet.stream.phases.closed"),
		degraded: r.Counter("fleet.stream.degraded"),
	}
}

// newSessionStream builds the per-session streaming analyzer at the
// collector's OLS threshold and full rate. Events fan out to obs under
// the "stream.phase" scope (open/close) and "stream.step" (degraded),
// each tagged with the session's run ID.
func (f *Fleet) newSessionStream(meta archive.Meta) *analyzer.StreamAnalyzer {
	runID := meta.RunID
	return analyzer.NewStream(meta.Workload, analyzer.StreamOptions{
		Threshold: f.opts.Analyzer.Threshold,
		Obs:       f.opts.Obs,
		OnEvent: func(ev analyzer.StreamEvent) {
			switch ev.Kind {
			case analyzer.PhaseOpen:
				f.sm.opened.Inc()
				f.opts.Obs.Emit("stream.phase", "open",
					fmt.Sprintf("run %q: phase %d opened at step %d", runID, ev.Phase.ID, ev.Step))
			case analyzer.PhaseClose:
				f.sm.closed.Inc()
				f.opts.Obs.Emit("stream.phase", "close",
					fmt.Sprintf("run %q: phase %d closed (steps %d-%d, %d sampled, total %d)",
						runID, ev.Phase.ID, ev.Phase.FirstStep, ev.Phase.LastStep, ev.Phase.Steps, ev.Phase.Total))
			case analyzer.StepDegraded:
				f.sm.degraded.Inc()
				f.opts.Obs.Emit("stream.step", "degraded",
					fmt.Sprintf("run %q: step %d exceeded phase-mean span in phase %d", runID, ev.Step, ev.Phase.ID))
			}
		},
	})
}

// summarizeSession closes a session's analyzer (quiescent: the drain has
// exited) and returns the archive summary of its closed phases. A run
// whose stream refused a record, or with no step (empty, or gaps only),
// is archived unsummarized, not failed: one run-unsummarized event says
// why.
func (f *Fleet) summarizeSession(s *session) *archive.Summary {
	rep := s.stream.Finish()
	f.opts.Obs.Emit("stream", "summary",
		fmt.Sprintf("run %q: %d phases over %d steps (%d degraded steps)",
			s.meta.RunID, len(rep.Phases), rep.Steps, streamDegradedTotal(rep)))
	why := s.streamErr
	if why == nil && rep.Steps == 0 {
		why = errors.New("no steps to analyze")
	}
	if why != nil {
		f.m.unsummarized.Inc()
		f.opts.Obs.Emit("fleet", "run-unsummarized", fmt.Sprintf("run %q: %v", s.meta.RunID, why))
		return nil
	}
	return archive.SummarizeStream(rep)
}

func streamDegradedTotal(rep *analyzer.StreamReport) int64 {
	var n int64
	for _, p := range rep.Phases {
		n += p.Degraded
	}
	return n
}
