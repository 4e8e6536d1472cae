package viz

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"testing"

	"repro/internal/core/analyzer"
	"repro/internal/core/profiler"
	"repro/internal/estimator"
	"repro/internal/simclock"
	"repro/internal/storage"
	"repro/internal/tpu"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// traceEvent is one chrome://tracing event (the "X" complete-event form,
// or "M" metadata).
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   int64          `json:"ts"`            // µs
	Dur  int64          `json:"dur,omitempty"` // µs
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

type traceFile struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// writeChromeTraceOracle is WriteChromeTrace as it was before it
// appended into one buffer: every event a struct with its own args map,
// the whole file handed to encoding/json. WriteChromeTrace must write
// its bytes exactly, and fail where it fails.
func writeChromeTraceOracle(w io.Writer, phases []*analyzer.Phase, records []*trace.ProfileRecord, events []trace.Event, maxOps int) error {
	var out traceFile
	out.DisplayTimeUnit = "ms"

	meta := func(tid int, name string) {
		out.TraceEvents = append(out.TraceEvents, traceEvent{
			Name: "thread_name", Ph: "M", Pid: pidTPUPoint, Tid: tid,
			Args: map[string]any{"name": name},
		})
	}
	meta(tidProfiles, "Profile Breakdown")
	meta(tidPhases, "Phase Breakdown")
	meta(tidHostOps, "Host Ops")
	meta(tidTPUOps, "TPU Ops")

	for i, rec := range records {
		if rec.Gap {
			// Gap records carry no window of their own (the window was
			// lost before it could be measured); rendering their zero
			// timestamps literally piled every gap into a zero-width
			// sliver at t=0. Synthesize the hole's span from the
			// neighboring records instead.
			start, end := gapSpan(records, i)
			out.TraceEvents = append(out.TraceEvents, traceEvent{
				Name: fmt.Sprintf("gap %d", rec.Seq),
				Ph:   "X",
				Ts:   int64(start),
				Dur:  int64(end.Sub(start)),
				Pid:  pidTPUPoint,
				Tid:  tidProfiles,
				Args: map[string]any{"gap": true},
			})
			// No counter events: a lost window has no idle/MXU samples.
			continue
		}
		out.TraceEvents = append(out.TraceEvents, traceEvent{
			Name: fmt.Sprintf("profile %d", rec.Seq),
			Ph:   "X",
			Ts:   int64(rec.WindowStart),
			Dur:  int64(rec.WindowEnd.Sub(rec.WindowStart)),
			Pid:  pidTPUPoint,
			Tid:  tidProfiles,
			Args: map[string]any{
				"events":    rec.NumEvents,
				"truncated": rec.Truncated,
				"idle":      rec.IdleFrac,
				"mxu":       rec.MXUUtil,
			},
		})
		// Counter tracks: chrome://tracing renders "C" events as stacked
		// area charts, giving the idle/MXU time series alongside the ops.
		out.TraceEvents = append(out.TraceEvents,
			traceEvent{
				Name: "TPU idle %", Ph: "C", Ts: int64(rec.WindowStart),
				Pid: pidTPUPoint, Tid: 0,
				Args: map[string]any{"idle": 100 * rec.IdleFrac},
			},
			traceEvent{
				Name: "MXU utilization %", Ph: "C", Ts: int64(rec.WindowStart),
				Pid: pidTPUPoint, Tid: 0,
				Args: map[string]any{"mxu": 100 * rec.MXUUtil},
			})
	}

	for _, p := range sortByStart(phases) {
		args := map[string]any{
			"steps":      len(p.Steps),
			"total_ms":   p.Total.Milliseconds(),
			"checkpoint": p.Checkpoint,
		}
		out.TraceEvents = append(out.TraceEvents, traceEvent{
			Name: fmt.Sprintf("phase %d", p.ID),
			Ph:   "X",
			Ts:   int64(p.Start),
			Dur:  int64(p.End.Sub(p.Start)),
			Pid:  pidTPUPoint,
			Tid:  tidPhases,
			Args: args,
		})
	}

	n := 0
	for _, e := range events {
		if maxOps > 0 && n >= maxOps {
			break
		}
		tid := tidHostOps
		if e.Device == trace.TPU {
			tid = tidTPUOps
		}
		out.TraceEvents = append(out.TraceEvents, traceEvent{
			Name: e.Name, Ph: "X",
			Ts: int64(e.Start), Dur: int64(e.Dur),
			Pid: pidTPUPoint, Tid: tid,
			Args: map[string]any{"step": e.Step},
		})
		n++
	}

	enc := json.NewEncoder(w)
	return enc.Encode(&out)
}

// eventOps walks events as segments of seven events, the last shorter, so
// that an op cap falls inside a segment as often as not.
func eventOps(events []trace.Event) func(yield func(trace.Segment) bool) {
	return func(yield func(trace.Segment) bool) {
		for rest := events; len(rest) > 0; {
			n := min(7, len(rest))
			if !yield(trace.Segment{Events: rest[:n:n]}) {
				return
			}
			rest = rest[n:]
		}
	}
}

// walkEvents builds the events ops walks.
func walkEvents(ops func(yield func(trace.Segment) bool)) []trace.Event {
	var events []trace.Event
	if ops != nil {
		ops(func(seg trace.Segment) bool {
			events = seg.AppendEvents(events)
			return true
		})
	}
	return events
}

// checkTraceMatchesOracle writes one trace both ways, the op tracks from
// ops and from the events it walks, and fails unless the bytes are equal,
// or both writers fail.
func checkTraceMatchesOracle(t *testing.T, phases []*analyzer.Phase, records []*trace.ProfileRecord, ops func(yield func(trace.Segment) bool), maxOps int) {
	t.Helper()
	var got, want bytes.Buffer
	gotErr := WriteChromeTrace(&got, phases, records, ops, maxOps)
	wantErr := writeChromeTraceOracle(&want, phases, records, walkEvents(ops), maxOps)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("err = %v, the oracle's %v", gotErr, wantErr)
	}
	if gotErr != nil {
		if got.Len() != 0 {
			t.Fatalf("a failed trace wrote %d bytes", got.Len())
		}
		return
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		g, w := got.Bytes(), want.Bytes()
		i := 0
		for i < len(g) && i < len(w) && g[i] == w[i] {
			i++
		}
		lo := max(0, i-60)
		t.Fatalf("trace differs from the oracle's at byte %d of %d/%d:\n got %q\nwant %q",
			i, len(g), len(w), g[lo:min(len(g), i+60)], w[lo:min(len(w), i+60)])
	}
}

// paperRun is one trace's inputs as the benchmark's paper pipeline
// renders them: the run's segments, and its first 5 000 events built
// from them.
type paperRun struct {
	name    string
	phases  []*analyzer.Phase
	records []*trace.ProfileRecord
	ops     func(yield func(trace.Segment) bool)
	events  []trace.Event
}

// paperRuns builds the six runs the benchmark's paper pipeline renders:
// three workloads on TPUv2 and TPUv3, 300 steps, trained then profiled,
// OLS phases with their checkpoints, the run's events.
func paperRuns(tb testing.TB) []paperRun {
	tb.Helper()
	var out []paperRun
	for _, name := range []string{"bert-mrpc", "resnet-imagenet", "dcgan-mnist"} {
		for _, v := range []tpu.Version{tpu.V2, tpu.V3} {
			r, err := estimator.New(workloads.MustGet(name), estimator.Options{Version: v, Steps: 300})
			if err != nil {
				tb.Fatal(err)
			}
			if err := r.Run(); err != nil {
				tb.Fatal(err)
			}
			bucket, err := storage.NewService().CreateBucket("viz")
			if err != nil {
				tb.Fatal(err)
			}
			p := profiler.New(&profiler.ServiceClient{Service: r.ProfileService()}, profiler.Options{Bucket: bucket})
			if err := p.Start(true); err != nil {
				tb.Fatal(err)
			}
			records, err := p.Stop()
			if err != nil {
				tb.Fatal(err)
			}
			rep, err := analyzer.Analyze(name, records, analyzer.OLSAlgo, analyzer.Options{})
			if err != nil {
				tb.Fatal(err)
			}
			var cks []analyzer.Checkpoint
			for _, ck := range r.Checkpoints() {
				cks = append(cks, analyzer.Checkpoint{Step: ck.Step, Object: ck.Object})
			}
			analyzer.AssociateCheckpoints(rep.Phases, cks)
			ops := func(yield func(trace.Segment) bool) { r.Segments(0, math.MaxInt64, yield) }
			events := walkEvents(ops)
			out = append(out, paperRun{fmt.Sprintf("%s-%v", name, v), rep.Phases, records, ops, events[:min(5000, len(events))]})
		}
	}
	return out
}

// TestChromeTraceMatchesOracleOnPaperRuns: the six runs the benchmark's
// paper pipeline renders give the oracle's bytes.
func TestChromeTraceMatchesOracleOnPaperRuns(t *testing.T) {
	for _, run := range paperRuns(t) {
		t.Run(run.name, func(t *testing.T) {
			checkTraceMatchesOracle(t, run.phases, run.records, run.ops, 5000)
		})
	}
}

// BenchmarkChromeTrace times one trace of the six paper runs in turn,
// written by the appending writer from the run's segments and by the
// encoding/json oracle from its first 5 000 events.
func BenchmarkChromeTrace(b *testing.B) {
	runs := paperRuns(b)
	for _, c := range []struct {
		name  string
		write func(io.Writer, *paperRun) error
	}{
		{"append", func(w io.Writer, run *paperRun) error {
			return WriteChromeTrace(w, run.phases, run.records, run.ops, 5000)
		}},
		{"oracle", func(w io.Writer, run *paperRun) error {
			return writeChromeTraceOracle(w, run.phases, run.records, run.events, 5000)
		}},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := c.write(io.Discard, &runs[i%len(runs)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestChromeTraceMatchesOracleOnEdges: gaps, empty inputs, the op cap,
// zero and negative spans, strings JSON escapes and floats at the edges
// of encoding/json's 'f' range give the oracle's bytes; a NaN or an
// infinity fails both writers.
func TestChromeTraceMatchesOracleOnEdges(t *testing.T) {
	checkTraceMatchesOracle(t, nil, nil, nil, 0)
	rep, records, events := fixture(t)
	for _, maxOps := range []int{0, 1, 10, len(events) + 1} {
		checkTraceMatchesOracle(t, rep.Phases, records, eventOps(events), maxOps)
	}
	gaps := []*trace.ProfileRecord{
		{Seq: 0, WindowStart: 0, WindowEnd: 100, IdleFrac: 0.25, MXUUtil: 1e-7},
		{Seq: 1, Gap: true},
		{Seq: 2, Gap: true},
		{Seq: 3, WindowStart: 300, WindowEnd: 250, Truncated: true, NumEvents: -4, IdleFrac: 1e21, MXUUtil: -1e-6},
		{Seq: 4, Gap: true},
	}
	checkTraceMatchesOracle(t, nil, gaps, nil, 0)
	for _, f := range []float64{0, -0.0, 1e-6, 9.99e-7, 1e20, 1e21, 123456789.125, math.SmallestNonzeroFloat64, math.MaxFloat64, math.NaN(), math.Inf(1), math.Inf(-1)} {
		recs := []*trace.ProfileRecord{{Seq: 9, WindowStart: 5, WindowEnd: 7, IdleFrac: f, MXUUtil: f / 3}}
		checkTraceMatchesOracle(t, nil, recs, nil, 0)
	}
	for _, s := range []string{"", "plain", "<a&b>", "R&D", "a>b", "quote\" back\\slash", "\x00\x01\b\f\n\r\t\x1f\x7f", "\u2028\u2029", "bad \xff\xfe utf8 \xe2\x82", "é世界🙂"} {
		phases := []*analyzer.Phase{{ID: 3, Start: 10, End: 10, Total: 7, Checkpoint: s}}
		ops := []trace.Event{{Name: s, Device: trace.TPU, Start: 1, Dur: 0, Step: -1}, {Name: s, Device: trace.Host, Start: 2, Dur: 3, Step: 7}}
		checkTraceMatchesOracle(t, phases, nil, eventOps(ops), 0)
	}
}

// FuzzChromeTrace: for arbitrary op names, checkpoints and idle/MXU
// values, the trace is the oracle's byte for byte, or both writers fail.
func FuzzChromeTrace(f *testing.F) {
	f.Add("fusion.3", "ckpt/model.ckpt-99", 0.42, 0.31)
	f.Add("", "", 0.0, 1.0)
	f.Fuzz(func(t *testing.T, op, checkpoint string, idle, mxu float64) {
		records := []*trace.ProfileRecord{
			{Seq: 0, WindowStart: 10, WindowEnd: 90, NumEvents: 3, IdleFrac: idle, MXUUtil: mxu},
			{Seq: 1, Gap: true},
			{Seq: 2, WindowStart: 120, WindowEnd: 200, Truncated: true, IdleFrac: mxu, MXUUtil: idle},
		}
		phases := []*analyzer.Phase{{ID: 1, Start: 10, End: 200, Total: simclock.Duration(idle), Checkpoint: checkpoint}}
		events := []trace.Event{
			{Name: op, Device: trace.TPU, Start: 10, Dur: 5, Step: 0},
			{Name: checkpoint, Device: trace.Host, Start: 15, Step: -1},
		}
		checkTraceMatchesOracle(t, phases, records, eventOps(events), 0)
	})
}
