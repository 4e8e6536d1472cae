// Package viz renders TPUPoint-Analyzer output as the two artifact formats
// the paper describes (Section IV-B): a JSON file compatible with Chrome's
// chrome://tracing event profiler, and a CSV summary.
//
// The trace shows two summary tracks, as in the paper's Figure 3 — a
// "Profile Breakdown" row with one slice per profile record and a "Phase
// Breakdown" row with one slice per detected phase — plus per-device op
// tracks for zooming into individual operations.
package viz

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/core/analyzer"
	"repro/internal/simclock"
	"repro/internal/trace"
)

// Chrome-tracing track identities. chrome://tracing groups slices by
// (pid, tid) pairs; names come from metadata events.
const (
	pidTPUPoint = 1

	tidProfiles = 1
	tidPhases   = 2
	tidHostOps  = 3
	tidTPUOps   = 4
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

// WriteChromeTrace emits the visualization JSON. Records and phases feed
// the two breakdown tracks; events (optional, may be truncated by maxOps)
// feed the op tracks.
func WriteChromeTrace(w io.Writer, phases []*analyzer.Phase, records []*trace.ProfileRecord, events []trace.Event, maxOps int) error {
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

// gapSpan synthesizes a window for the gap record at index i: a run of
// consecutive gaps splits the hole between its non-gap neighbors evenly.
// A run with no following record collapses to zero width at the previous
// record's end — the hole's extent is genuinely unknown there.
func gapSpan(records []*trace.ProfileRecord, i int) (simclock.Time, simclock.Time) {
	prev := i - 1
	for prev >= 0 && records[prev].Gap {
		prev--
	}
	next := i + 1
	for next < len(records) && records[next].Gap {
		next++
	}
	var holeStart simclock.Time // 0 when the stream opens with gaps
	if prev >= 0 {
		holeStart = records[prev].WindowEnd
	}
	if next >= len(records) {
		return holeStart, holeStart
	}
	holeEnd := records[next].WindowStart
	if holeEnd < holeStart {
		holeEnd = holeStart
	}
	run := next - prev - 1 // consecutive gaps sharing this hole
	pos := i - prev - 1
	width := holeEnd.Sub(holeStart) / simclock.Duration(run)
	start := holeStart.Add(width * simclock.Duration(pos))
	if pos == run-1 {
		return start, holeEnd // absorb division remainder
	}
	return start, start.Add(width)
}

func sortByStart(phases []*analyzer.Phase) []*analyzer.Phase {
	out := append([]*analyzer.Phase(nil), phases...)
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// WriteCSV emits the phase summary table: one row per phase with its span,
// step count, coverage share, checkpoint, and top operators per device.
func WriteCSV(w io.Writer, rep *analyzer.Report) error {
	var total simclock.Duration
	for _, p := range rep.Phases {
		total += p.Total
	}
	if _, err := fmt.Fprintln(w, "phase,steps,start_ms,end_ms,total_ms,share,checkpoint,top_tpu_ops,top_host_ops"); err != nil {
		return err
	}
	for _, p := range sortByStart(rep.Phases) {
		share := 0.0
		if total > 0 {
			share = float64(p.Total) / float64(total)
		}
		ops := trace.MergeSteps(p.Steps)
		row := []string{
			fmt.Sprint(p.ID),
			fmt.Sprint(len(p.Steps)),
			fmt.Sprintf("%.3f", float64(p.Start)/1000),
			fmt.Sprintf("%.3f", float64(p.End)/1000),
			fmt.Sprintf("%.3f", p.Total.Milliseconds()),
			fmt.Sprintf("%.4f", share),
			csvEscape(p.Checkpoint),
			csvEscape(opList(trace.TopOf(ops, trace.TPU, 5))),
			csvEscape(opList(trace.TopOf(ops, trace.Host, 5))),
		}
		if _, err := fmt.Fprintln(w, strings.Join(row, ",")); err != nil {
			return err
		}
	}
	return nil
}

func opList(ops []trace.OpTotal) string {
	names := make([]string, len(ops))
	for i, op := range ops {
		names[i] = op.Name
	}
	return strings.Join(names, ";")
}

func csvEscape(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}
