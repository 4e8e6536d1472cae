// Package viz renders TPUPoint-Analyzer output as the two artifact formats
// the paper describes (Section IV-B): a JSON file compatible with Chrome's
// chrome://tracing event profiler, and a CSV summary.
//
// The trace shows two summary tracks, as in the paper's Figure 3 — a
// "Profile Breakdown" row with one slice per profile record and a "Phase
// Breakdown" row with one slice per detected phase — plus per-device op
// tracks for zooming into individual operations, drawn from the event
// source's segments as they are walked.
package viz

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"unicode/utf8"

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

// WriteChromeTrace emits the visualization JSON. Records and phases feed
// the two breakdown tracks; the events ops walks (optional, may be
// truncated by maxOps) feed the op tracks. ops hands its yield the events
// in order as segments, as an event source's Segments does, until yield
// returns false; it is stopped once maxOps events are drawn, the last
// segment cut, so no later event is read.
//
// The file is what encoding/json writes for it — the fields of each
// event in a fixed order, dur omitted when zero, args keys sorted — but
// appended into one buffer and written with one Write. A NaN or
// infinite idle/MXU value fails the call before anything is written, as
// json.Encoder does.
func WriteChromeTrace(w io.Writer, phases []*analyzer.Phase, records []*trace.ProfileRecord, ops func(yield func(trace.Segment) bool), maxOps int) error {
	t := chromeTrace{b: make([]byte, 0, 256+320*len(records)+160*len(phases)+112*max(maxOps, 0))}
	t.b = append(t.b, `{"traceEvents":[`...)

	meta := func(tid int, name string) {
		t.event("thread_name", "M", 0, 0, tid)
		t.b = append(t.b, `,"args":{"name":`...)
		t.b = appendString(t.b, name)
		t.b = append(t.b, "}}"...)
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
			t.numbered("gap ", rec.Seq, "X", int64(start), int64(end.Sub(start)), tidProfiles)
			t.b = append(t.b, `,"args":{"gap":true}}`...)
			// No counter events: a lost window has no idle/MXU samples.
			continue
		}
		t.numbered("profile ", rec.Seq, "X", int64(rec.WindowStart), int64(rec.WindowEnd.Sub(rec.WindowStart)), tidProfiles)
		t.b = append(t.b, `,"args":{"events":`...)
		t.b = strconv.AppendInt(t.b, rec.NumEvents, 10)
		t.b = append(t.b, `,"idle":`...)
		t.float(rec.IdleFrac)
		t.b = append(t.b, `,"mxu":`...)
		t.float(rec.MXUUtil)
		t.b = append(t.b, `,"truncated":`...)
		t.b = strconv.AppendBool(t.b, rec.Truncated)
		t.b = append(t.b, "}}"...)
		// Counter tracks: chrome://tracing renders "C" events as stacked
		// area charts, giving the idle/MXU time series alongside the ops.
		t.event("TPU idle %", "C", int64(rec.WindowStart), 0, 0)
		t.b = append(t.b, `,"args":{"idle":`...)
		t.float(100 * rec.IdleFrac)
		t.b = append(t.b, "}}"...)
		t.event("MXU utilization %", "C", int64(rec.WindowStart), 0, 0)
		t.b = append(t.b, `,"args":{"mxu":`...)
		t.float(100 * rec.MXUUtil)
		t.b = append(t.b, "}}"...)
	}

	for _, p := range sortByStart(phases) {
		t.numbered("phase ", int64(p.ID), "X", int64(p.Start), int64(p.End.Sub(p.Start)), tidPhases)
		t.b = append(t.b, `,"args":{"checkpoint":`...)
		t.b = appendString(t.b, p.Checkpoint)
		t.b = append(t.b, `,"steps":`...)
		t.b = strconv.AppendInt(t.b, int64(len(p.Steps)), 10)
		t.b = append(t.b, `,"total_ms":`...)
		t.float(p.Total.Milliseconds())
		t.b = append(t.b, "}}"...)
	}

	if ops != nil {
		drawn := 0
		ops(func(seg trace.Segment) bool {
			if maxOps > 0 && seg.Len() > maxOps-drawn {
				seg, _ = seg.Cut(maxOps - drawn)
			}
			t.segment(&seg)
			drawn += seg.Len()
			return maxOps <= 0 || drawn < maxOps
		})
	}

	if t.err != nil {
		return t.err
	}
	t.b = append(t.b, `],"displayTimeUnit":"ms"}`+"\n"...)
	_, err := w.Write(t.b)
	return err
}

// chromeTrace is the buffer WriteChromeTrace appends the file into.
type chromeTrace struct {
	b      []byte
	events int
	err    error // the first value JSON cannot carry
}

// segment appends an op-track event for each of seg's events.
func (t *chromeTrace) segment(seg *trace.Segment) {
	if seg.Run == nil {
		for i := range seg.Events {
			e := &seg.Events[i]
			t.op(e.Name, e.Device, e.Start, e.Dur, e.Step)
		}
		return
	}
	at := seg.Start
	for k := seg.Lo; k < seg.Hi; k++ {
		t.op(seg.Run.Names[k], seg.Run.Device, at, seg.Durs[k], seg.Step)
		at = at.Add(seg.Run.Advance(seg.Durs, k))
	}
}

// op appends one op-track event, on the host or the TPU track.
func (t *chromeTrace) op(name string, dev trace.Device, start simclock.Time, dur simclock.Duration, step int64) {
	tid := tidHostOps
	if dev == trace.TPU {
		tid = tidTPUOps
	}
	t.event(name, "X", int64(start), int64(dur), tid)
	t.b = append(t.b, `,"args":{"step":`...)
	t.b = strconv.AppendInt(t.b, step, 10)
	t.b = append(t.b, "}}"...)
}

// event appends one event's fields up to its args: name, ph, ts, dur
// (omitted when zero), pid and tid, preceded by a comma unless it is
// the first.
func (t *chromeTrace) event(name, ph string, ts, dur int64, tid int) {
	t.open()
	t.b = appendString(t.b, name)
	t.fields(ph, ts, dur, tid)
}

// numbered is event for the name prefix followed by n in decimal.
func (t *chromeTrace) numbered(prefix string, n int64, ph string, ts, dur int64, tid int) {
	t.open()
	t.b = appendString(t.b, prefix)
	t.b = strconv.AppendInt(t.b[:len(t.b)-1], n, 10) // inside the closing quote
	t.b = append(t.b, '"')
	t.fields(ph, ts, dur, tid)
}

func (t *chromeTrace) open() {
	if t.events > 0 {
		t.b = append(t.b, ',')
	}
	t.events++
	t.b = append(t.b, `{"name":`...)
}

func (t *chromeTrace) fields(ph string, ts, dur int64, tid int) {
	t.b = append(t.b, `,"ph":`...)
	t.b = appendString(t.b, ph)
	t.b = append(t.b, `,"ts":`...)
	t.b = strconv.AppendInt(t.b, ts, 10)
	if dur != 0 {
		t.b = append(t.b, `,"dur":`...)
		t.b = strconv.AppendInt(t.b, dur, 10)
	}
	t.b = append(t.b, `,"pid":`...)
	t.b = strconv.AppendInt(t.b, pidTPUPoint, 10)
	t.b = append(t.b, `,"tid":`...)
	t.b = strconv.AppendInt(t.b, int64(tid), 10)
}

// float appends f as encoding/json does: the shortest 'f' form, or 'e'
// with the exponent's leading zero trimmed outside [1e-6, 1e21). NaN and
// ±Inf have no JSON form; the first is kept as the trace's error.
func (t *chromeTrace) float(f float64) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		if t.err == nil {
			t.err = fmt.Errorf("viz: chrome trace: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
		}
		t.b = append(t.b, '0')
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	t.b = strconv.AppendFloat(t.b, f, format, -1, 64)
	if n := len(t.b); format == 'e' && n >= 4 && t.b[n-4] == 'e' && t.b[n-3] == '-' && t.b[n-2] == '0' {
		t.b[n-2] = t.b[n-1]
		t.b = t.b[:n-1]
	}
}

// appendString appends s as a JSON string the way encoding/json writes
// it. Printable ASCII other than quote, backslash and the HTML
// characters <, > and & (every op name and checkpoint path the
// simulator makes) is copied as it is; a string with anything else is
// escaped by json.Marshal itself.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
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
