package viz

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/core/analyzer"
	"repro/internal/estimator"
	"repro/internal/trace"
	"repro/internal/workloads"
)

func fixture(t *testing.T) (*analyzer.Report, []*trace.ProfileRecord, []trace.Event) {
	t.Helper()
	w := workloads.MustGet("dcgan-cifar10")
	r, err := estimator.New(w, estimator.Options{Steps: 120})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	events := walkEvents(func(yield func(trace.Segment) bool) { r.Segments(0, math.MaxInt64, yield) })
	rec := trace.Reduce(0, 0, events, r.IdleFraction(), r.MXUUtilization())
	records := []*trace.ProfileRecord{rec}
	rep, err := analyzer.Analyze(w.Name, records, analyzer.OLSAlgo, analyzer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	analyzer.AssociateCheckpoints(rep.Phases, []analyzer.Checkpoint{{Step: 99, Object: "ckpt/model.ckpt-99"}})
	return rep, records, events
}

func TestChromeTraceIsValidJSON(t *testing.T) {
	rep, records, events := fixture(t)
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, rep.Phases, records, eventOps(events), 500); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	raw, ok := decoded["traceEvents"].([]any)
	if !ok || len(raw) == 0 {
		t.Fatal("no traceEvents")
	}
}

func TestChromeTraceTracks(t *testing.T) {
	rep, records, events := fixture(t)
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, rep.Phases, records, eventOps(events), 100); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	for _, want := range []string{"Profile Breakdown", "Phase Breakdown", "Host Ops", "TPU Ops", "phase 0", "profile 0"} {
		if !strings.Contains(s, want) {
			t.Fatalf("trace missing %q", want)
		}
	}
}

func TestChromeTraceOpCap(t *testing.T) {
	rep, records, events := fixture(t)
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, rep.Phases, records, eventOps(events), 10); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		TraceEvents []struct {
			Ph  string `json:"ph"`
			Tid int    `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	ops := 0
	for _, e := range decoded.TraceEvents {
		if e.Ph == "X" && (e.Tid == tidHostOps || e.Tid == tidTPUOps) {
			ops++
		}
	}
	if ops != 10 {
		t.Fatalf("op slices = %d, want capped at 10", ops)
	}
}

func TestChromeTraceGapWindows(t *testing.T) {
	// Two fetched windows at [0,100) and [300,400) with a two-gap hole
	// between them, plus a trailing gap with no following record. The
	// gaps carry no timestamps of their own (the windows were lost), so
	// the renderer must synthesize slices spanning the hole — not pile
	// zero-width slivers at t=0.
	records := []*trace.ProfileRecord{
		{Seq: 0, WindowStart: 0, WindowEnd: 100},
		{Seq: 1, Gap: true},
		{Seq: 2, Gap: true},
		{Seq: 3, WindowStart: 300, WindowEnd: 400},
		{Seq: 4, Gap: true},
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, nil, records, nil, 0); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   int64          `json:"ts"`
			Dur  int64          `json:"dur"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	type span struct{ ts, dur int64 }
	gaps := map[string]span{}
	counters := 0
	for _, e := range decoded.TraceEvents {
		if e.Ph == "C" {
			counters++
		}
		if e.Ph != "X" || e.Tid != tidProfiles {
			continue
		}
		if strings.HasPrefix(e.Name, "gap ") {
			if e.Args["gap"] != true {
				t.Fatalf("%s lacks the gap annotation: %v", e.Name, e.Args)
			}
			gaps[e.Name] = span{e.Ts, e.Dur}
		}
	}
	if len(gaps) != 3 {
		t.Fatalf("gap slices = %d, want 3 (%v)", len(gaps), gaps)
	}
	// The interior hole [100,300) splits evenly across the two gaps.
	if g := gaps["gap 1"]; g != (span{100, 100}) {
		t.Fatalf("gap 1 = %+v, want {100 100}", g)
	}
	if g := gaps["gap 2"]; g != (span{200, 100}) {
		t.Fatalf("gap 2 = %+v, want {200 100}", g)
	}
	// The trailing gap has no right neighbor: zero width at the last
	// record's end, never at t=0.
	if g := gaps["gap 4"]; g != (span{400, 0}) {
		t.Fatalf("gap 4 = %+v, want {400 0}", g)
	}
	// Lost windows have no idle/MXU samples: counter events come only
	// from the two real records.
	if counters != 4 {
		t.Fatalf("counter events = %d, want 4 (two per fetched window)", counters)
	}
}

func TestCSVOutput(t *testing.T) {
	rep, _, _ := fixture(t)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, rep); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != len(rep.Phases)+1 {
		t.Fatalf("csv has %d lines for %d phases", len(lines), len(rep.Phases))
	}
	if !strings.HasPrefix(lines[0], "phase,steps,") {
		t.Fatalf("csv header = %q", lines[0])
	}
	// Shares sum to ~1.
	var sum float64
	for _, line := range lines[1:] {
		fields := strings.Split(line, ",")
		var share float64
		if _, err := fmt.Sscan(fields[5], &share); err != nil {
			t.Fatalf("bad share %q: %v", fields[5], err)
		}
		sum += share
	}
	if sum < 0.99 || sum > 1.01 {
		t.Fatalf("phase shares sum to %g", sum)
	}
	if !strings.Contains(buf.String(), "fusion") {
		t.Fatal("csv missing top-op names")
	}
	if !strings.Contains(buf.String(), "ckpt/model.ckpt-99") {
		t.Fatal("csv missing checkpoint association")
	}
}

func TestCSVEscaping(t *testing.T) {
	if got := csvEscape(`a,b`); got != `"a,b"` {
		t.Fatalf("escape = %q", got)
	}
	if got := csvEscape(`say "hi"`); got != `"say ""hi"""` {
		t.Fatalf("escape = %q", got)
	}
	if got := csvEscape("plain"); got != "plain" {
		t.Fatalf("escape = %q", got)
	}
}
