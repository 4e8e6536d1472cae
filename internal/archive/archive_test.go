package archive

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/core/analyzer"
	"repro/internal/simclock"
	"repro/internal/trace"
)

// synthRecords builds n profile windows over a two-regime synthetic
// run: the first half is "warmup" dominated by infeed, the second half
// is "train" dominated by matmul — enough structure for OLS to find
// more than one phase.
func synthRecords(n int) []*trace.ProfileRecord {
	recs := make([]*trace.ProfileRecord, 0, n)
	var t simclock.Time
	for i := 0; i < n; i++ {
		step := int64(i)
		var events []trace.Event
		if i < n/2 {
			events = []trace.Event{
				{Name: "InfeedDequeue", Device: trace.Host, Start: t, Dur: 900, Step: step},
				{Name: "Preprocess", Device: trace.Host, Start: t + 100, Dur: 400, Step: step},
				{Name: "MatMul", Device: trace.TPU, Start: t + 500, Dur: 200, Step: step},
			}
		} else {
			events = []trace.Event{
				{Name: "MatMul", Device: trace.TPU, Start: t, Dur: 800, Step: step},
				{Name: "CrossReplicaSum", Device: trace.TPU, Start: t + 800, Dur: 150, Step: step},
				{Name: "InfeedDequeue", Device: trace.Host, Start: t + 50, Dur: 100, Step: step},
			}
		}
		idle := 0.1 + 0.01*float64(i%7)
		mxu := 0.3 + 0.02*float64(i%5)
		recs = append(recs, trace.Reduce(int64(i), t, events, idle, mxu))
		t += 1000
	}
	return recs
}

func testMeta() Meta {
	return Meta{
		RunID:      "run-a",
		Workload:   "synthetic",
		Label:      "baseline",
		HostSpec:   "cores=8",
		TPUVersion: "v2",
		CreatedSeq: 7,
	}
}

func buildArchive(t *testing.T, recs []*trace.ProfileRecord, segTarget int) []byte {
	t.Helper()
	rep, err := analyzer.Analyze("synthetic", recs, analyzer.OLSAlgo, analyzer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	w := NewWriter(testMeta())
	w.SetSegmentTarget(segTarget)
	for _, r := range recs {
		w.Add(r)
	}
	return w.Finalize(SummarizeReport(rep))
}

func TestRoundTrip(t *testing.T) {
	recs := synthRecords(40)
	gap := &trace.ProfileRecord{Seq: 99, Gap: true}
	recs = append(recs, gap)
	// Tiny segment target forces many segments — exercises the index.
	blob := buildArchive(t, recs, 256)

	a, err := Open(blob)
	if err != nil {
		t.Fatal(err)
	}
	if got := a.Meta(); got != testMeta() {
		t.Fatalf("meta = %+v", got)
	}
	if a.RecordCount() != 41 {
		t.Fatalf("records = %d", a.RecordCount())
	}
	if a.WindowCount() != 40 {
		t.Fatalf("windows = %d (gap must not count)", a.WindowCount())
	}
	first, last := a.TimeRange()
	if first != 0 || last == 0 {
		t.Fatalf("time range = [%d, %d]", first, last)
	}
	if a.Summary() == nil || len(a.Summary().Phases) == 0 {
		t.Fatal("summary missing or empty")
	}

	got, err := a.Records()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("decoded %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		want := trace.MarshalRecord(recs[i])
		have := trace.MarshalRecord(got[i])
		if !bytes.Equal(want, have) {
			t.Fatalf("record %d changed across round trip", i)
		}
	}
}

// TestRoundTripDeterministic is the acceptance-criteria test: archive
// encode → decode → re-analyze reproduces the embedded phase summary
// bit-identically.
func TestRoundTripDeterministic(t *testing.T) {
	recs := synthRecords(60)
	rep, err := analyzer.Analyze("synthetic", recs, analyzer.OLSAlgo, analyzer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	original := SummarizeReport(rep)

	w := NewWriter(testMeta())
	for _, r := range recs {
		w.Add(r)
	}
	blob := w.Finalize(original)

	a, err := Open(blob)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := a.Records()
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := analyzer.Analyze("synthetic", decoded, analyzer.OLSAlgo, analyzer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	reanalyzed := SummarizeReport(rep2)

	origBytes := MarshalSummary(original)
	if !bytes.Equal(origBytes, MarshalSummary(a.Summary())) {
		t.Fatal("embedded summary differs from original")
	}
	if !bytes.Equal(origBytes, MarshalSummary(reanalyzed)) {
		t.Fatal("re-analysis of decoded records differs from original summary")
	}
}

func TestAddRawMatchesAdd(t *testing.T) {
	recs := synthRecords(10)
	w1 := NewWriter(testMeta())
	w2 := NewWriter(testMeta())
	for _, r := range recs {
		w1.Add(r)
		if _, err := w2.AddRaw(trace.MarshalRecord(r)); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(w1.Finalize(nil), w2.Finalize(nil)) {
		t.Fatal("Add and AddRaw produced different archives")
	}
}

func TestAddRawRejectsMalformed(t *testing.T) {
	w := NewWriter(testMeta())
	if _, err := w.AddRaw([]byte{0xff, 0xff, 0xff}); err == nil {
		t.Fatal("malformed record accepted")
	}
	if w.Records() != 0 {
		t.Fatal("rejected record was counted")
	}
}

func TestOpenCorruption(t *testing.T) {
	blob := buildArchive(t, synthRecords(30), 512)

	mutate := func(f func(b []byte) []byte) []byte {
		cp := make([]byte, len(blob))
		copy(cp, blob)
		return f(cp)
	}

	cases := []struct {
		name string
		blob []byte
		want error
	}{
		{"empty", nil, ErrTruncated},
		{"too short", []byte("TPAR\x01"), ErrTruncated},
		{"bad header magic", mutate(func(b []byte) []byte { b[0] = 'X'; return b }), ErrBadMagic},
		{"unknown version", mutate(func(b []byte) []byte { b[4] = 42; return b }), ErrVersion},
		{"bad trailer magic", mutate(func(b []byte) []byte { b[len(b)-1] = 'X'; return b }), ErrBadMagic},
		{"truncated footer", mutate(func(b []byte) []byte {
			// Drop bytes from the middle, keeping the trailer: the
			// declared footer length now exceeds what's present.
			cut := len(b) / 2
			return append(b[:cut], b[len(b)-TrailerLen:]...)
		}), nil}, // any typed error is fine; must not panic
		{"segment bit flip", mutate(func(b []byte) []byte {
			b[headerLen+10] ^= 0x40 // inside the first segment payload
			return b
		}), ErrChecksum},
		{"footer garbage", mutate(func(b []byte) []byte {
			// Corrupt the footer's first tag byte (0x08, field 1
			// varint) into an unsupported wire type.
			footerLen := int(uint32(b[len(b)-8]) | uint32(b[len(b)-7])<<8 |
				uint32(b[len(b)-6])<<16 | uint32(b[len(b)-5])<<24)
			b[len(b)-TrailerLen-footerLen] ^= 0xff
			return b
		}), ErrMalformed},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a, err := Open(tc.blob)
			if err == nil {
				t.Fatal("corrupt archive opened cleanly")
			}
			if a != nil {
				t.Fatal("non-nil archive with error")
			}
			if tc.want != nil && !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
			typed := false
			for _, e := range []error{ErrBadMagic, ErrVersion, ErrTruncated, ErrChecksum, ErrMalformed} {
				if errors.Is(err, e) {
					typed = true
				}
			}
			if !typed {
				t.Fatalf("untyped corruption error: %v", err)
			}
		})
	}
}

// TestReadSummaryChecksTail: the tail decoder reads Open's summary from
// the footer and trailer alone, and refuses a bad trailer magic, a tail
// whose length disagrees with the trailer, and a footer whose CRC32C is
// not the one Footer reported — in that order, each with its typed error.
func TestReadSummaryChecksTail(t *testing.T) {
	blob := buildArchive(t, synthRecords(30), 512)
	a, err := Open(blob)
	if err != nil {
		t.Fatal(err)
	}
	n, crc := a.Footer()
	tail := blob[int64(len(blob))-n-TrailerLen:]
	sum, err := ReadSummary(tail, crc)
	if err != nil {
		t.Fatal(err)
	}
	if sum == nil || !bytes.Equal(MarshalSummary(sum), MarshalSummary(a.Summary())) {
		t.Fatalf("ReadSummary = %+v, want Open's %+v", sum, a.Summary())
	}

	mutate := func(f func(b []byte) []byte) []byte {
		return f(append([]byte(nil), tail...))
	}
	for _, tc := range []struct {
		name string
		tail []byte
		crc  uint32
		want error
	}{
		{"too short", tail[len(tail)-TrailerLen+1:], crc, ErrTruncated},
		// A flipped magic wins over the wrong CRC also given.
		{"bad trailer magic", mutate(func(b []byte) []byte { b[len(b)-1] = 'X'; return b }), crc + 1, ErrBadMagic},
		{"tail longer than footer", blob[int64(len(blob))-n-TrailerLen-1:], crc + 1, ErrMalformed},
		{"tail shorter than footer", tail[1:], crc, ErrMalformed},
		{"footer bit flip", mutate(func(b []byte) []byte { b[0] ^= 0x01; return b }), crc, ErrChecksum},
		{"wrong crc", tail, crc ^ 1, ErrChecksum},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got, err := ReadSummary(tc.tail, tc.crc); !errors.Is(err, tc.want) || got != nil {
				t.Fatalf("ReadSummary = %v, %v; want %v", got, err, tc.want)
			}
		})
	}
}

func TestOpenEmptyArchive(t *testing.T) {
	// Zero records is a legal archive (a run that produced nothing).
	w := NewWriter(testMeta())
	a, err := Open(w.Finalize(nil))
	if err != nil {
		t.Fatal(err)
	}
	if a.RecordCount() != 0 || a.Summary() != nil {
		t.Fatalf("records=%d summary=%v", a.RecordCount(), a.Summary())
	}
	recs, err := a.Records()
	if err != nil || len(recs) != 0 {
		t.Fatalf("records = %v, %v", recs, err)
	}
}

// TestAddEncodedAllocatesNothingPerStep: the writer's hot entry copies
// the wire bytes it is handed and reads three fields of the record — it
// must not walk the record's steps, let alone decode them again. A
// full-size window (hundreds of step fragments) costs the same handful of
// allocations (buffer growth, amortized) as a one-step one.
func TestAddEncodedAllocatesNothingPerStep(t *testing.T) {
	window := func(steps int) (*trace.ProfileRecord, []byte) {
		var events []trace.Event
		for s := 0; s < steps; s++ {
			for i, op := range []string{"InfeedDequeue", "fusion", "Conv2D", "MatMul", "CrossReplicaSum"} {
				events = append(events, trace.Event{Name: op, Device: trace.Device(i % 2),
					Start: simclock.Time(10 * (5*s + i)), Dur: 10, Step: int64(s)})
			}
		}
		rec := trace.Reduce(1, 0, events, 0.2, 0.4)
		return rec, trace.MarshalRecord(rec)
	}
	perAdd := func(steps int) float64 {
		rec, wire := window(steps)
		w := NewWriter(testMeta())
		return testing.AllocsPerRun(200, func() { w.AddEncoded(wire, rec) })
	}
	small, full := perAdd(1), perAdd(500)
	if full > small+1 || full > 2 {
		t.Fatalf("AddEncoded: %.2f allocs for a 500-step window, %.2f for a 1-step one; want O(1)", full, small)
	}
}
