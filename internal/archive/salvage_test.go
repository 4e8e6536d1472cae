package archive

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/trace"
)

// recordBytes flattens records to their wire form for comparison.
func recordBytes(t *testing.T, recs []*trace.ProfileRecord) [][]byte {
	t.Helper()
	out := make([][]byte, len(recs))
	for i, r := range recs {
		out[i] = trace.MarshalRecord(r)
	}
	return out
}

func sameRecords(t *testing.T, got, want []*trace.ProfileRecord) bool {
	t.Helper()
	g, w := recordBytes(t, got), recordBytes(t, want)
	if len(g) != len(w) {
		return false
	}
	for i := range g {
		if !bytes.Equal(g[i], w[i]) {
			return false
		}
	}
	return true
}

func TestSalvageLossless(t *testing.T) {
	recs := synthRecords(40)
	blob := buildArchive(t, recs, 512)
	res, err := Salvage(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Report.Lossless() {
		t.Fatalf("report = %+v, want lossless", res.Report)
	}
	if res.Meta != testMeta() {
		t.Fatalf("meta = %+v", res.Meta)
	}
	if res.Summary == nil {
		t.Fatal("summary lost on an intact blob")
	}
	a, err := Open(blob)
	if err != nil {
		t.Fatal(err)
	}
	want, err := a.Records()
	if err != nil {
		t.Fatal(err)
	}
	if !sameRecords(t, res.Records, want) {
		t.Fatal("salvage of an intact blob differs from Open+Records")
	}
	if res.Report.SegmentsKept != res.Report.SegmentsTotal || res.Report.BytesDropped != 0 {
		t.Fatalf("report = %+v", res.Report)
	}
}

// TestSalvageFlippedByte: one corrupted segment costs exactly that
// segment — and no record from it may leak into the result.
func TestSalvageFlippedByte(t *testing.T) {
	recs := synthRecords(40)
	blob := buildArchive(t, recs, 512)
	a, err := Open(blob)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.segments) < 2 {
		t.Fatalf("need multiple segments, got %d", len(a.segments))
	}
	s0 := a.segments[0]
	cp := append([]byte(nil), blob...)
	cp[s0.offset+s0.length/2] ^= 0x01
	if _, err := Open(cp); !errors.Is(err, ErrChecksum) {
		t.Fatalf("Open should fail the flipped blob with ErrChecksum, got %v", err)
	}

	res, err := Salvage(cp)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Report.FooterIntact {
		t.Fatal("footer should survive a body flip")
	}
	if len(res.Report.LostSegments) != 1 || res.Report.LostSegments[0] != 0 {
		t.Fatalf("LostSegments = %v, want [0]", res.Report.LostSegments)
	}
	all, err := a.Records()
	if err != nil {
		t.Fatal(err)
	}
	if !sameRecords(t, res.Records, all[s0.records:]) {
		t.Fatal("salvage must return exactly the records outside the corrupt segment")
	}
	if res.Report.BytesDropped != s0.length {
		t.Fatalf("BytesDropped = %d, want %d", res.Report.BytesDropped, s0.length)
	}
	if res.Meta != testMeta() {
		t.Fatalf("meta = %+v", res.Meta)
	}
}

// TestSalvageTruncatedTail: the trailer and footer are gone and the
// last segment is torn — everything before it comes back via the scan.
func TestSalvageTruncatedTail(t *testing.T) {
	recs := synthRecords(40)
	blob := buildArchive(t, recs, 512)
	a, err := Open(blob)
	if err != nil {
		t.Fatal(err)
	}
	last := a.segments[len(a.segments)-1]
	cut := last.offset + last.length/2 // mid-final-segment: footer lost, tail torn
	torn := blob[:cut]
	if _, err := Open(torn); err == nil {
		t.Fatal("Open should reject the torn blob")
	}

	res, err := Salvage(torn)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.FooterIntact {
		t.Fatal("footer cannot be intact on a torn tail")
	}
	all, err := a.Records()
	if err != nil {
		t.Fatal(err)
	}
	wantKept := int64(0)
	for _, s := range a.segments[:len(a.segments)-1] {
		wantKept += s.records
	}
	if !sameRecords(t, res.Records, all[:wantKept]) {
		t.Fatalf("recovered %d records, want the %d before the torn segment",
			len(res.Records), wantKept)
	}
	if res.Report.SegmentsKept != len(a.segments)-1 {
		t.Fatalf("SegmentsKept = %d, want %d", res.Report.SegmentsKept, len(a.segments)-1)
	}
}

// TestSalvageMissingFooter: body fully intact, index gone — the scan
// recovers every record (metadata is unrecoverable by design).
func TestSalvageMissingFooter(t *testing.T) {
	recs := synthRecords(40)
	blob := buildArchive(t, recs, 512)
	a, err := Open(blob)
	if err != nil {
		t.Fatal(err)
	}
	last := a.segments[len(a.segments)-1]
	bodyOnly := blob[:last.offset+last.length]

	res, err := Salvage(bodyOnly)
	if err != nil {
		t.Fatal(err)
	}
	all, err := a.Records()
	if err != nil {
		t.Fatal(err)
	}
	if !sameRecords(t, res.Records, all) {
		t.Fatalf("recovered %d records, want all %d", len(res.Records), len(all))
	}
	if res.Meta != (Meta{}) || res.Summary != nil {
		t.Fatal("metadata cannot survive a lost footer")
	}
}

// TestSalvageCorruptionTable mirrors TestOpenCorruption: every blob
// Open rejects must salvage without panicking, and the rows where data
// is recoverable must recover it.
func TestSalvageCorruptionTable(t *testing.T) {
	recs := synthRecords(30)
	blob := buildArchive(t, recs, 512)
	a, err := Open(blob)
	if err != nil {
		t.Fatal(err)
	}
	total, err := a.Records()
	if err != nil {
		t.Fatal(err)
	}
	mutate := func(f func(b []byte) []byte) []byte {
		cp := make([]byte, len(blob))
		copy(cp, blob)
		return f(cp)
	}

	cases := []struct {
		name     string
		blob     []byte
		wantErr  error // non-nil: Salvage itself must fail with this
		minRecs  int   // else: at least this many records recovered
		wantMeta bool
	}{
		{"empty", nil, ErrTruncated, 0, false},
		{"bad header magic", mutate(func(b []byte) []byte { b[0] = 'X'; return b }), ErrBadMagic, 0, false},
		{"unknown version", mutate(func(b []byte) []byte { b[4] = 42; return b }), ErrVersion, 0, false},
		{"bad trailer magic", mutate(func(b []byte) []byte { b[len(b)-1] = 'X'; return b }),
			nil, len(total), false},
		{"truncated footer", mutate(func(b []byte) []byte {
			cut := len(b) / 2
			return append(b[:cut], b[len(b)-TrailerLen:]...)
		}), nil, 0, false},
		{"segment bit flip", mutate(func(b []byte) []byte {
			b[headerLen+10] ^= 0x40
			return b
		}), nil, len(total) - int(a.segments[0].records), true},
		{"footer garbage", mutate(func(b []byte) []byte {
			footerLen := int(uint32(b[len(b)-8]) | uint32(b[len(b)-7])<<8 |
				uint32(b[len(b)-6])<<16 | uint32(b[len(b)-5])<<24)
			b[len(b)-TrailerLen-footerLen] ^= 0xff
			return b
		}), nil, len(total), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Salvage(tc.blob)
			if tc.wantErr != nil {
				if !errors.Is(err, tc.wantErr) {
					t.Fatalf("err = %v, want %v", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("salvage failed: %v", err)
			}
			if len(res.Records) < tc.minRecs {
				t.Fatalf("recovered %d records, want >= %d", len(res.Records), tc.minRecs)
			}
			if tc.wantMeta && res.Meta != testMeta() {
				t.Fatalf("meta = %+v", res.Meta)
			}
			if int64(len(res.Records)) != res.Report.RecordsKept {
				t.Fatalf("RecordsKept = %d, records = %d", res.Report.RecordsKept, len(res.Records))
			}
		})
	}
}

func TestSalvageDeterministic(t *testing.T) {
	blob := buildArchive(t, synthRecords(30), 512)
	torn := blob[:len(blob)*2/3]
	a, err := Salvage(torn)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Salvage(torn)
	if err != nil {
		t.Fatal(err)
	}
	if !sameRecords(t, a.Records, b.Records) {
		t.Fatal("salvage is not deterministic")
	}
	if renderReport(a.Report) != renderReport(b.Report) {
		t.Fatalf("reports differ: %+v vs %+v", a.Report, b.Report)
	}
}

// renderReport flattens a report (slice field included) so reports can
// be compared as values.
func renderReport(rep SalvageReport) string {
	return fmt.Sprintf("%+v", rep)
}

// TestRebuildRoundTrip: a salvaged run re-archives into a blob Open
// fully verifies, preserving the recovered records.
func TestRebuildRoundTrip(t *testing.T) {
	recs := synthRecords(40)
	blob := buildArchive(t, recs, 512)
	a, err := Open(blob)
	if err != nil {
		t.Fatal(err)
	}
	last := a.segments[len(a.segments)-1]
	res, err := Salvage(blob[:last.offset+last.length/2])
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) == 0 {
		t.Fatal("nothing salvaged")
	}
	rebuilt := Rebuild(testMeta(), res)
	ra, err := Open(rebuilt)
	if err != nil {
		t.Fatalf("rebuilt blob does not verify: %v", err)
	}
	if ra.Meta() != testMeta() {
		t.Fatalf("meta = %+v", ra.Meta())
	}
	got, err := ra.Records()
	if err != nil {
		t.Fatal(err)
	}
	if !sameRecords(t, got, res.Records) {
		t.Fatal("rebuild lost records")
	}
	if ra.Summary() != nil {
		t.Fatal("lossy rebuild must not carry the stale summary")
	}

	// A lossless salvage keeps the summary through rebuild.
	full, err := Salvage(blob)
	if err != nil {
		t.Fatal(err)
	}
	if fa, err := Open(Rebuild(full.Meta, full)); err != nil {
		t.Fatal(err)
	} else if fa.Summary() == nil {
		t.Fatal("lossless rebuild dropped the summary")
	}
}
