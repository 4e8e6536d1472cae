// Package archive defines the on-bucket profile archive format: the
// durable unit of the run repository (internal/repo).
//
// One archive captures one profiling run — every ProfileRecord the
// profiler produced plus an embedded analyzer summary — in a single
// blob a storage bucket can hold. The paper's evaluation is entirely
// cross-run (phase structure of BERT vs DCGAN, TPUv2 vs TPUv3, Tables
// II-IV); a compact self-describing archive is what makes those
// comparisons possible after the profiling process is gone.
//
// Layout (all integers little-endian):
//
//	magic "TPAR" | version u8
//	repeated segment: u32 payloadLen | payload
//	footer (protobuf wire, see below)
//	u32 footerLen | magic "TPAF"
//
// A segment payload is a concatenation of (uvarint recordLen,
// recordBytes) pairs, where recordBytes is trace.MarshalRecord output —
// the exact wire encoding the RPC layer ships, so records move between
// live streams and archives without re-encoding. The footer indexes
// every segment with its offset, length, CRC32C (Castagnoli, the GCS
// object checksum), and record count, and carries aggregate counts, the
// covered time range, run metadata, and the analyzer summary. Readers
// trust nothing: magic, version, bounds, and every segment checksum are
// verified before any record is decoded, and all failures are typed
// (ErrBadMagic, ErrVersion, ErrTruncated, ErrChecksum, ErrMalformed) —
// never a panic, however corrupt the input (see FuzzOpen).
//
// The footer carries no checksum of its own. A reader that wants only
// the summary reads the blob's tail (footer + trailer) and checks it
// with ReadSummary against the CRC32C that Footer reported when the
// whole blob was verified; the repository records it in each run's
// manifest entry.
//
// The codec's fan-outs (Open's segment verification, Records' segment
// decode) run on a pool sized from GOMAXPROCS; nothing sets the size.
// The unexported forms open and records take it (<= 0 = GOMAXPROCS,
// 1 = inline) so the differential tests can prove what callers rely on:
// chunk boundaries depend only on the input, so decoded records and the
// reported (lowest-index) error are identical for every pool size.
//
// Footer message schema (protobuf field numbers):
//
//	message Footer {
//	  uint64 version = 1;
//	  repeated Segment segments = 2;
//	  uint64 record_count = 3;
//	  uint64 window_count = 4;   // non-gap records
//	  uint64 time_first = 5;
//	  uint64 time_last = 6;
//	  Summary summary = 7;
//	  Meta meta = 8;
//	}
//	message Segment { uint64 offset = 1; uint64 length = 2;
//	                  uint64 crc32c = 3; uint64 records = 4; }
//	message Meta { string run_id = 1; string workload = 2;
//	               string label = 3; string host_spec = 4;
//	               string tpu_version = 5; uint64 created_seq = 6; }
//	message Summary { string workload = 1; string algorithm = 2;
//	                  uint64 steps = 3; double idle_frac = 4;
//	                  double mxu_util = 5; double coverage_top3 = 6;
//	                  uint64 total_time = 7; repeated PhaseSummary phases = 8; }
//	message PhaseSummary { sint64 id = 1; uint64 steps = 2;
//	                       uint64 start = 3; uint64 end = 4;
//	                       uint64 total = 5; double idle_frac = 6;
//	                       double mxu_util = 7; repeated Op ops = 8; }
//	message Op { string name = 1; uint64 device = 2;
//	             uint64 count = 3; uint64 total = 4; }
package archive

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"repro/internal/core/analyzer"
	"repro/internal/parallel"
	"repro/internal/protowire"
	"repro/internal/simclock"
	"repro/internal/trace"
)

// Format constants.
const (
	// Version is the current archive format version.
	Version = 1

	headerMagic  = "TPAR"
	trailerMagic = "TPAF"
	headerLen    = 5 // magic + version byte

	// TrailerLen is the size of the trailer after the footer: u32
	// footerLen + magic. A blob's tail — what ReadSummary takes — is its
	// last footerLen+TrailerLen bytes.
	TrailerLen = 8

	// DefaultSegmentTarget is the payload size at which the writer cuts
	// a new segment. Small enough that one flipped bit invalidates one
	// segment, not the whole run; large enough that the per-segment
	// index stays negligible.
	DefaultSegmentTarget = 32 << 10

	// maxSegment bounds a single segment on read — anything larger is
	// corruption, not data (writers cut at DefaultSegmentTarget plus at
	// most one record, and records are bounded by the profile window).
	maxSegment = 256 << 20
)

// Typed corruption errors. Open wraps these so callers can classify
// failures with errors.Is.
var (
	ErrBadMagic  = errors.New("archive: bad magic")
	ErrVersion   = errors.New("archive: unsupported version")
	ErrTruncated = errors.New("archive: truncated")
	ErrChecksum  = errors.New("archive: checksum mismatch")
	ErrMalformed = errors.New("archive: malformed")
)

// ErrSegmentTarget rejects out-of-range Writer.SetSegmentTarget values.
var ErrSegmentTarget = errors.New("archive: segment target out of range")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Meta identifies a run: how the repository indexes archives.
type Meta struct {
	RunID      string
	Workload   string
	Label      string // free-form experiment tag
	HostSpec   string // rendered host.Spec the run used
	TPUVersion string
	CreatedSeq uint64 // repository-issued logical creation order
	Tenant     string // owning tenant in multi-tenant cluster runs
}

// OpSummary is one operator's aggregate within a phase.
type OpSummary struct {
	Name   string
	Device trace.Device
	Count  int64
	Total  simclock.Duration
}

// PhaseSummary is the compact form of one analyzer phase: enough to
// diff phase structure across runs without re-running the analyzer.
type PhaseSummary struct {
	ID       int
	Steps    int64
	Start    simclock.Time
	End      simclock.Time
	Total    simclock.Duration
	IdleFrac float64
	MXUUtil  float64
	Ops      []OpSummary // top ops per device, duration-descending
}

// Summary is the embedded analyzer result: phases, top-op breakdowns,
// and the idle/MXU aggregates the paper tabulates.
type Summary struct {
	Workload     string
	Algorithm    string
	Steps        int64
	IdleFrac     float64
	MXUUtil      float64
	CoverageTop3 float64
	TotalTime    simclock.Duration
	Phases       []PhaseSummary
}

// SummarizeReport compacts an analyzer report into the archivable
// summary, each phase through Phase.Summarize. The conversion is
// deterministic: phases keep the analyzer's order, ops come from
// trace.TopOf over the phase's one merged op list (duration-descending,
// name tie-break), and phase idle/MXU are duration-weighted step
// averages — so re-analyzing the same records always reproduces
// identical bytes (see TestRoundTripDeterministic).
func SummarizeReport(rep *analyzer.Report) *Summary {
	s := &Summary{
		Workload:     rep.Workload,
		Algorithm:    string(rep.Algorithm),
		Steps:        int64(rep.Steps),
		IdleFrac:     rep.IdleFrac,
		MXUUtil:      rep.MXUUtil,
		CoverageTop3: rep.CoverageTop3,
		TotalTime:    rep.TotalTime,
	}
	for _, p := range rep.Phases {
		s.Phases = append(s.Phases, phaseSummary(p.Summarize()))
	}
	return s
}

// SummarizeStream is the OLS summary of a finished stream's closed
// phases. At duty 1 its bytes are SummarizeReport's of batch OLS over the
// same records: the same steps fold in the same order, and span sums are
// integers, exact in a float64 below 2^53.
func SummarizeStream(rep *analyzer.StreamReport) *Summary {
	s := &Summary{
		Workload:     rep.Workload,
		Algorithm:    string(analyzer.OLSAlgo),
		Steps:        rep.Steps,
		IdleFrac:     rep.IdleFrac,
		MXUUtil:      rep.MXUUtil,
		CoverageTop3: rep.Coverage(3),
		TotalTime:    rep.End.Sub(rep.Start),
	}
	for _, p := range rep.Phases {
		s.Phases = append(s.Phases, phaseSummary(p))
	}
	return s
}

// phaseSummary is the archived form of one closed phase.
func phaseSummary(p *analyzer.StreamPhase) PhaseSummary {
	ps := PhaseSummary{
		ID:       p.ID,
		Steps:    p.Steps,
		Start:    p.Start,
		End:      p.End,
		Total:    p.Total,
		IdleFrac: p.IdleFrac,
		MXUUtil:  p.MXUUtil,
	}
	for _, op := range p.TopOps {
		ps.Ops = append(ps.Ops, OpSummary{Name: op.Name, Device: op.Device, Count: op.Count, Total: op.Total})
	}
	return ps
}

// segment is one indexed run of records inside the archive body.
type segment struct {
	offset  int64 // payload start within the archive blob
	length  int64
	crc     uint32
	records int64
}

// Writer accumulates records into archive bytes. Not safe for
// concurrent use; the fleet server serializes per-session appends.
type Writer struct {
	meta      Meta
	segTarget int

	// slabs hold the flushed segments (length prefix + payload each), end
	// to end. A slab is made at its final capacity — 64 KB, doubling to
	// 1 MB — and never grown: no byte is copied again to make room.
	slabs    [][]byte
	flushed  int    // bytes in slabs
	cur      []byte // unflushed segment payload
	curRecs  int64
	segments []segment

	recordCount int64
	windowCount int64
	haveTime    bool
	tsFirst     simclock.Time
	tsLast      simclock.Time
}

// NewWriter starts an archive for the given run metadata.
func NewWriter(meta Meta) *Writer {
	return &Writer{meta: meta, segTarget: DefaultSegmentTarget}
}

// SetSegmentTarget overrides the segment cut size. Targets outside
// [1, maxSegment] are rejected with ErrSegmentTarget and the current
// target is kept: a non-positive target would make the writer cut a
// segment per record (or never), and anything above maxSegment would
// produce archives Open rejects as corrupt.
func (w *Writer) SetSegmentTarget(n int) error {
	if n < 1 || n > maxSegment {
		return fmt.Errorf("%w: %d (want 1..%d)", ErrSegmentTarget, n, maxSegment)
	}
	w.segTarget = n
	return nil
}

// Add appends one record.
func (w *Writer) Add(rec *trace.ProfileRecord) {
	w.AddEncoded(trace.MarshalRecord(rec), rec)
}

// AddRaw appends an already wire-encoded record (the form a session log
// holds) and returns the record it decodes to. The bytes are decoded once
// to validate them and update the archive's counts; malformed input is
// rejected rather than poisoning the archive.
func (w *Writer) AddRaw(b []byte) (*trace.ProfileRecord, error) {
	rec, err := trace.UnmarshalRecord(b)
	if err != nil {
		return nil, fmt.Errorf("archive: reject record: %w", err)
	}
	w.AddEncoded(b, rec)
	return rec, nil
}

// AddRawBatch appends every record in a trace framed stream ((uvarint
// length, record bytes)*), returning how many landed. The whole batch is
// validated before any byte reaches the archive, so a malformed frame
// rejects the batch atomically — no partial batch to reconcile.
func (w *Writer) AddRawBatch(framed []byte) (int, error) {
	frames, err := trace.SplitFramed(framed)
	if err != nil {
		return 0, fmt.Errorf("archive: reject batch: %w", err)
	}
	recs := make([]*trace.ProfileRecord, len(frames))
	for i, fr := range frames {
		rec, err := trace.UnmarshalRecord(fr)
		if err != nil {
			return 0, fmt.Errorf("archive: reject record: %w", err)
		}
		recs[i] = rec
	}
	for i, fr := range frames {
		w.AddEncoded(fr, recs[i])
	}
	return len(frames), nil
}

// AddEncoded appends a record the caller holds in both forms: b, its wire
// bytes, and rec, the record those bytes decode to — a caller that has
// already validated b by decoding it pays for no second decode here. b is
// copied into the archive as is; rec only updates the counts and the time
// range, so the two must agree.
func (w *Writer) AddEncoded(b []byte, rec *trace.ProfileRecord) {
	w.cur = binary.AppendUvarint(w.cur, uint64(len(b)))
	w.cur = append(w.cur, b...)
	w.curRecs++
	w.recordCount++
	if !rec.Gap {
		w.windowCount++
	}
	if rec.WindowEnd > 0 {
		if !w.haveTime || rec.WindowStart < w.tsFirst {
			w.tsFirst = rec.WindowStart
		}
		if rec.WindowEnd > w.tsLast {
			w.tsLast = rec.WindowEnd
		}
		w.haveTime = true
	}
	if len(w.cur) >= w.segTarget {
		w.flush()
	}
}

func (w *Writer) flush() {
	if len(w.cur) == 0 {
		return
	}
	var lenPrefix [4]byte
	w.write(binary.LittleEndian.AppendUint32(lenPrefix[:0], uint32(len(w.cur))))
	w.segments = append(w.segments, segment{
		offset:  int64(headerLen + w.flushed),
		length:  int64(len(w.cur)),
		crc:     crc32.Checksum(w.cur, castagnoli),
		records: w.curRecs,
	})
	w.write(w.cur)
	w.cur = w.cur[:0]
	w.curRecs = 0
}

// write copies b onto the end of the slab chain, opening a new slab
// whenever the last is full; a segment may straddle slabs.
func (w *Writer) write(b []byte) {
	w.flushed += len(b)
	for len(b) > 0 {
		last := len(w.slabs) - 1
		if last < 0 || len(w.slabs[last]) == cap(w.slabs[last]) {
			w.slabs = append(w.slabs, make([]byte, 0, 2*DefaultSegmentTarget<<min(len(w.slabs), 4)))
			last++
		}
		s := w.slabs[last]
		n := copy(s[len(s):cap(s)], b)
		w.slabs[last], b = s[:len(s)+n], b[n:]
	}
}

// Records reports how many records have been added so far.
func (w *Writer) Records() int64 { return w.recordCount }

// Finalize flushes the last segment, appends the footer embedding sum
// (which may be nil for a summary-less capture), and returns the
// complete archive blob. The writer must not be used afterwards.
func (w *Writer) Finalize(sum *Summary) []byte {
	w.flush()
	footer := w.encodeFooter(sum)
	out := make([]byte, 0, headerLen+w.flushed+len(footer)+TrailerLen)
	out = append(append(out, headerMagic...), Version)
	for _, s := range w.slabs {
		out = append(out, s...)
	}
	out = binary.LittleEndian.AppendUint32(append(out, footer...), uint32(len(footer)))
	w.slabs = nil
	return append(out, trailerMagic...)
}

func (w *Writer) encodeFooter(sum *Summary) []byte {
	e := protowire.NewEncoder(nil)
	e.Uint64(1, Version)
	for _, s := range w.segments {
		se := protowire.NewEncoder(nil)
		se.Uint64(1, uint64(s.offset))
		se.Uint64(2, uint64(s.length))
		se.Uint64(3, uint64(s.crc))
		se.Uint64(4, uint64(s.records))
		e.Raw(2, se.Bytes())
	}
	e.Uint64(3, uint64(w.recordCount))
	e.Uint64(4, uint64(w.windowCount))
	e.Uint64(5, uint64(w.tsFirst))
	e.Uint64(6, uint64(w.tsLast))
	if sum != nil {
		e.Raw(7, MarshalSummary(sum))
	}
	e.Raw(8, marshalMeta(w.meta))
	return e.Bytes()
}

// MarshalSummary encodes a summary to its canonical wire bytes.
// Exported because bit-identical summary bytes are the archive's
// determinism contract: the round-trip test compares these directly.
func MarshalSummary(s *Summary) []byte {
	e := protowire.NewEncoder(nil)
	e.String(1, s.Workload)
	e.String(2, s.Algorithm)
	e.Uint64(3, uint64(s.Steps))
	e.Double(4, s.IdleFrac)
	e.Double(5, s.MXUUtil)
	e.Double(6, s.CoverageTop3)
	e.Uint64(7, uint64(s.TotalTime))
	for _, p := range s.Phases {
		pe := protowire.NewEncoder(nil)
		pe.Int64(1, int64(p.ID))
		pe.Uint64(2, uint64(p.Steps))
		pe.Uint64(3, uint64(p.Start))
		pe.Uint64(4, uint64(p.End))
		pe.Uint64(5, uint64(p.Total))
		pe.Double(6, p.IdleFrac)
		pe.Double(7, p.MXUUtil)
		for _, op := range p.Ops {
			oe := protowire.NewEncoder(nil)
			oe.String(1, op.Name)
			oe.Uint64(2, uint64(op.Device))
			oe.Uint64(3, uint64(op.Count))
			oe.Uint64(4, uint64(op.Total))
			pe.Raw(8, oe.Bytes())
		}
		e.Raw(8, pe.Bytes())
	}
	return e.Bytes()
}

func marshalMeta(m Meta) []byte {
	e := protowire.NewEncoder(nil)
	e.String(1, m.RunID)
	e.String(2, m.Workload)
	e.String(3, m.Label)
	e.String(4, m.HostSpec)
	e.String(5, m.TPUVersion)
	e.Uint64(6, m.CreatedSeq)
	e.String(7, m.Tenant)
	return e.Bytes()
}

// Archive is a verified, opened archive blob.
type Archive struct {
	data     []byte
	meta     Meta
	summary  *Summary
	segments []segment

	recordCount int64
	windowCount int64
	tsFirst     simclock.Time
	tsLast      simclock.Time

	footerLen int64
	footerCRC uint32
}

// Open parses and fully verifies an archive blob: magic, version,
// trailer bounds, footer structure, and every segment's CRC32C. The
// returned Archive retains data (callers handing in a shared buffer
// should pass a copy — bucket reads already are copies).
func Open(data []byte) (*Archive, error) { return open(data, 0) }

// open is Open over a pool of the given size. Segments are independent
// by construction, so the parallel scan checks exactly what the serial
// one does; per-segment failures land in indexed slots and the
// lowest-indexed one is reported.
func open(data []byte, workers int) (*Archive, error) {
	if len(data) < headerLen+TrailerLen {
		return nil, fmt.Errorf("%w: %d bytes", ErrTruncated, len(data))
	}
	if string(data[:4]) != headerMagic {
		return nil, fmt.Errorf("%w: header %q", ErrBadMagic, data[:4])
	}
	if v := data[4]; v != Version {
		return nil, fmt.Errorf("%w: %d (reader supports %d)", ErrVersion, v, Version)
	}
	trailer := data[len(data)-TrailerLen:]
	if string(trailer[4:]) != trailerMagic {
		return nil, fmt.Errorf("%w: trailer %q", ErrBadMagic, trailer[4:])
	}
	footerLen := int64(binary.LittleEndian.Uint32(trailer[:4]))
	footerEnd := int64(len(data) - TrailerLen)
	if footerLen > footerEnd-headerLen {
		return nil, fmt.Errorf("%w: footer length %d exceeds archive", ErrTruncated, footerLen)
	}
	footer := data[footerEnd-footerLen : footerEnd]
	a := &Archive{data: data, footerLen: footerLen, footerCRC: crc32.Checksum(footer, castagnoli)}
	if err := a.decodeFooter(footer); err != nil {
		return nil, err
	}
	errs := make([]error, len(a.segments))
	pool := parallel.New(workers)
	if err := pool.Run(context.Background(), len(a.segments), 1, func(ci, lo, hi int) error {
		for i := lo; i < hi; i++ {
			s := a.segments[i]
			if s.offset < headerLen || s.length < 0 || s.length > maxSegment ||
				s.offset+s.length > footerEnd-footerLen {
				errs[i] = fmt.Errorf("%w: segment %d bounds [%d,+%d)", ErrMalformed, i, s.offset, s.length)
				continue
			}
			if got := crc32.Checksum(data[s.offset:s.offset+s.length], castagnoli); got != s.crc {
				errs[i] = fmt.Errorf("%w: segment %d crc %08x != %08x", ErrChecksum, i, got, s.crc)
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return a, nil
}

// ReadSummary decodes the analyzer summary (nil if none) from an
// archive's tail: its footer and trailer, nothing before them. Nothing in
// the tail vouches for the footer, so the caller supplies the CRC32C that
// Footer reported when the whole blob was verified. It checks the
// trailer magic, that the trailer's footer length is len(tail)-TrailerLen,
// and the CRC, then decodes through the decoder Open uses.
func ReadSummary(tail []byte, crc uint32) (*Summary, error) {
	if len(tail) < TrailerLen {
		return nil, fmt.Errorf("%w: tail of %d bytes", ErrTruncated, len(tail))
	}
	footerEnd := len(tail) - TrailerLen
	if string(tail[footerEnd+4:]) != trailerMagic {
		return nil, fmt.Errorf("%w: trailer %q", ErrBadMagic, tail[footerEnd+4:])
	}
	if n := binary.LittleEndian.Uint32(tail[footerEnd:]); int64(n) != int64(footerEnd) {
		return nil, fmt.Errorf("%w: trailer says a %d-byte footer, tail holds %d", ErrMalformed, n, footerEnd)
	}
	if got := crc32.Checksum(tail[:footerEnd], castagnoli); got != crc {
		return nil, fmt.Errorf("%w: footer crc %08x != %08x", ErrChecksum, got, crc)
	}
	var a Archive
	if err := a.decodeFooter(tail[:footerEnd]); err != nil {
		return nil, err
	}
	return a.summary, nil
}

func (a *Archive) decodeFooter(b []byte) error {
	d := protowire.NewDecoder(b)
	for !d.Done() {
		f, ty, err := d.Next()
		if err != nil {
			return fmt.Errorf("%w: footer: %v", ErrMalformed, err)
		}
		switch f {
		case 1:
			v, err := d.Uint64()
			if err != nil {
				return fmt.Errorf("%w: footer version: %v", ErrMalformed, err)
			}
			if v != Version {
				return fmt.Errorf("%w: footer says %d", ErrVersion, v)
			}
		case 2:
			raw, err := d.Raw()
			if err != nil {
				return fmt.Errorf("%w: footer segment: %v", ErrMalformed, err)
			}
			s, err := decodeSegment(raw)
			if err != nil {
				return err
			}
			a.segments = append(a.segments, s)
		case 3:
			v, err := d.Uint64()
			if err != nil {
				return fmt.Errorf("%w: record count: %v", ErrMalformed, err)
			}
			a.recordCount = int64(v)
		case 4:
			v, err := d.Uint64()
			if err != nil {
				return fmt.Errorf("%w: window count: %v", ErrMalformed, err)
			}
			a.windowCount = int64(v)
		case 5:
			v, err := d.Uint64()
			if err != nil {
				return fmt.Errorf("%w: time first: %v", ErrMalformed, err)
			}
			a.tsFirst = simclock.Time(v)
		case 6:
			v, err := d.Uint64()
			if err != nil {
				return fmt.Errorf("%w: time last: %v", ErrMalformed, err)
			}
			a.tsLast = simclock.Time(v)
		case 7:
			raw, err := d.Raw()
			if err != nil {
				return fmt.Errorf("%w: summary: %v", ErrMalformed, err)
			}
			sum, err := UnmarshalSummary(raw)
			if err != nil {
				return err
			}
			a.summary = sum
		case 8:
			raw, err := d.Raw()
			if err != nil {
				return fmt.Errorf("%w: meta: %v", ErrMalformed, err)
			}
			m, err := unmarshalMeta(raw)
			if err != nil {
				return err
			}
			a.meta = m
		default:
			if err := d.Skip(ty); err != nil {
				return fmt.Errorf("%w: footer field %d: %v", ErrMalformed, f, err)
			}
		}
	}
	return nil
}

func decodeSegment(b []byte) (segment, error) {
	var s segment
	d := protowire.NewDecoder(b)
	for !d.Done() {
		f, ty, err := d.Next()
		if err != nil {
			return s, fmt.Errorf("%w: segment: %v", ErrMalformed, err)
		}
		var v uint64
		switch f {
		case 1, 2, 3, 4:
			if v, err = d.Uint64(); err != nil {
				return s, fmt.Errorf("%w: segment field %d: %v", ErrMalformed, f, err)
			}
		default:
			if err := d.Skip(ty); err != nil {
				return s, fmt.Errorf("%w: segment field %d: %v", ErrMalformed, f, err)
			}
			continue
		}
		switch f {
		case 1:
			s.offset = int64(v)
		case 2:
			s.length = int64(v)
		case 3:
			if v > 0xffffffff {
				return s, fmt.Errorf("%w: segment crc %d", ErrMalformed, v)
			}
			s.crc = uint32(v)
		case 4:
			s.records = int64(v)
		}
	}
	return s, nil
}

// UnmarshalSummary decodes summary wire bytes.
func UnmarshalSummary(b []byte) (*Summary, error) {
	s := &Summary{}
	d := protowire.NewDecoder(b)
	for !d.Done() {
		f, ty, err := d.Next()
		if err != nil {
			return nil, fmt.Errorf("%w: summary: %v", ErrMalformed, err)
		}
		switch f {
		case 1:
			if s.Workload, err = d.String(); err != nil {
				return nil, fmt.Errorf("%w: summary workload: %v", ErrMalformed, err)
			}
		case 2:
			if s.Algorithm, err = d.String(); err != nil {
				return nil, fmt.Errorf("%w: summary algorithm: %v", ErrMalformed, err)
			}
		case 3:
			v, err := d.Uint64()
			if err != nil {
				return nil, fmt.Errorf("%w: summary steps: %v", ErrMalformed, err)
			}
			s.Steps = int64(v)
		case 4:
			if s.IdleFrac, err = d.Double(); err != nil {
				return nil, fmt.Errorf("%w: summary idle: %v", ErrMalformed, err)
			}
		case 5:
			if s.MXUUtil, err = d.Double(); err != nil {
				return nil, fmt.Errorf("%w: summary mxu: %v", ErrMalformed, err)
			}
		case 6:
			if s.CoverageTop3, err = d.Double(); err != nil {
				return nil, fmt.Errorf("%w: summary coverage: %v", ErrMalformed, err)
			}
		case 7:
			v, err := d.Uint64()
			if err != nil {
				return nil, fmt.Errorf("%w: summary total time: %v", ErrMalformed, err)
			}
			s.TotalTime = simclock.Duration(v)
		case 8:
			raw, err := d.Raw()
			if err != nil {
				return nil, fmt.Errorf("%w: summary phase: %v", ErrMalformed, err)
			}
			p, err := unmarshalPhase(raw)
			if err != nil {
				return nil, err
			}
			s.Phases = append(s.Phases, p)
		default:
			if err := d.Skip(ty); err != nil {
				return nil, fmt.Errorf("%w: summary field %d: %v", ErrMalformed, f, err)
			}
		}
	}
	return s, nil
}

func unmarshalPhase(b []byte) (PhaseSummary, error) {
	var p PhaseSummary
	d := protowire.NewDecoder(b)
	for !d.Done() {
		f, ty, err := d.Next()
		if err != nil {
			return p, fmt.Errorf("%w: phase: %v", ErrMalformed, err)
		}
		switch f {
		case 1:
			v, err := d.Int64()
			if err != nil {
				return p, fmt.Errorf("%w: phase id: %v", ErrMalformed, err)
			}
			p.ID = int(v)
		case 2:
			v, err := d.Uint64()
			if err != nil {
				return p, fmt.Errorf("%w: phase steps: %v", ErrMalformed, err)
			}
			p.Steps = int64(v)
		case 3:
			v, err := d.Uint64()
			if err != nil {
				return p, fmt.Errorf("%w: phase start: %v", ErrMalformed, err)
			}
			p.Start = simclock.Time(v)
		case 4:
			v, err := d.Uint64()
			if err != nil {
				return p, fmt.Errorf("%w: phase end: %v", ErrMalformed, err)
			}
			p.End = simclock.Time(v)
		case 5:
			v, err := d.Uint64()
			if err != nil {
				return p, fmt.Errorf("%w: phase total: %v", ErrMalformed, err)
			}
			p.Total = simclock.Duration(v)
		case 6:
			if p.IdleFrac, err = d.Double(); err != nil {
				return p, fmt.Errorf("%w: phase idle: %v", ErrMalformed, err)
			}
		case 7:
			if p.MXUUtil, err = d.Double(); err != nil {
				return p, fmt.Errorf("%w: phase mxu: %v", ErrMalformed, err)
			}
		case 8:
			raw, err := d.Raw()
			if err != nil {
				return p, fmt.Errorf("%w: phase op: %v", ErrMalformed, err)
			}
			op, err := unmarshalOp(raw)
			if err != nil {
				return p, err
			}
			p.Ops = append(p.Ops, op)
		default:
			if err := d.Skip(ty); err != nil {
				return p, fmt.Errorf("%w: phase field %d: %v", ErrMalformed, f, err)
			}
		}
	}
	return p, nil
}

func unmarshalOp(b []byte) (OpSummary, error) {
	var op OpSummary
	d := protowire.NewDecoder(b)
	for !d.Done() {
		f, ty, err := d.Next()
		if err != nil {
			return op, fmt.Errorf("%w: op: %v", ErrMalformed, err)
		}
		switch f {
		case 1:
			if op.Name, err = d.String(); err != nil {
				return op, fmt.Errorf("%w: op name: %v", ErrMalformed, err)
			}
		case 2:
			v, err := d.Uint64()
			if err != nil {
				return op, fmt.Errorf("%w: op device: %v", ErrMalformed, err)
			}
			if v > uint64(trace.TPU) {
				return op, fmt.Errorf("%w: op device %d", ErrMalformed, v)
			}
			op.Device = trace.Device(v)
		case 3:
			v, err := d.Uint64()
			if err != nil {
				return op, fmt.Errorf("%w: op count: %v", ErrMalformed, err)
			}
			op.Count = int64(v)
		case 4:
			v, err := d.Uint64()
			if err != nil {
				return op, fmt.Errorf("%w: op total: %v", ErrMalformed, err)
			}
			op.Total = simclock.Duration(v)
		default:
			if err := d.Skip(ty); err != nil {
				return op, fmt.Errorf("%w: op field %d: %v", ErrMalformed, f, err)
			}
		}
	}
	return op, nil
}

func unmarshalMeta(b []byte) (Meta, error) {
	var m Meta
	d := protowire.NewDecoder(b)
	for !d.Done() {
		f, ty, err := d.Next()
		if err != nil {
			return m, fmt.Errorf("%w: meta: %v", ErrMalformed, err)
		}
		switch f {
		case 1, 2, 3, 4, 5, 7:
			v, err := d.String()
			if err != nil {
				return m, fmt.Errorf("%w: meta field %d: %v", ErrMalformed, f, err)
			}
			switch f {
			case 1:
				m.RunID = v
			case 2:
				m.Workload = v
			case 3:
				m.Label = v
			case 4:
				m.HostSpec = v
			case 5:
				m.TPUVersion = v
			case 7:
				m.Tenant = v
			}
		case 6:
			v, err := d.Uint64()
			if err != nil {
				return m, fmt.Errorf("%w: meta created seq: %v", ErrMalformed, err)
			}
			m.CreatedSeq = v
		default:
			if err := d.Skip(ty); err != nil {
				return m, fmt.Errorf("%w: meta field %d: %v", ErrMalformed, f, err)
			}
		}
	}
	return m, nil
}

// Meta returns the run metadata.
func (a *Archive) Meta() Meta { return a.meta }

// Summary returns the embedded analyzer summary (nil if none).
func (a *Archive) Summary() *Summary { return a.summary }

// RecordCount is the number of archived records (including gaps).
func (a *Archive) RecordCount() int64 { return a.recordCount }

// WindowCount is the number of archived non-gap profile windows.
func (a *Archive) WindowCount() int64 { return a.windowCount }

// TimeRange returns the covered simulated-time span.
func (a *Archive) TimeRange() (first, last simclock.Time) {
	return a.tsFirst, a.tsLast
}

// Size is the blob's byte size.
func (a *Archive) Size() int64 { return int64(len(a.data)) }

// Footer returns the footer's byte length and CRC32C: what a reader
// holding only the blob's tail needs to check it (ReadSummary).
func (a *Archive) Footer() (n int64, crc uint32) { return a.footerLen, a.footerCRC }

// Records decodes every archived record, in archive order.
func (a *Archive) Records() ([]*trace.ProfileRecord, error) {
	return a.records(0)
}

// records is Records over a pool of the given size. Each segment decodes
// into its own slot and the slots merge in segment order (see
// TestDecodeDifferential).
func (a *Archive) records(workers int) ([]*trace.ProfileRecord, error) {
	chunks := make([][]*trace.ProfileRecord, len(a.segments))
	errs := make([]error, len(a.segments))
	pool := parallel.New(workers)
	if err := pool.Run(context.Background(), len(a.segments), 1, func(ci, lo, hi int) error {
		for i := lo; i < hi; i++ {
			s := a.segments[i]
			out := make([]*trace.ProfileRecord, 0, segCapHint(s))
			out, errs[i] = appendPayloadRecords(out, a.data[s.offset:s.offset+s.length], i)
			chunks[i] = out
		}
		return nil
	}); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	out := make([]*trace.ProfileRecord, 0, a.recordCount)
	for _, c := range chunks {
		out = append(out, c...)
	}
	return out, nil
}

// segCapHint sizes a per-segment decode buffer from the footer's record
// count, clamped by what the payload could physically frame so a lying
// footer cannot force an oversized allocation.
func segCapHint(s segment) int64 {
	n := s.records
	if n > s.length {
		n = s.length
	}
	if n < 0 {
		n = 0
	}
	return n
}

// appendPayloadRecords decodes one segment payload — (uvarint len,
// record bytes) pairs — appending onto out. seg only labels errors.
func appendPayloadRecords(out []*trace.ProfileRecord, payload []byte, seg int) ([]*trace.ProfileRecord, error) {
	for pos := 0; pos < len(payload); {
		n, adv := binary.Uvarint(payload[pos:])
		if adv <= 0 || n > uint64(len(payload)-pos-adv) {
			return nil, fmt.Errorf("%w: segment %d record framing at %d", ErrMalformed, seg, pos)
		}
		pos += adv
		rec, err := trace.UnmarshalRecord(payload[pos : pos+int(n)])
		if err != nil {
			return nil, fmt.Errorf("%w: segment %d record: %v", ErrMalformed, seg, err)
		}
		out = append(out, rec)
		pos += int(n)
	}
	return out, nil
}

// Iter returns a streaming reader over the archive's records, in
// archive order. Unlike Records it never materializes the run: one
// record is decoded per Next, so consumers that reduce or forward
// records hold O(1) of them regardless of run size.
//
//	it := a.Iter()
//	for it.Next() {
//		use(it.Record())
//	}
//	if err := it.Err(); err != nil { ... }
func (a *Archive) Iter() *Iter { return &Iter{a: a} }

// Iter is a scanner-style record stream over an opened archive. Not
// safe for concurrent use; open one Iter per goroutine.
type Iter struct {
	a       *Archive
	rec     *trace.ProfileRecord
	err     error
	seg     int    // next segment to load
	cur     int    // segment the current payload came from
	payload []byte // remaining bytes of the current segment
	pos     int    // decode offset within payload (error labels)
}

// Next advances to the next record, reporting false at the end of the
// stream or on the first decode error (see Err).
func (it *Iter) Next() bool {
	if it.err != nil {
		return false
	}
	for it.pos >= len(it.payload) {
		if it.seg >= len(it.a.segments) {
			return false
		}
		s := it.a.segments[it.seg]
		it.payload = it.a.data[s.offset : s.offset+s.length]
		it.pos = 0
		it.cur = it.seg
		it.seg++
	}
	n, adv := binary.Uvarint(it.payload[it.pos:])
	if adv <= 0 || n > uint64(len(it.payload)-it.pos-adv) {
		it.err = fmt.Errorf("%w: segment %d record framing at %d", ErrMalformed, it.cur, it.pos)
		return false
	}
	start := it.pos + adv
	rec, err := trace.UnmarshalRecord(it.payload[start : start+int(n)])
	if err != nil {
		it.err = fmt.Errorf("%w: segment %d record: %v", ErrMalformed, it.cur, err)
		return false
	}
	it.rec = rec
	it.pos = start + int(n)
	return true
}

// Record returns the record Next advanced to.
func (it *Iter) Record() *trace.ProfileRecord { return it.rec }

// Err returns the first decode error, if any. A clean end of stream
// returns nil.
func (it *Iter) Err() error { return it.err }
