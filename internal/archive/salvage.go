// Archive salvage: the lenient counterpart to Open. Open is all-or-
// nothing by design — one flipped byte fails the whole blob, which is
// the right contract for the repository's validation path but the
// wrong one for disaster recovery. Salvage recovers every segment that
// still proves its integrity and reports exactly what was lost, so a
// truncated upload or a torn collector write costs the damaged
// segments, not the run.
package archive

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"repro/internal/trace"
)

// SalvageReport itemizes what Salvage recovered and what it gave up.
type SalvageReport struct {
	// FooterIntact reports whether the footer index survived. With a
	// footer, segments are judged by their recorded CRC32C; without
	// one, by a sequential scan validated by record decoding.
	FooterIntact bool
	// SegmentsTotal is how many segments were considered: the footer's
	// index size, or (footerless) the count of candidates the scan
	// reached before stopping.
	SegmentsTotal int
	// SegmentsKept is how many segments passed verification and
	// contributed records.
	SegmentsKept int
	// LostSegments are the zero-based indices of segments dropped for
	// bad bounds, CRC mismatch, or undecodable contents.
	LostSegments []int
	// RecordsKept is the number of records recovered.
	RecordsKept int64
	// BytesDropped counts payload bytes in lost segments plus, on the
	// footerless path, the unparseable tail (which includes whatever
	// remains of the footer itself).
	BytesDropped int64
}

// Lossless reports whether salvage recovered a footer-intact archive
// with every segment verified — i.e. Open would have succeeded too.
func (sr *SalvageReport) Lossless() bool {
	return sr.FooterIntact && len(sr.LostSegments) == 0
}

// SalvageResult is the recovered contents of a damaged archive.
type SalvageResult struct {
	// Meta is the run metadata; zero when the footer was lost (the
	// blob's identity must then come from outside, e.g. its manifest
	// entry or object name).
	Meta Meta
	// Summary is the embedded analyzer summary, nil if absent or lost
	// with the footer.
	Summary *Summary
	// Records are the recovered records, in archive order. Only
	// records from verified segments appear: a CRC-failing segment
	// contributes nothing, however plausible its bytes.
	Records []*trace.ProfileRecord
	// Report itemizes the recovery.
	Report SalvageReport
}

// Salvage recovers every intact segment from a damaged archive blob.
// It is deterministic (a pure serial function of the input), never
// panics, and fails only when the input provably is not this format's
// data at all: too short for a header, wrong magic, or an unsupported
// version. Everything else — missing footer, torn tail, flipped bytes
// mid-segment — degrades to a partial result with the damage itemized
// in the report.
//
// Two recovery modes:
//
//   - Footer intact: each indexed segment is bounds- and CRC32C-checked
//     exactly as Open would, then decoded; failures drop that segment
//     only. Metadata and the analyzer summary survive.
//   - Footer lost (truncated tail, bad trailer magic, undecodable
//     footer): segments are re-discovered by scanning the body's
//     u32-length framing from the top, each candidate validated by
//     decoding its records; the scan stops at the first frame that
//     does not parse, and everything after it is counted as dropped.
func Salvage(data []byte) (*SalvageResult, error) {
	if len(data) < headerLen {
		return nil, fmt.Errorf("%w: %d bytes", ErrTruncated, len(data))
	}
	if string(data[:4]) != headerMagic {
		return nil, fmt.Errorf("%w: header %q", ErrBadMagic, data[:4])
	}
	if v := data[4]; v != Version {
		return nil, fmt.Errorf("%w: %d (reader supports %d)", ErrVersion, v, Version)
	}
	if a, bodyEnd := salvageFooter(data); a != nil {
		return salvageIndexed(data, a, bodyEnd), nil
	}
	return salvageScan(data), nil
}

// salvageFooter attempts Open's trailer+footer parse without failing
// the blob: nil means the footer is unusable and the caller must fall
// back to the sequential scan. bodyEnd is where segment payloads stop
// (the footer's first byte).
func salvageFooter(data []byte) (a *Archive, bodyEnd int64) {
	if len(data) < headerLen+TrailerLen {
		return nil, 0
	}
	trailer := data[len(data)-TrailerLen:]
	if string(trailer[4:]) != trailerMagic {
		return nil, 0
	}
	footerLen := int64(binary.LittleEndian.Uint32(trailer[:4]))
	footerEnd := int64(len(data) - TrailerLen)
	if footerLen > footerEnd-headerLen {
		return nil, 0
	}
	a = &Archive{data: data}
	if err := a.decodeFooter(data[footerEnd-footerLen : footerEnd]); err != nil {
		return nil, 0
	}
	return a, footerEnd - footerLen
}

// salvageIndexed keeps every indexed segment that passes the same
// bounds and CRC checks Open applies, plus a record-decode validation
// (Open defers that to Records; salvage must not hand back a segment
// it cannot decode).
func salvageIndexed(data []byte, a *Archive, bodyEnd int64) *SalvageResult {
	res := &SalvageResult{Meta: a.meta, Summary: a.summary}
	res.Report.FooterIntact = true
	res.Report.SegmentsTotal = len(a.segments)
	for i, s := range a.segments {
		if s.offset < headerLen || s.length < 0 || s.length > maxSegment || s.offset+s.length > bodyEnd {
			res.Report.LostSegments = append(res.Report.LostSegments, i)
			continue
		}
		payload := data[s.offset : s.offset+s.length]
		if crc32.Checksum(payload, castagnoli) != s.crc {
			res.Report.LostSegments = append(res.Report.LostSegments, i)
			res.Report.BytesDropped += s.length
			continue
		}
		recs, err := appendPayloadRecords(make([]*trace.ProfileRecord, 0, segCapHint(s)), payload, i)
		if err != nil {
			res.Report.LostSegments = append(res.Report.LostSegments, i)
			res.Report.BytesDropped += s.length
			continue
		}
		res.Records = append(res.Records, recs...)
		res.Report.SegmentsKept++
	}
	res.Report.RecordsKept = int64(len(res.Records))
	return res
}

// salvageScan re-discovers segments without an index by walking the
// u32-length framing from the top of the body. There are no CRCs to
// consult, so each candidate is validated by fully decoding its
// records; the first frame that fails ends the scan (the bytes after
// it may be a damaged segment, the footer's debris, or garbage — none
// distinguishable without the index).
func salvageScan(data []byte) *SalvageResult {
	res := &SalvageResult{}
	pos := headerLen
	for idx := 0; ; idx++ {
		if pos+4 > len(data) {
			break
		}
		n := int(binary.LittleEndian.Uint32(data[pos : pos+4]))
		if n == 0 || n > maxSegment || n > len(data)-pos-4 {
			break
		}
		recs, err := appendPayloadRecords(nil, data[pos+4:pos+4+n], idx)
		if err != nil {
			break
		}
		res.Records = append(res.Records, recs...)
		res.Report.SegmentsKept++
		pos += 4 + n
	}
	res.Report.SegmentsTotal = res.Report.SegmentsKept
	res.Report.RecordsKept = int64(len(res.Records))
	res.Report.BytesDropped = int64(len(data) - pos)
	return res
}

// Rebuild re-archives a salvage result into a fresh, fully valid blob
// under meta (pass res.Meta when the footer survived). The summary is
// dropped: it described the whole run, and after a lossy salvage it
// would claim phases the surviving records may not contain — callers
// re-analyze if they need one.
func Rebuild(meta Meta, res *SalvageResult) []byte {
	w := NewWriter(meta)
	for _, rec := range res.Records {
		w.Add(rec)
	}
	var sum *Summary
	if res.Summary != nil && res.Report.Lossless() {
		sum = res.Summary
	}
	return w.Finalize(sum)
}
