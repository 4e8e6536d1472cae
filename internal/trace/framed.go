package trace

import (
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/protowire"
)

// Framed record streams are the batch wire form shared across the
// toolchain: a concatenation of (uvarint length, record wire bytes)
// pairs — the same layout archive segments use for their payloads. The
// fleet AppendBatch RPC and the collector's session log both carry this
// format, so one encoder/decoder pair serves every hop.

// AppendFramedRecord appends r as one length-prefixed frame to dst and
// returns the extended slice, growing dst at most once. Safe for
// concurrent use.
func AppendFramedRecord(dst []byte, r *ProfileRecord) []byte {
	st := encPool.Get().(*encState)
	n := st.size(r)
	dst = slices.Grow(dst, protowire.SizeVarint(uint64(n))+n)
	dst = binary.AppendUvarint(dst, uint64(n))
	dst = st.appendRecord(dst, r, n)
	encPool.Put(st)
	return dst
}

// SplitFramed slices a framed stream into its per-record wire bytes.
// The returned frames alias data; they are views, not copies.
func SplitFramed(data []byte) ([][]byte, error) {
	var frames [][]byte
	for pos := 0; pos < len(data); {
		l, n := binary.Uvarint(data[pos:])
		if n <= 0 || uint64(len(data)-pos-n) < l {
			return nil, fmt.Errorf("trace: framed records: bad frame at %d", pos)
		}
		start := pos + n
		frames = append(frames, data[start:start+int(l)])
		pos = start + int(l)
	}
	return frames, nil
}

// SkipFrames returns the tail of a framed stream after its first n
// frames — how a sender resumes a partially accepted batch.
func SkipFrames(data []byte, n int) ([]byte, error) {
	for i := 0; i < n; i++ {
		l, k := binary.Uvarint(data)
		if k <= 0 || uint64(len(data)-k) < l {
			return nil, fmt.Errorf("trace: framed records: bad frame while skipping %d of %d", i, n)
		}
		data = data[k+int(l):]
	}
	return data, nil
}

// UnmarshalFramed decodes every record in a framed stream.
func UnmarshalFramed(data []byte) ([]*ProfileRecord, error) {
	frames, err := SplitFramed(data)
	if err != nil {
		return nil, err
	}
	out := make([]*ProfileRecord, 0, len(frames))
	for i, b := range frames {
		rec, err := UnmarshalRecord(b)
		if err != nil {
			return nil, fmt.Errorf("trace: framed record %d: %w", i, err)
		}
		out = append(out, rec)
	}
	return out, nil
}
