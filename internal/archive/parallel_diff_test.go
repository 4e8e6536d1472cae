package archive

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/trace"
)

// diffWorkers is the fan-out matrix every differential case runs:
// serial reference, a fixed multi-worker point, and whatever this
// machine's GOMAXPROCS is.
func diffWorkers() []int {
	return []int{1, 4, runtime.GOMAXPROCS(0)}
}

// diffSizes is the record-count sweep: empty, single, and the two
// bench scales.
var diffSizes = []int{0, 1, 1_000, 10_000}

// rawBlob writes n synthetic records into an archive without a summary
// (decode differentials don't need the analyzer) using a segment target
// small enough that every size above 0 produces multiple segments.
func rawBlob(t *testing.T, recs []*trace.ProfileRecord) []byte {
	t.Helper()
	w := NewWriter(testMeta())
	if err := w.SetSegmentTarget(2048); err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		w.Add(r)
	}
	return w.Finalize(nil)
}

// TestDecodeDifferential proves the parallel open/decode paths are
// result-identical to the serial ones, for every (n, workers) pair:
// same records (struct-deep), same Iter stream, same serial reference.
func TestDecodeDifferential(t *testing.T) {
	for _, n := range diffSizes {
		recs := synthRecords(n)
		blob := rawBlob(t, recs)

		ref, err := open(blob, 1)
		if err != nil {
			t.Fatalf("n=%d: serial open: %v", n, err)
		}
		want, err := ref.records(1)
		if err != nil {
			t.Fatalf("n=%d: serial decode: %v", n, err)
		}
		if len(want) != n {
			t.Fatalf("n=%d: serial decoded %d records", n, len(want))
		}

		for _, w := range diffWorkers() {
			a, err := open(blob, w)
			if err != nil {
				t.Fatalf("n=%d workers=%d: open: %v", n, w, err)
			}
			got, err := a.records(w)
			if err != nil {
				t.Fatalf("n=%d workers=%d: decode: %v", n, w, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("n=%d workers=%d: parallel decode differs from serial", n, w)
			}

			var streamed []*trace.ProfileRecord
			it := a.Iter()
			for it.Next() {
				streamed = append(streamed, it.Record())
			}
			if err := it.Err(); err != nil {
				t.Fatalf("n=%d workers=%d: iter: %v", n, w, err)
			}
			if len(streamed) != len(want) {
				t.Fatalf("n=%d: iter streamed %d records, want %d", n, len(streamed), len(want))
			}
			if n > 0 && !reflect.DeepEqual(streamed, want) {
				t.Fatalf("n=%d: iter stream differs from serial decode", n)
			}
		}
	}
}

// TestOpenCorruptSegmentDifferential flips a byte inside the middle
// segment and asserts every worker count reports the identical typed
// checksum failure — and that no archive (hence no partial records)
// escapes.
func TestOpenCorruptSegmentDifferential(t *testing.T) {
	for _, n := range []int{1_000, 10_000} {
		blob := rawBlob(t, synthRecords(n))
		good, err := Open(blob)
		if err != nil {
			t.Fatal(err)
		}
		if len(good.segments) < 3 {
			t.Fatalf("n=%d: want >=3 segments, got %d", n, len(good.segments))
		}
		mid := good.segments[len(good.segments)/2]
		bad := append([]byte(nil), blob...)
		bad[mid.offset+mid.length/2] ^= 0xff

		serialErr := func() error {
			a, err := open(bad, 1)
			if a != nil {
				t.Fatalf("n=%d: serial open of corrupt blob returned an archive", n)
			}
			return err
		}()
		if !errors.Is(serialErr, ErrChecksum) {
			t.Fatalf("n=%d: serial error = %v, want ErrChecksum", n, serialErr)
		}
		for _, w := range diffWorkers() {
			a, err := open(bad, w)
			if a != nil {
				t.Fatalf("n=%d workers=%d: corrupt open returned an archive", n, w)
			}
			if !errors.Is(err, ErrChecksum) {
				t.Fatalf("n=%d workers=%d: error = %v, want ErrChecksum", n, w, err)
			}
			if err.Error() != serialErr.Error() {
				t.Fatalf("n=%d workers=%d: error %q differs from serial %q", n, w, err, serialErr)
			}
		}
	}
}

// TestDecodeMalformedRecordDifferential plants a record that passes the
// CRC (it is written through the writer, so the checksum covers it) but
// fails wire decode, and asserts serial, parallel, and streaming decode
// all fail with the identical typed error and leak no records.
func TestDecodeMalformedRecordDifferential(t *testing.T) {
	w := NewWriter(testMeta())
	if err := w.SetSegmentTarget(512); err != nil {
		t.Fatal(err)
	}
	recs := synthRecords(40)
	for _, r := range recs[:20] {
		w.Add(r)
	}
	// A field-0 tag is invalid protobuf wire data; UnmarshalRecord must
	// reject it. AddEncoded frames it like any record, so the segment CRC
	// is consistent and only decode can catch it.
	w.AddEncoded([]byte{0x00, 0x01}, &trace.ProfileRecord{})
	for _, r := range recs[20:] {
		w.Add(r)
	}
	blob := w.Finalize(nil)

	a, err := Open(blob)
	if err != nil {
		t.Fatalf("open: %v (CRC must pass; corruption is inside a record)", err)
	}
	_, serialErr := a.records(1)
	if !errors.Is(serialErr, ErrMalformed) {
		t.Fatalf("serial decode error = %v, want ErrMalformed", serialErr)
	}
	for _, workers := range diffWorkers() {
		got, err := a.records(workers)
		if got != nil {
			t.Fatalf("workers=%d: malformed decode leaked %d records", workers, len(got))
		}
		if err == nil || err.Error() != serialErr.Error() {
			t.Fatalf("workers=%d: error %q differs from serial %q", workers, err, serialErr)
		}
	}
	it := a.Iter()
	for it.Next() {
	}
	if err := it.Err(); err == nil || err.Error() != serialErr.Error() {
		t.Fatalf("iter error %q differs from serial %q", it.Err(), serialErr)
	}
}

// TestSlabWriterMatchesPlainAppend holds the writer's slab chain to the
// layout written out plainly — one buffer, header, then (u32 length,
// payload) per segment, grown by append — on a stream long enough that
// segments straddle every slab size up to the 1 MB the doubling stops at,
// and at targets that cut a segment per record, mid-slab and never. Open
// then verifies every segment's CRC at the offset the slab writer
// indexed it.
func TestSlabWriterMatchesPlainAppend(t *testing.T) {
	recs := synthRecords(25_000) // ~2.5 MB of wire bytes
	for _, target := range []int{1, 1000, DefaultSegmentTarget, maxSegment} {
		w := NewWriter(testMeta())
		if err := w.SetSegmentTarget(target); err != nil {
			t.Fatal(err)
		}
		body := append([]byte(headerMagic), Version)
		var cur []byte
		cut := func() {
			body = binary.LittleEndian.AppendUint32(body, uint32(len(cur)))
			body, cur = append(body, cur...), cur[:0]
		}
		for _, r := range recs {
			w.Add(r)
			b := trace.MarshalRecord(r)
			cur = append(binary.AppendUvarint(cur, uint64(len(b))), b...)
			if len(cur) >= target {
				cut()
			}
		}
		if len(cur) > 0 {
			cut()
		}
		if target <= DefaultSegmentTarget && (len(w.slabs) < 6 || cap(w.slabs[len(w.slabs)-1]) != 1<<20) {
			t.Fatalf("target %d: %d slabs, the last of %d bytes; want at least 6, doubling to 1 MB and no further",
				target, len(w.slabs), cap(w.slabs[len(w.slabs)-1]))
		}
		blob := w.Finalize(nil)
		if len(blob) != cap(blob) {
			t.Fatalf("target %d: blob of %d bytes in a %d-byte allocation, want exact", target, len(blob), cap(blob))
		}
		if !bytes.HasPrefix(blob, body) {
			t.Fatalf("target %d: slab-built body differs from the plainly appended one", target)
		}
		got, err := mustOpenRecords(blob)
		if err != nil {
			t.Fatalf("target %d: %v", target, err)
		}
		if !reflect.DeepEqual(got, recs) {
			t.Fatalf("target %d: records decoded from the slab-built archive differ from those added", target)
		}
	}
}

func mustOpenRecords(blob []byte) ([]*trace.ProfileRecord, error) {
	a, err := Open(blob)
	if err != nil {
		return nil, err
	}
	return a.Records()
}

// TestSetSegmentTarget covers the clamp: non-positive and over-limit
// targets are rejected with the typed error and leave the writer's
// target untouched.
func TestSetSegmentTarget(t *testing.T) {
	w := NewWriter(testMeta())
	for _, bad := range []int{0, -1, -32 << 10, maxSegment + 1} {
		if err := w.SetSegmentTarget(bad); !errors.Is(err, ErrSegmentTarget) {
			t.Fatalf("SetSegmentTarget(%d) = %v, want ErrSegmentTarget", bad, err)
		}
		if w.segTarget != DefaultSegmentTarget {
			t.Fatalf("SetSegmentTarget(%d) mutated target to %d", bad, w.segTarget)
		}
	}
	for _, good := range []int{1, 4096, maxSegment} {
		if err := w.SetSegmentTarget(good); err != nil {
			t.Fatalf("SetSegmentTarget(%d) = %v, want nil", good, err)
		}
		if w.segTarget != good {
			t.Fatalf("SetSegmentTarget(%d) left target %d", good, w.segTarget)
		}
	}
}
