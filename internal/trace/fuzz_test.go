package trace

import (
	"bytes"
	"reflect"
	"testing"
)

// The wire decoders parse bytes that cross a trust boundary (the RPC
// transport); they must reject arbitrary input with errors, never panics.

func FuzzUnmarshalRecord(f *testing.F) {
	f.Add([]byte{})
	f.Add(MarshalRecord(&ProfileRecord{Seq: 1}))
	r := Reduce(3, 0, []Event{
		{Name: "fusion", Device: TPU, Start: 5, Dur: 10, Step: 1},
		{Name: "Send", Device: Host, Start: 15, Dur: 1, Step: 1},
	}, 0.4, 0.2)
	f.Add(MarshalRecord(r))
	// Fields under the wrong wire type: the walk that counts a record's
	// entries to size its slabs parses this differently from the decode,
	// which reads a field by its number (field 1 as a varint, field 4 as 8
	// bytes) whatever type its tag claims.
	f.Add([]byte("X0X00\x9a\x99\x99\x99\x99\x99\xd900\x9a\x99\x99\x99\x99\x99\xc90B6\b0\x100B\x100000000000000000\xc90000000008080 00000000900000000"))
	// The op entries at each edge of the decoder's fast path.
	for _, r := range fastPathRecords() {
		f.Add(r.wire)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// The decoder accepts exactly what the one it replaced accepted,
		// and returns the same record.
		checkDecodeMatchesOracle(t, "decode", data)
		rec, err := UnmarshalRecord(data)
		if err != nil {
			return
		}
		if rec == nil {
			t.Fatal("nil record without error")
		}
		// Whatever order and repetition the input's op entries came in,
		// every decoded step holds the list invariant, and the record is a
		// fixed point of encode-decode from here on.
		for _, s := range rec.Steps {
			CheckOps(t, "decode", s)
		}
		wire := MarshalRecord(rec)
		again, err := UnmarshalRecord(wire)
		if err != nil {
			t.Fatalf("re-decode of a decoded record: %v", err)
		}
		// The bytes carry every field (doubles bit for bit, so a NaN
		// compares equal here where DeepEqual would not); the lists are
		// compared as values, nil against nil.
		if !bytes.Equal(MarshalRecord(again), wire) || len(again.Steps) != len(rec.Steps) ||
			(again.Steps == nil) != (rec.Steps == nil) {
			t.Fatalf("decode, marshal, decode changed the record:\n got %+v\nwant %+v", again, rec)
		}
		for i, s := range again.Steps {
			if !reflect.DeepEqual(s.Ops, rec.Steps[i].Ops) {
				t.Fatalf("decode, marshal, decode changed step %d's ops:\n got %+v\nwant %+v", i, s.Ops, rec.Steps[i].Ops)
			}
		}
	})
}

func FuzzUnmarshalEvents(f *testing.F) {
	f.Add([]byte{})
	f.Add(MarshalEvents([]Event{{Name: "x", Device: Host, Start: 1, Dur: 2, Step: 3}}))
	f.Fuzz(func(t *testing.T, data []byte) {
		events, err := UnmarshalEvents(data)
		if err != nil {
			return
		}
		for _, e := range events {
			if e.Device != Host && e.Device != TPU {
				t.Fatalf("decoded invalid device %d", e.Device)
			}
		}
	})
}
