package trace

import (
	"bytes"
	"reflect"
	"slices"
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

// FuzzUnmarshalEvents drives DecodeEvents through chunks of 1, 7 and
// 1024 events: it accepts what unmarshalEventsOracle accepts, hands on
// every chunk full but the last and none empty, and decodes the oracle's
// events.
func FuzzUnmarshalEvents(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendEvents(nil, []Event{{Name: "x", Device: Host, Start: 1, Dur: 2, Step: 3}}))
	f.Add(AppendEvents(nil, []Event{{Name: "a", Device: TPU, Step: -1}, {Name: "b"}, {Name: "a", Device: TPU, Start: 9}}))
	f.Fuzz(func(t *testing.T, data []byte) {
		want, wantErr := unmarshalEventsOracle(data)
		for _, size := range []int{1, 7, 1024} {
			var got []Event
			short := false
			err := DecodeEvents(data, make([]Event, size), make(map[string]string), func(chunk []Event) {
				if len(chunk) == 0 || short {
					t.Fatalf("chunks of %d: a chunk of %d events after a short one, or an empty one", size, len(chunk))
				}
				short = len(chunk) < size
				got = append(got, chunk...)
			})
			if (err != nil) != (wantErr != nil) {
				t.Fatalf("chunks of %d: error %v, the oracle's %v", size, err, wantErr)
			}
			if err != nil {
				continue
			}
			if !slices.Equal(got, want) {
				t.Fatalf("chunks of %d: %d events, the oracle's %d (or not the same ones)", size, len(got), len(want))
			}
			for _, e := range got {
				if e.Device != Host && e.Device != TPU {
					t.Fatalf("decoded invalid device %d", e.Device)
				}
			}
		}
	})
}
