package trace

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/protowire"
)

// An op entry's four fields, each encoded the way appendStep encodes it,
// so a test can lay them out in any order, repeat or drop one.
func entryName(s string) []byte   { return protowire.AppendString(nil, 1, s) }
func entryDevice(v uint64) []byte { return protowire.AppendUint64(nil, 2, v) }
func entryCount(v uint64) []byte  { return protowire.AppendUint64(nil, 3, v) }
func entryTotal(v uint64) []byte  { return protowire.AppendUint64(nil, 4, v) }

func cat(parts ...[]byte) []byte {
	var b []byte
	for _, p := range parts {
		b = append(b, p...)
	}
	return b
}

// overflowVarint is a varint of ten bytes whose last carries more than the
// 64th bit.
var overflowVarint = []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02}

type fastPathEdge struct {
	name  string
	entry []byte
	fast  bool // whether fastOp decodes it rather than declining it to op
}

// fastPathEdges are op entries at each edge of the layout fastOp takes:
// the entries appendStep writes, and one step past them in every way it
// declines.
func fastPathEdges() []fastPathEdge {
	name, dev, count, total := entryName("fusion"), entryDevice(uint64(TPU)), entryCount(3), entryTotal(1500)
	return []fastPathEdge{
		{"as appendStep writes it", cat(name, dev, count, total), true},
		{"a 127-byte name", cat(entryName(strings.Repeat("n", 127)), dev, count, total), true},
		{"a 128-byte name", cat(entryName(strings.Repeat("n", 128)), dev, count, total), false},
		{"an empty name", cat(entryName(""), dev, count, total), false},
		{"device 0", cat(name, entryDevice(uint64(Host)), count, total), true},
		{"device 2", cat(name, entryDevice(2), count, total), false},
		{"device 1 as a two-byte varint", cat(name, []byte{0x10, 0x81, 0x00}, count, total), false},
		{"a 1-byte count and total", cat(name, dev, entryCount(0), entryTotal(1)), true},
		{"a 10-byte count", cat(name, dev, entryCount(math.MaxUint64), total), true},
		{"a 10-byte total", cat(name, dev, count, entryTotal(math.MaxUint64)), true},
		{"an overflowing count", cat(name, dev, []byte{0x18}, overflowVarint, total), false},
		{"an overflowing total", cat(name, dev, count, []byte{0x20}, overflowVarint), false},
		{"a truncated total", cat(name, dev, count, []byte{0x20}), false},
		{"a trailing unknown field", cat(name, dev, count, total, protowire.AppendUint64(nil, 5, 7)), false},
		{"a trailing field-0 tag", cat(name, dev, count, total, []byte{0x00}), false},
		{"the fields in reverse order", cat(total, count, dev, name), false},
		{"a repeated total", cat(name, dev, count, total, entryTotal(9)), false},
		{"a repeated name", cat(name, entryName("other"), dev, count, total), false},
		{"no device", cat(name, count, total), false},
		{"no total", cat(name, dev, count), false},
		{"field 2 sent as I64", cat(name, protowire.AppendDouble(nil, 2, math.Float64frombits(1)), count, total), false},
	}
}

type fastPathRecord struct {
	name string
	wire []byte
}

// fastPathRecords are one-step records around each edge entry: the entry
// alone, and between two entries our encoder writes (so one step mixes
// both paths and its in-order check spans them), and records whose entry
// is one our encoder writes under a tag or length it does not.
func fastPathRecords() []fastPathRecord {
	record := func(entries ...[]byte) []byte {
		step := protowire.AppendInt64(nil, 1, 9)
		for _, e := range entries {
			step = protowire.AppendBytes(step, 6, e)
		}
		return protowire.AppendBytes(nil, 8, step)
	}
	first := cat(entryName("Recv"), entryDevice(uint64(Host)), entryCount(1), entryTotal(40))
	last := cat(entryName("zeta"), entryDevice(uint64(TPU)), entryCount(2), entryTotal(90))
	var recs []fastPathRecord
	for _, c := range fastPathEdges() {
		recs = append(recs,
			fastPathRecord{c.name + ", alone", record(c.entry)},
			fastPathRecord{c.name + ", between two", record(first, c.entry, last)},
			fastPathRecord{c.name + ", twice", record(c.entry, c.entry)})
	}
	step := protowire.AppendInt64(nil, 1, 9)
	for _, c := range []struct {
		name string
		head []byte // the entry's tag and length
	}{
		{"an entry under a two-byte tag", []byte{0xb2, 0x00, byte(len(first))}},
		{"an entry under a two-byte length", []byte{0x32, 0x80 | byte(len(first)), 0x00}},
		{"an entry tagged as a varint", []byte{0x30, byte(len(first))}},
		{"an entry whose length runs past the step", []byte{0x32, byte(len(first) + 1)}},
	} {
		recs = append(recs, fastPathRecord{c.name, protowire.AppendBytes(nil, 8, cat(step, c.head, first))})
	}
	return recs
}

// TestDecodeFastPathBoundaries: fastOp takes exactly the entries in the
// layout appendStep writes, and a record decodes the same whichever
// path each of its entries took — as the decoder it replaced decodes
// it, error for error.
func TestDecodeFastPathBoundaries(t *testing.T) {
	for _, c := range fastPathEdges() {
		d := slabs{st: newDecState()}
		if got := d.fastOp(c.entry); got != c.fast {
			t.Errorf("%s: fastOp took it: %v, want %v", c.name, got, c.fast)
		}
	}
	for _, r := range fastPathRecords() {
		checkDecodeMatchesOracle(t, fmt.Sprintf("%s (% x)", r.name, r.wire), r.wire)
	}
}
