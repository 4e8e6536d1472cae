package protowire

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
	"testing/quick"
)

func TestRoundTripScalars(t *testing.T) {
	e := NewEncoder(nil)
	e.Uint64(1, 300)
	e.Int64(2, -42)
	e.Bool(3, true)
	e.Double(4, 3.5)
	e.String(5, "infeed")

	d := NewDecoder(e.Bytes())

	f, ty, err := d.Next()
	if err != nil || f != 1 || ty != Varint {
		t.Fatalf("field1: %d %v %v", f, ty, err)
	}
	if v, _ := d.Uint64(); v != 300 {
		t.Fatalf("uint64 = %d", v)
	}

	f, ty, _ = d.Next()
	if f != 2 || ty != Varint {
		t.Fatalf("field2: %d %v", f, ty)
	}
	if v, _ := d.Int64(); v != -42 {
		t.Fatalf("int64 = %d", v)
	}

	f, _, _ = d.Next()
	if f != 3 {
		t.Fatalf("field3: %d", f)
	}
	if v, _ := d.Bool(); !v {
		t.Fatal("bool = false")
	}

	f, ty, _ = d.Next()
	if f != 4 || ty != I64 {
		t.Fatalf("field4: %d %v", f, ty)
	}
	if v, _ := d.Double(); v != 3.5 {
		t.Fatalf("double = %g", v)
	}

	f, ty, _ = d.Next()
	if f != 5 || ty != Bytes {
		t.Fatalf("field5: %d %v", f, ty)
	}
	if v, _ := d.String(); v != "infeed" {
		t.Fatalf("string = %q", v)
	}
	if !d.Done() {
		t.Fatal("decoder not done")
	}
}

func TestNestedMessages(t *testing.T) {
	inner := NewEncoder(nil)
	inner.String(1, "fusion")
	inner.Uint64(2, 777)

	outer := NewEncoder(nil)
	outer.Uint64(1, 1)
	outer.Raw(2, inner.Bytes())

	d := NewDecoder(outer.Bytes())
	if f, _, _ := d.Next(); f != 1 {
		t.Fatal("outer field 1 missing")
	}
	if _, err := d.Uint64(); err != nil {
		t.Fatal(err)
	}
	if f, ty, _ := d.Next(); f != 2 || ty != Bytes {
		t.Fatal("embedded message tag wrong")
	}
	raw, err := d.Raw()
	if err != nil {
		t.Fatal(err)
	}
	id := NewDecoder(raw)
	if f, _, _ := id.Next(); f != 1 {
		t.Fatal("inner field 1 missing")
	}
	if s, _ := id.String(); s != "fusion" {
		t.Fatalf("inner string %q", s)
	}
	if f, _, _ := id.Next(); f != 2 {
		t.Fatal("inner field 2 missing")
	}
	if v, _ := id.Uint64(); v != 777 {
		t.Fatalf("inner uint %d", v)
	}
}

func TestSkip(t *testing.T) {
	e := NewEncoder(nil)
	e.Uint64(1, 9)
	e.Double(2, 1.25)
	e.String(3, "skipped")
	e.Uint64(4, 10)

	d := NewDecoder(e.Bytes())
	for {
		f, ty, err := d.Next()
		if err != nil {
			t.Fatal(err)
		}
		if f == 4 {
			v, _ := d.Uint64()
			if v != 10 {
				t.Fatalf("field4 = %d", v)
			}
			return
		}
		if err := d.Skip(ty); err != nil {
			t.Fatal(err)
		}
	}
}

func TestTruncatedVarint(t *testing.T) {
	d := NewDecoder([]byte{0x80, 0x80}) // continuation bits with no terminator
	if _, err := d.Uint64(); err != ErrTruncated {
		t.Fatalf("err = %v, want ErrTruncated", err)
	}
}

func TestVarintOverflow(t *testing.T) {
	b := bytes.Repeat([]byte{0xff}, 11)
	d := NewDecoder(b)
	if _, err := d.Uint64(); err != ErrOverflow {
		t.Fatalf("err = %v, want ErrOverflow", err)
	}
}

// TestConsumeVarintMatchesUvarint holds ConsumeVarint to encoding/binary's
// Uvarint: every length from 1 to 10 bytes at both ends of its range,
// overflow at the tenth byte, and truncation at every cut.
func TestConsumeVarintMatchesUvarint(t *testing.T) {
	for length := 1; length <= maxVarintLen; length++ {
		lo, hi := uint64(0), uint64(math.MaxUint64)
		if length > 1 {
			lo = 1 << (7 * (length - 1))
		}
		if length < maxVarintLen {
			hi = 1<<(7*length) - 1
		}
		for _, v := range []uint64{lo, lo + 1, hi - 1, hi} {
			b := AppendVarint(nil, v)
			if len(b) != length {
				t.Fatalf("%d encodes in %d bytes, want %d", v, len(b), length)
			}
			got, n := ConsumeVarint(append(b, 0xff, 0x01)) // what follows is not read
			want, wn := binary.Uvarint(b)
			if got != v || n != length || want != v || wn != length {
				t.Fatalf("%x: ConsumeVarint = %d, %d; Uvarint = %d, %d; want %d, %d", b, got, n, want, wn, v, length)
			}
			for cut := 0; cut < length; cut++ {
				if _, n := ConsumeVarint(b[:cut]); n != errCodeTruncated || ParseError(n) != ErrTruncated {
					t.Fatalf("%x cut to %d bytes: n = %d, want truncated", b, cut, n)
				}
				if _, wn := binary.Uvarint(b[:cut]); wn != 0 {
					t.Fatalf("%x cut to %d bytes: Uvarint n = %d, want 0", b, cut, wn)
				}
			}
		}
	}
	// Nine continuation bytes, then a tenth that sets more than the 64th
	// bit — a final byte, or one more continuation byte.
	for last := 2; last <= 0xff; last++ {
		b := append(bytes.Repeat([]byte{0xff}, maxVarintLen-1), byte(last), 0x00)
		if _, n := ConsumeVarint(b); n != errCodeOverflow || ParseError(n) != ErrOverflow {
			t.Fatalf("tenth byte %#x: n = %d, want overflow", last, n)
		}
		if _, wn := binary.Uvarint(b); wn >= 0 {
			t.Fatalf("tenth byte %#x: Uvarint n = %d, want overflow", last, wn)
		}
	}
}

func TestTruncatedDouble(t *testing.T) {
	d := NewDecoder([]byte{1, 2, 3})
	if _, err := d.Double(); err != ErrTruncated {
		t.Fatalf("err = %v, want ErrTruncated", err)
	}
}

func TestTruncatedBytes(t *testing.T) {
	e := NewEncoder(nil)
	e.String(1, "hello world")
	raw := e.Bytes()[:4] // cut into the payload
	d := NewDecoder(raw)
	if _, _, err := d.Next(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Raw(); err != ErrTruncated {
		t.Fatalf("err = %v, want ErrTruncated", err)
	}
}

func TestInvalidFieldNumber(t *testing.T) {
	// Tag 0 (field 0, varint) is illegal in protobuf.
	d := NewDecoder([]byte{0x00})
	if _, _, err := d.Next(); err == nil {
		t.Fatal("field 0 accepted")
	}
}

func TestUnsupportedWireType(t *testing.T) {
	// Wire type 5 (I32) is not supported by this subset.
	d := NewDecoder([]byte{0x0d}) // field 1, type 5
	if _, _, err := d.Next(); err == nil {
		t.Fatal("wire type 5 accepted")
	}
}

func TestEncoderReset(t *testing.T) {
	e := NewEncoder(nil)
	e.Uint64(1, 1)
	if e.Len() == 0 {
		t.Fatal("empty after write")
	}
	e.Reset()
	if e.Len() != 0 {
		t.Fatal("Reset did not clear")
	}
}

func TestZigzag(t *testing.T) {
	for _, v := range []int64{0, -1, 1, -2, 2, math.MaxInt64, math.MinInt64} {
		if got := DecodeZigZag(zigzag(v)); got != v {
			t.Errorf("zigzag round trip %d -> %d", v, got)
		}
	}
	// Spec values: 0->0, -1->1, 1->2, -2->3.
	if zigzag(0) != 0 || zigzag(-1) != 1 || zigzag(1) != 2 || zigzag(-2) != 3 {
		t.Error("zigzag mapping does not match protobuf spec")
	}
}

func TestPropertyVarintRoundTrip(t *testing.T) {
	f := func(v uint64) bool {
		e := NewEncoder(nil)
		e.Uint64(7, v)
		d := NewDecoder(e.Bytes())
		fl, ty, err := d.Next()
		if err != nil || fl != 7 || ty != Varint {
			return false
		}
		got, err := d.Uint64()
		return err == nil && got == v && d.Done()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertySignedRoundTrip(t *testing.T) {
	f := func(v int64) bool {
		e := NewEncoder(nil)
		e.Int64(3, v)
		d := NewDecoder(e.Bytes())
		if _, _, err := d.Next(); err != nil {
			return false
		}
		got, err := d.Int64()
		return err == nil && got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyDoubleRoundTrip(t *testing.T) {
	f := func(v float64) bool {
		e := NewEncoder(nil)
		e.Double(1, v)
		d := NewDecoder(e.Bytes())
		if _, _, err := d.Next(); err != nil {
			return false
		}
		got, err := d.Double()
		if err != nil {
			return false
		}
		return got == v || (math.IsNaN(got) && math.IsNaN(v))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyStringRoundTrip(t *testing.T) {
	f := func(s string) bool {
		e := NewEncoder(nil)
		e.String(2, s)
		d := NewDecoder(e.Bytes())
		if _, _, err := d.Next(); err != nil {
			return false
		}
		got, err := d.String()
		return err == nil && got == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEncodeRecord(b *testing.B) {
	e := NewEncoder(make([]byte, 0, 256))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Reset()
		e.Uint64(1, uint64(i))
		e.String(2, "TransferBufferToInfeedLocked")
		e.Double(3, 123.456)
		e.Uint64(4, 42)
	}
}

func BenchmarkDecodeRecord(b *testing.B) {
	e := NewEncoder(nil)
	e.Uint64(1, 99)
	e.String(2, "OutfeedDequeueTuple")
	e.Double(3, 7.5)
	raw := e.Bytes()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d := NewDecoder(raw)
		for !d.Done() {
			_, ty, err := d.Next()
			if err != nil {
				b.Fatal(err)
			}
			if err := d.Skip(ty); err != nil {
				b.Fatal(err)
			}
		}
	}
}
