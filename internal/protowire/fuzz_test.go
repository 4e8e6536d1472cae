package protowire

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzDecoder walks arbitrary bytes through the full field loop; the
// decoder must always terminate with a clean error, never panic or hang.
func FuzzDecoder(f *testing.F) {
	e := NewEncoder(nil)
	e.Uint64(1, 300)
	e.String(2, "op")
	e.Double(3, 1.5)
	f.Add(e.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		d := NewDecoder(data)
		for !d.Done() {
			_, ty, err := d.Next()
			if err != nil {
				return
			}
			if err := d.Skip(ty); err != nil {
				return
			}
		}
	})
}

// FuzzConsumeVarint: ConsumeVarint reads what encoding/binary.Uvarint
// reads, and fails where it fails — overflow as overflow, running out of
// bytes as truncation (except ten continuation bytes, which Uvarint waits
// on and ConsumeVarint already knows overflow).
func FuzzConsumeVarint(f *testing.F) {
	f.Add([]byte{0x96, 0x01})
	f.Add(bytes.Repeat([]byte{0xff}, 9))
	f.Add(append(bytes.Repeat([]byte{0xff}, 9), 0x01))
	f.Add(bytes.Repeat([]byte{0xff}, 11))
	f.Fuzz(func(t *testing.T, b []byte) {
		v, n := ConsumeVarint(b)
		wv, wn := binary.Uvarint(b)
		switch {
		case wn > 0 && (v != wv || n != wn):
			t.Fatalf("%x: ConsumeVarint = %d, %d; Uvarint = %d, %d", b, v, n, wv, wn)
		case wn < 0 && n != errCodeOverflow:
			t.Fatalf("%x: ConsumeVarint n = %d; Uvarint overflows", b, n)
		case wn == 0 && n != errCodeTruncated && !(n == errCodeOverflow && len(b) == maxVarintLen):
			t.Fatalf("%x: ConsumeVarint n = %d; Uvarint runs out of bytes", b, n)
		}
	})
}
