// Package protowire implements the subset of the Protocol Buffers wire
// format that the profiling RPC layer uses to encode profile records.
//
// TensorFlow's profiler ships profile data as protobufs over gRPC; this
// package stands in for the protobuf runtime. It supports the three wire
// types that matter for the profile messages — varint, 64-bit fixed, and
// length-delimited — with the standard tag/zigzag encodings, so messages
// written here are genuine protobuf wire data (parseable by protoc given a
// matching schema).
package protowire

import (
	"encoding/binary"
	"errors"
	"math"
	"math/bits"
)

// Type is a protobuf wire type.
type Type uint8

// Wire types (numbers match the protobuf spec).
const (
	Varint Type = 0
	I64    Type = 1
	Bytes  Type = 2
)

// ErrTruncated is returned when a decode runs off the end of the buffer.
var ErrTruncated = errors.New("protowire: truncated message")

// ErrOverflow is returned when a varint exceeds 64 bits.
var ErrOverflow = errors.New("protowire: varint overflows 64 bits")

// ErrFieldNumber is returned for a tag with field number 0.
var ErrFieldNumber = errors.New("protowire: invalid field number")

// ErrWireType is returned for a tag whose wire type this package does not
// support (3 to 7).
var ErrWireType = errors.New("protowire: unsupported wire type")

// maxVarintLen is the maximum encoded size of a 64-bit varint.
const maxVarintLen = 10

// Encoder appends wire-format fields to a buffer.
// The zero value is ready to use.
type Encoder struct {
	buf []byte
}

// NewEncoder returns an encoder writing into buf (may be nil).
func NewEncoder(buf []byte) *Encoder { return &Encoder{buf: buf} }

// Bytes returns the encoded message.
func (e *Encoder) Bytes() []byte { return e.buf }

// Len returns the current encoded length.
func (e *Encoder) Len() int { return len(e.buf) }

// Reset truncates the buffer for reuse.
func (e *Encoder) Reset() { e.buf = e.buf[:0] }

// Uint64 writes field as a varint.
func (e *Encoder) Uint64(field int, v uint64) { e.buf = AppendUint64(e.buf, field, v) }

// Int64 writes field zigzag-encoded (sint64 in proto terms).
func (e *Encoder) Int64(field int, v int64) { e.buf = AppendInt64(e.buf, field, v) }

// Bool writes field as a 0/1 varint.
func (e *Encoder) Bool(field int, v bool) { e.buf = AppendBool(e.buf, field, v) }

// Double writes field as a little-endian 64-bit IEEE 754 value.
func (e *Encoder) Double(field int, v float64) { e.buf = AppendDouble(e.buf, field, v) }

// String writes field as length-delimited UTF-8.
func (e *Encoder) String(field int, s string) { e.buf = AppendString(e.buf, field, s) }

// Raw writes field as length-delimited opaque bytes. Used for embedded
// messages: encode the child with its own Encoder, then Raw the result.
func (e *Encoder) Raw(field int, b []byte) { e.buf = AppendBytes(e.buf, field, b) }

// --- append-style encoding ----------------------------------------------
//
// The Append* functions are the allocation-free counterparts of the
// Encoder methods: they write the identical bytes directly onto dst and
// return the (possibly grown) slice, so a hot loop that reuses its
// buffer encodes with zero steady-state allocations. Encoder is the
// convenient form for cold paths, written on top of them.

// AppendVarint appends a bare varint (no tag).
func AppendVarint(dst []byte, v uint64) []byte {
	for v >= 0x80 {
		dst = append(dst, byte(v)|0x80)
		v >>= 7
	}
	return append(dst, byte(v))
}

// AppendTag appends a field tag.
func AppendTag(dst []byte, field int, t Type) []byte {
	return AppendVarint(dst, uint64(field)<<3|uint64(t))
}

// AppendUint64 appends field as a varint.
func AppendUint64(dst []byte, field int, v uint64) []byte {
	dst = AppendTag(dst, field, Varint)
	return AppendVarint(dst, v)
}

// AppendInt64 appends field zigzag-encoded (sint64 in proto terms).
func AppendInt64(dst []byte, field int, v int64) []byte {
	return AppendUint64(dst, field, zigzag(v))
}

// AppendBool appends field as a 0/1 varint.
func AppendBool(dst []byte, field int, v bool) []byte {
	var u uint64
	if v {
		u = 1
	}
	return AppendUint64(dst, field, u)
}

// AppendDouble appends field as a little-endian 64-bit IEEE 754 value.
func AppendDouble(dst []byte, field int, v float64) []byte {
	dst = AppendTag(dst, field, I64)
	bits := math.Float64bits(v)
	for i := 0; i < 8; i++ {
		dst = append(dst, byte(bits>>(8*i)))
	}
	return dst
}

// AppendString appends field as length-delimited UTF-8.
func AppendString(dst []byte, field int, s string) []byte {
	dst = AppendTag(dst, field, Bytes)
	dst = AppendVarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// AppendBytes appends field as length-delimited opaque bytes — the
// append-style Raw, used for embedded messages encoded into a scratch
// buffer.
func AppendBytes(dst []byte, field int, b []byte) []byte {
	dst = AppendTag(dst, field, Bytes)
	dst = AppendVarint(dst, uint64(len(b)))
	return append(dst, b...)
}

// AppendMessageTag appends the tag and length prefix of a length-delimited
// field of n bytes, for a caller that writes the n bytes itself.
func AppendMessageTag(dst []byte, field, n int) []byte {
	dst = AppendTag(dst, field, Bytes)
	return AppendVarint(dst, uint64(n))
}

// --- sizes ----------------------------------------------------------------
//
// The Size* functions return how many bytes the matching Append* function
// writes, so an encoder can size a buffer, or a length prefix, before it
// writes the bytes it prefixes.

// SizeVarint returns the length of v's varint encoding.
func SizeVarint(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// SizeTag returns the length of a field tag.
func SizeTag(field int) int { return SizeVarint(uint64(field) << 3) }

// SizeUint64 returns the length AppendUint64 writes.
func SizeUint64(field int, v uint64) int { return SizeTag(field) + SizeVarint(v) }

// SizeInt64 returns the length AppendInt64 writes.
func SizeInt64(field int, v int64) int { return SizeTag(field) + SizeVarint(zigzag(v)) }

// SizeDouble returns the length AppendDouble writes.
func SizeDouble(field int) int { return SizeTag(field) + 8 }

// SizeBytes returns the length AppendBytes or AppendString writes for a
// value of n bytes.
func SizeBytes(field, n int) int { return SizeTag(field) + SizeVarint(uint64(n)) + n }

func zigzag(v int64) uint64 {
	return uint64(v<<1) ^ uint64(v>>63)
}

// DecodeZigZag decodes a zigzag-encoded varint payload (sint64 in proto
// terms).
func DecodeZigZag(u uint64) int64 {
	return int64(u>>1) ^ -int64(u&1)
}

// --- consume-style decoding ---------------------------------------------
//
// The Consume* functions parse one item at the start of b and return it
// with the number of bytes it took. A negative count means b does not
// start with a well-formed item, and ParseError says why. They keep no
// state and allocate nothing, so the decoder of a hot message can parse
// its fields with them directly; Decoder is the same parsing behind a
// cursor.

// The negative counts the Consume* functions return.
const (
	errCodeTruncated = -1 - iota
	errCodeOverflow
	errCodeFieldNumber
	errCodeWireType
)

// ParseError returns the error a negative count from a Consume* function
// stands for, and nil for any other count.
func ParseError(n int) error {
	switch n {
	case errCodeTruncated:
		return ErrTruncated
	case errCodeOverflow:
		return ErrOverflow
	case errCodeFieldNumber:
		return ErrFieldNumber
	case errCodeWireType:
		return ErrWireType
	}
	return nil
}

// ConsumeVarint parses a varint and returns its value and length. The
// tenth byte may carry only the 64th bit, as in encoding/binary.Uvarint.
// This is the package's one varint decoding loop; a one-byte varint —
// every tag of a profile record and most of its values — is decided
// before it.
func ConsumeVarint(b []byte) (uint64, int) {
	if len(b) > 0 && b[0] < 0x80 {
		return uint64(b[0]), 1
	}
	var v uint64
	for i := 0; i < maxVarintLen; i++ {
		if i >= len(b) {
			return 0, errCodeTruncated
		}
		c := b[i]
		if i == maxVarintLen-1 && c > 1 {
			return 0, errCodeOverflow
		}
		v |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			return v, i + 1
		}
	}
	return 0, errCodeOverflow
}

// ConsumeTag parses a field tag and returns its field number and wire
// type. Field number 0 and wire types 3 to 7 are malformed here.
func ConsumeTag(b []byte) (field int, t Type, n int) {
	v, n := ConsumeVarint(b)
	if n < 0 {
		return 0, 0, n
	}
	field, t = int(v>>3), Type(v&7)
	if field <= 0 {
		return 0, 0, errCodeFieldNumber
	}
	if t > Bytes {
		return 0, 0, errCodeWireType
	}
	return field, t, n
}

// ConsumeFixed64 parses a little-endian 64-bit payload.
func ConsumeFixed64(b []byte) (v uint64, n int) {
	if len(b) < 8 {
		return 0, errCodeTruncated
	}
	return binary.LittleEndian.Uint64(b), 8
}

// ConsumeBytes parses a length-delimited payload. v aliases b.
func ConsumeBytes(b []byte) (v []byte, n int) {
	m, n := ConsumeVarint(b)
	if n < 0 {
		return nil, n
	}
	if m > uint64(len(b)-n) {
		return nil, errCodeTruncated
	}
	return b[n : n+int(m)], n + int(m)
}

// ConsumeFieldValue returns the length of a payload of wire type t.
func ConsumeFieldValue(t Type, b []byte) (n int) {
	switch t {
	case Varint:
		_, n = ConsumeVarint(b)
	case I64:
		_, n = ConsumeFixed64(b)
	case Bytes:
		_, n = ConsumeBytes(b)
	default:
		n = errCodeWireType
	}
	return n
}

// Decoder reads wire-format fields from a buffer.
type Decoder struct {
	buf []byte
	pos int
}

// NewDecoder returns a decoder over buf.
func NewDecoder(buf []byte) *Decoder { return &Decoder{buf: buf} }

// Done reports whether the decoder has consumed the whole buffer.
func (d *Decoder) Done() bool { return d.pos >= len(d.buf) }

// advance moves past an item of n bytes, or returns the error a negative
// n stands for.
func (d *Decoder) advance(n int) error {
	if n < 0 {
		return ParseError(n)
	}
	d.pos += n
	return nil
}

// Next reads the next field's tag. It returns the field number and type.
func (d *Decoder) Next() (field int, t Type, err error) {
	field, t, n := ConsumeTag(d.buf[d.pos:])
	return field, t, d.advance(n)
}

// Uint64 reads a varint payload.
func (d *Decoder) Uint64() (uint64, error) {
	v, n := ConsumeVarint(d.buf[d.pos:])
	return v, d.advance(n)
}

// Int64 reads a zigzag varint payload.
func (d *Decoder) Int64() (int64, error) {
	u, err := d.Uint64()
	return DecodeZigZag(u), err
}

// Bool reads a varint payload as a boolean.
func (d *Decoder) Bool() (bool, error) {
	u, err := d.Uint64()
	return u != 0, err
}

// Double reads a 64-bit fixed payload.
func (d *Decoder) Double() (float64, error) {
	v, n := ConsumeFixed64(d.buf[d.pos:])
	return math.Float64frombits(v), d.advance(n)
}

// Raw reads a length-delimited payload. The returned slice aliases the
// decoder's buffer; callers that retain it must copy.
func (d *Decoder) Raw() ([]byte, error) {
	b, n := ConsumeBytes(d.buf[d.pos:])
	return b, d.advance(n)
}

// String reads a length-delimited payload as a string (copied).
func (d *Decoder) String() (string, error) {
	b, err := d.Raw()
	return string(b), err
}

// Skip discards the payload of a field with the given wire type.
func (d *Decoder) Skip(t Type) error {
	return d.advance(ConsumeFieldValue(t, d.buf[d.pos:]))
}
