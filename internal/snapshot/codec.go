// Package snapshot serializes complete simulator state to a versioned,
// CRC-checked binary container and restores it bit-exactly, so a killed
// run (preemption, OOM, deadline) can resume mid-ROI instead of starting
// over. See DESIGN.md §7 for the format.
//
// The package deliberately knows nothing about cache geometry or the
// simulator: components implement Stateful against the Encoder/Decoder
// here, and cachesim writes their sections into one container through a
// Writer.
package snapshot

import (
	"encoding/binary"
	"fmt"
	"slices"

	"mayacache/internal/rng"
)

// Encoder appends fixed-width little-endian values to a growing buffer.
// It never fails; sizes are bounded by the simulator's own state.
type Encoder struct {
	b []byte
}

// Data returns the encoded bytes.
func (e *Encoder) Data() []byte { return e.b }

// Record reserves the next n bytes for one fixed-width record and returns
// them for the caller to fill (binary.LittleEndian.Put* and BoolByte), so
// a record of many fields costs one capacity check instead of one append
// per field. The slice is valid until the next write to e.
func (e *Encoder) Record(n int) []byte {
	l := len(e.b)
	if cap(e.b)-l < n {
		e.grow(n)
	}
	e.b = e.b[:l+n]
	return e.b[l:]
}

// grow makes room for n more bytes and at least doubles the capacity, so
// an unsized buffer filled record by record is copied about once per
// byte. A buffer reserved for a bound on what it will hold never gets
// here.
func (e *Encoder) grow(n int) { e.b = slices.Grow(e.b, max(n, cap(e.b))) }

// Reserve makes room for n more bytes. A buffer with less room is
// reallocated to exactly its length plus n, not doubled, so an Encoder
// reserved once for a bound on everything it will hold (a Stateful's
// StateBound, plus its container's framing) is allocated once and never
// regrows.
func (e *Encoder) Reserve(n int) {
	if cap(e.b)-len(e.b) < n {
		b := make([]byte, len(e.b), len(e.b)+n)
		copy(b, e.b)
		e.b = b
	}
}

// Wire sizes of the Encoder's composite values, for StateBound sums.
const (
	// CountBytes is the size of a Count, and of a Str's length prefix.
	CountBytes = 4
	// RNGBytes is the size of an RNG: four state words.
	RNGBytes = 4 * 8
)

// BoolByte is a bool's wire byte: 1 for true, 0 for false.
func BoolByte(v bool) uint8 {
	if v {
		return 1
	}
	return 0
}

// U8 appends one byte.
func (e *Encoder) U8(v uint8) { e.b = append(e.b, v) }

// Bool appends a bool as one byte.
func (e *Encoder) Bool(v bool) { e.U8(BoolByte(v)) }

// U16 appends a little-endian uint16.
func (e *Encoder) U16(v uint16) { e.b = binary.LittleEndian.AppendUint16(e.b, v) }

// U32 appends a little-endian uint32.
func (e *Encoder) U32(v uint32) { e.b = binary.LittleEndian.AppendUint32(e.b, v) }

// U64 appends a little-endian uint64.
func (e *Encoder) U64(v uint64) { e.b = binary.LittleEndian.AppendUint64(e.b, v) }

// I8 appends an int8 as its two's-complement byte.
func (e *Encoder) I8(v int8) { e.U8(uint8(v)) }

// I32 appends an int32 as its two's-complement uint32.
func (e *Encoder) I32(v int32) { e.U32(uint32(v)) }

// I64 appends an int64 as its two's-complement uint64.
func (e *Encoder) I64(v int64) { e.U64(uint64(v)) }

// Int appends a machine int as int64.
func (e *Encoder) Int(v int) { e.I64(int64(v)) }

// Str appends a length-prefixed (u32) UTF-8 string.
func (e *Encoder) Str(s string) {
	e.U32(uint32(len(s)))
	e.b = append(e.b, s...)
}

// Count appends an element count (u32) for a following sequence.
func (e *Encoder) Count(n int) { e.U32(uint32(n)) }

// RNG appends the four xoshiro256** state words of r.
func (e *Encoder) RNG(r *rng.Rand) {
	st := r.Save()
	for _, w := range st {
		e.U64(w)
	}
}

// Decoder reads values written by Encoder with a sticky error: after the
// first failure every accessor returns a zero value and Err reports the
// failure. Every read is bounds-checked against the remaining input, and
// counts/lengths are validated before any allocation, so corrupt or
// adversarial input yields an error — never a panic or an unbounded
// preallocation (the same discipline as the trace reader's forged-header
// fix).
type Decoder struct {
	b   []byte
	off int
	err error
}

// NewDecoder returns a Decoder over b. The Decoder aliases b; callers must
// not mutate it while decoding.
func NewDecoder(b []byte) *Decoder { return &Decoder{b: b} }

// Err returns the first decode failure, or nil.
func (d *Decoder) Err() error { return d.err }

// Remaining returns the number of unread bytes.
func (d *Decoder) Remaining() int { return len(d.b) - d.off }

// Finish returns the sticky error, or a CorruptError if unread bytes
// remain — a section must be consumed exactly.
func (d *Decoder) Finish() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.b) {
		return &CorruptError{At: "decoder", Detail: fmt.Sprintf("%d trailing bytes", len(d.b)-d.off)}
	}
	return nil
}

func (d *Decoder) failf(at, format string, args ...any) {
	if d.err == nil {
		d.err = &CorruptError{At: at, Detail: fmt.Sprintf(format, args...)}
	}
}

// Fail records a caller-detected inconsistency (e.g. an out-of-range
// index) as the Decoder's sticky error so decode loops can bail uniformly.
func (d *Decoder) Fail(at, format string, args ...any) { d.failf(at, format, args...) }

func (d *Decoder) take(n int, at string) []byte {
	if d.err != nil {
		return nil
	}
	if d.Remaining() < n {
		d.failf(at, "need %d bytes, have %d", n, d.Remaining())
		return nil
	}
	p := d.b[d.off : d.off+n]
	d.off += n
	return p
}

// U8 reads one byte.
func (d *Decoder) U8() uint8 {
	p := d.take(1, "u8")
	if p == nil {
		return 0
	}
	return p[0]
}

// Bool reads a byte and requires it to be 0 or 1.
func (d *Decoder) Bool() bool {
	v := d.U8()
	if v > 1 {
		d.failf("bool", "invalid value %d", v)
		return false
	}
	return v == 1
}

// U16 reads a little-endian uint16.
func (d *Decoder) U16() uint16 {
	p := d.take(2, "u16")
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(p)
}

// U32 reads a little-endian uint32.
func (d *Decoder) U32() uint32 {
	p := d.take(4, "u32")
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(p)
}

// U64 reads a little-endian uint64.
func (d *Decoder) U64() uint64 {
	p := d.take(8, "u64")
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(p)
}

// I8 reads an int8.
func (d *Decoder) I8() int8 { return int8(d.U8()) }

// I32 reads an int32.
func (d *Decoder) I32() int32 { return int32(d.U32()) }

// I64 reads an int64.
func (d *Decoder) I64() int64 { return int64(d.U64()) }

// Int reads an int64 into a machine int.
func (d *Decoder) Int() int { return int(d.I64()) }

// Count reads an element count and requires count <= max and count <=
// remaining bytes (every element occupies at least one byte), bounding any
// subsequent preallocation by both the caller's structural limit and the
// physical input size.
func (d *Decoder) Count(max int) int {
	n := d.U32()
	if d.err != nil {
		return 0
	}
	if int64(n) > int64(max) {
		d.failf("count", "%d exceeds limit %d", n, max)
		return 0
	}
	if int(n) > d.Remaining() {
		d.failf("count", "%d exceeds %d remaining bytes", n, d.Remaining())
		return 0
	}
	return int(n)
}

// FixedCount reads an element count that must equal want exactly; a
// component restoring into a fixed geometry uses this so a snapshot of a
// differently-sized structure fails before any element is read.
func (d *Decoder) FixedCount(want int, what string) bool {
	n := d.U32()
	if d.err != nil {
		return false
	}
	if int64(n) != int64(want) {
		d.failf(what, "count %d, expected %d", n, want)
		return false
	}
	return true
}

// Str reads a length-prefixed string of at most max bytes.
func (d *Decoder) Str(max int) string {
	n := d.Count(max)
	p := d.take(n, "str")
	if p == nil {
		return ""
	}
	return string(p)
}

// Bytes reads a length-prefixed byte slice of at most max bytes. The
// returned slice aliases the Decoder's input.
func (d *Decoder) Bytes(max int) []byte {
	n := d.Count(max)
	return d.take(n, "bytes")
}

// RNG reads four state words and restores r from them; the all-zero state
// is rejected by rng.Restore and surfaces as a decode error.
func (d *Decoder) RNG(r *rng.Rand) {
	var st rng.State
	for i := range st {
		st[i] = d.U64()
	}
	if d.err != nil {
		return
	}
	if err := r.Restore(st); err != nil {
		d.failf("rng", "%v", err)
	}
}
