// Package bitfield implements arbitrary-width big-endian bit vectors.
//
// HyPer4 represents all of an emulated program's packet data in one very wide
// metadata field (800 bits in the paper's configuration) and all of its
// metadata in another (256 bits). Every persona primitive therefore reduces
// to mask/shift/boolean/arithmetic manipulation of wide bit vectors, which is
// what this package provides.
//
// A Value is a fixed-width vector of Width bits stored big-endian in a byte
// slice, most-significant bit first; bit 0 is the most significant bit. This
// matches network byte order so that bytes extracted from a packet
// concatenate into a Value without reordering.
package bitfield

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/big"
	"strings"
)

// Value is a fixed-width big-endian bit vector.
type Value struct {
	width int // in bits
	b     []byte
}

// New returns a zero Value of the given width in bits. Width zero is legal
// and yields an empty value.
func New(width int) Value {
	if width < 0 {
		panic("bitfield: negative width")
	}
	return Value{width: width, b: make([]byte, bytesFor(width))}
}

// FromBytes builds a Value of the given bit width from big-endian bytes.
// If data is shorter than the width it is right-aligned (zero-extended on the
// left, i.e. treated as an unsigned integer); if longer, the most significant
// excess bytes are dropped.
func FromBytes(width int, data []byte) Value {
	v := New(width)
	n := len(v.b)
	if len(data) >= n {
		copy(v.b, data[len(data)-n:])
	} else {
		copy(v.b[n-len(data):], data)
	}
	v.clampTop()
	return v
}

// FromUint builds a Value of the given width from an unsigned integer,
// truncating to width bits.
func FromUint(width int, x uint64) Value {
	v := New(width)
	for i := len(v.b) - 1; i >= 0 && x != 0; i-- {
		v.b[i] = byte(x)
		x >>= 8
	}
	v.clampTop()
	return v
}

// FromBig builds a Value of the given width from a non-negative big.Int,
// truncating to width bits.
func FromBig(width int, x *big.Int) Value {
	if x.Sign() < 0 {
		panic("bitfield: negative big.Int")
	}
	return FromBytes(width, x.Bytes())
}

// ParseHex parses strings like "0x0a0b" or "a0b" into a Value of the given
// width. An empty string yields zero.
func ParseHex(width int, s string) (Value, error) {
	s = strings.TrimPrefix(strings.TrimPrefix(s, "0x"), "0X")
	if s == "" {
		return New(width), nil
	}
	x, ok := new(big.Int).SetString(s, 16)
	if !ok {
		return Value{}, fmt.Errorf("bitfield: bad hex %q", s)
	}
	return FromBig(width, x), nil
}

// Width returns the width in bits.
func (v Value) Width() int { return v.width }

// Bytes returns the value as big-endian bytes (ceil(width/8) of them).
// The returned slice is a copy.
func (v Value) Bytes() []byte {
	out := make([]byte, len(v.b))
	copy(out, v.b)
	return out
}

// valueJSON is a Value's JSON form: the width, and the big-endian bytes in
// base64 (omitted when there are none).
type valueJSON struct {
	W int    `json:"w"`
	B []byte `json:"b,omitempty"`
}

// MarshalJSON encodes v as {"w":width,"b":bytes}.
func (v Value) MarshalJSON() ([]byte, error) {
	return json.Marshal(valueJSON{W: v.width, B: v.b})
}

// UnmarshalJSON decodes the MarshalJSON form. It rejects a negative width
// and any byte string whose length is not ceil(w/8), so a malformed input
// can neither panic nor size an allocation beyond its own length.
func (v *Value) UnmarshalJSON(data []byte) error {
	var j valueJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	if j.W < 0 || len(j.B) != bytesFor(j.W) {
		return fmt.Errorf("bitfield: malformed value: width %d with %d bytes", j.W, len(j.B))
	}
	*v = FromBytes(j.W, j.B)
	return nil
}

// Uint64 returns the low 64 bits of the value.
func (v Value) Uint64() uint64 {
	var x uint64
	start := 0
	if len(v.b) > 8 {
		start = len(v.b) - 8
	}
	for _, c := range v.b[start:] {
		x = x<<8 | uint64(c)
	}
	return x
}

// Big returns the value as a big.Int.
func (v Value) Big() *big.Int { return new(big.Int).SetBytes(v.b) }

// IsZero reports whether every bit is zero.
func (v Value) IsZero() bool {
	for _, c := range v.b {
		if c != 0 {
			return false
		}
	}
	return true
}

// Clone returns a deep copy.
func (v Value) Clone() Value {
	out := Value{width: v.width, b: make([]byte, len(v.b))}
	copy(out.b, v.b)
	return out
}

// Resize returns v at the given width. Growing zero-extends on the left;
// shrinking drops the most significant bits. When the width already matches,
// v itself is returned (no copy): treat the result as read-only, or Clone it
// before mutating.
func (v Value) Resize(width int) Value {
	if width == v.width {
		return v
	}
	return FromBytes(width, v.b)
}

// Equal reports whether v and o have the same width and bits.
func (v Value) Equal(o Value) bool {
	return v.width == o.width && bytes.Equal(v.b, o.b)
}

// EqualBits reports whether v and o represent the same unsigned integer,
// ignoring width.
func (v Value) EqualBits(o Value) bool { return v.Big().Cmp(o.Big()) == 0 }

// Cmp compares v and o as unsigned integers: -1, 0, or +1. Representations
// are canonical (top pad bits always zero), so byte comparison suffices for
// equal widths; mixed widths fall back to big.Int.
func (v Value) Cmp(o Value) int {
	if v.width == o.width {
		return bytes.Compare(v.b, o.b)
	}
	return v.Big().Cmp(o.Big())
}

// String renders the value as 0x-prefixed hex with the full byte width.
func (v Value) String() string {
	if v.width == 0 {
		return "0x"
	}
	var sb strings.Builder
	sb.WriteString("0x")
	for _, c := range v.b {
		fmt.Fprintf(&sb, "%02x", c)
	}
	return sb.String()
}

// Bit returns bit i (0 = most significant).
func (v Value) Bit(i int) byte {
	if i < 0 || i >= v.width {
		panic(fmt.Sprintf("bitfield: bit %d out of range for width %d", i, v.width))
	}
	off := v.padBits() + i
	return (v.b[off/8] >> (7 - off%8)) & 1
}

// SetBit sets bit i (0 = most significant) to b&1, in place.
func (v *Value) SetBit(i int, bit byte) {
	if i < 0 || i >= v.width {
		panic(fmt.Sprintf("bitfield: bit %d out of range for width %d", i, v.width))
	}
	off := v.padBits() + i
	mask := byte(1) << (7 - off%8)
	if bit&1 == 1 {
		v.b[off/8] |= mask
	} else {
		v.b[off/8] &^= mask
	}
}

// Slice extracts bits [start, start+width) of v (start 0 = most significant
// bit) as a new Value of the given width.
func (v Value) Slice(start, width int) Value {
	if start < 0 || width < 0 || start+width > v.width {
		panic(fmt.Sprintf("bitfield: slice [%d,%d) out of range for width %d", start, start+width, v.width))
	}
	out := New(width)
	copyBits(out.b, out.padBits(), v.b, v.padBits()+start, width)
	return out
}

// Insert writes src into bits [start, start+src.Width()) of v, in place.
func (v *Value) Insert(start int, src Value) {
	if start < 0 || start+src.width > v.width {
		panic(fmt.Sprintf("bitfield: insert [%d,%d) out of range for width %d", start, start+src.width, v.width))
	}
	copyBits(v.b, v.padBits()+start, src.b, src.padBits(), src.width)
}

// copyBits copies n bits from src starting at absolute bit so into dst
// starting at absolute bit do (bit 0 = MSB of the first byte). It handles
// arbitrary misalignment, with a byte-at-a-time fast path once the
// destination is byte-aligned.
func copyBits(dst []byte, do int, src []byte, so, n int) {
	// Leading bits until the destination is byte-aligned.
	for n > 0 && do%8 != 0 {
		copyBit(dst, do, src, so)
		do++
		so++
		n--
	}
	k := uint(so % 8)
	di, si := do/8, so/8
	for n >= 8 {
		b := src[si] << k
		if k > 0 {
			b |= src[si+1] >> (8 - k)
		}
		dst[di] = b
		di++
		si++
		do += 8
		so += 8
		n -= 8
	}
	for ; n > 0; n-- {
		copyBit(dst, do, src, so)
		do++
		so++
	}
}

func copyBit(dst []byte, do int, src []byte, so int) {
	bit := (src[so/8] >> (7 - so%8)) & 1
	mask := byte(1) << (7 - do%8)
	if bit == 1 {
		dst[do/8] |= mask
	} else {
		dst[do/8] &^= mask
	}
}

// --- in-place variants ---
//
// The fast path through the simulator keeps one long-lived Value per packet
// field and mutates it, rather than allocating a fresh Value per operation.
// These methods are the mutating counterparts of the functional API above.

// Zero clears every bit in place.
func (v *Value) Zero() {
	for i := range v.b {
		v.b[i] = 0
	}
}

// Reset makes v a zero Value of the given width, reusing v's buffer when it
// is large enough.
func (v *Value) Reset(width int) {
	if width < 0 {
		panic("bitfield: negative width")
	}
	n := bytesFor(width)
	if cap(v.b) < n {
		v.b = make([]byte, n)
	} else {
		v.b = v.b[:n]
		clear(v.b)
	}
	v.width = width
}

// CopyFrom overwrites v with o's bits in place. Widths must match.
func (v *Value) CopyFrom(o Value) {
	v.checkWidth(o)
	copy(v.b, o.b)
}

// SetBytes overwrites v in place from big-endian bytes, with FromBytes
// resize semantics (right-aligned, zero-extended or truncated on the left).
func (v *Value) SetBytes(data []byte) {
	n := len(v.b)
	if len(data) >= n {
		copy(v.b, data[len(data)-n:])
	} else {
		for i := 0; i < n-len(data); i++ {
			v.b[i] = 0
		}
		copy(v.b[n-len(data):], data)
	}
	v.clampTop()
}

// SetFrom overwrites v from another Value of any width, with FromBytes
// resize semantics.
func (v *Value) SetFrom(o Value) { v.SetBytes(o.b) }

// SetPrefixBytes zeroes v and copies data into its leading bytes (bit offset
// 0 onward), without allocating — the left-aligned counterpart of SetBytes,
// used to load packet prefixes into wide extracted-data fields. v's width
// must be byte-aligned and at least 8*len(data).
func (v *Value) SetPrefixBytes(data []byte) {
	if v.padBits() != 0 {
		panic("bitfield: SetPrefixBytes on non-byte-aligned width")
	}
	if len(data) > len(v.b) {
		panic(fmt.Sprintf("bitfield: SetPrefixBytes %d bytes into width %d", len(data), v.width))
	}
	n := copy(v.b, data)
	for i := n; i < len(v.b); i++ {
		v.b[i] = 0
	}
}

// SetUint overwrites v in place from an unsigned integer.
func (v *Value) SetUint(x uint64) {
	for i := len(v.b) - 1; i >= 0; i-- {
		v.b[i] = byte(x)
		x >>= 8
	}
	v.clampTop()
}

// InsertUint writes the low `width` bits of x into bits [start, start+width)
// of v, in place, without allocating. width must be at most 64.
func (v *Value) InsertUint(start, width int, x uint64) {
	if width > 64 {
		panic("bitfield: InsertUint width > 64")
	}
	if start < 0 || start+width > v.width {
		panic(fmt.Sprintf("bitfield: insert [%d,%d) out of range for width %d", start, start+width, v.width))
	}
	var buf [8]byte
	for i := 7; i >= 0; i-- {
		buf[i] = byte(x)
		x >>= 8
	}
	copyBits(v.b, v.padBits()+start, buf[:], 64-width, width)
}

// UintAt reads bits [start, start+width) of v as an unsigned integer without
// allocating. width must be at most 64.
func (v Value) UintAt(start, width int) uint64 {
	if width > 64 {
		panic("bitfield: UintAt width > 64")
	}
	if start < 0 || width < 0 || start+width > v.width {
		panic(fmt.Sprintf("bitfield: slice [%d,%d) out of range for width %d", start, start+width, v.width))
	}
	var x uint64
	off := v.padBits() + start
	for i := 0; i < width; i++ {
		x = x<<1 | uint64((v.b[(off+i)/8]>>(7-(off+i)%8))&1)
	}
	return x
}

// SliceInto extracts bits [start, start+width) of v into dst, reusing dst's
// backing buffer when it is large enough.
func (v Value) SliceInto(dst *Value, start, width int) {
	if start < 0 || width < 0 || start+width > v.width {
		panic(fmt.Sprintf("bitfield: slice [%d,%d) out of range for width %d", start, start+width, v.width))
	}
	n := bytesFor(width)
	if cap(dst.b) < n {
		dst.b = make([]byte, n)
	} else {
		dst.b = dst.b[:n]
		for i := range dst.b {
			dst.b[i] = 0
		}
	}
	dst.width = width
	copyBits(dst.b, dst.padBits(), v.b, v.padBits()+start, width)
}

// InsertBits writes bits [srcStart, srcStart+width) of src into bits
// [start, start+width) of v, in place.
func (v *Value) InsertBits(start int, src Value, srcStart, width int) {
	if start < 0 || start+width > v.width || srcStart < 0 || srcStart+width > src.width {
		panic("bitfield: InsertBits out of range")
	}
	copyBits(v.b, v.padBits()+start, src.b, src.padBits()+srcStart, width)
}

// AppendSliceTo appends the big-endian bytes of bits [start, start+width) to
// dst — exactly the bytes v.Slice(start, width).Bytes() would produce, but
// without allocating a Value.
func (v Value) AppendSliceTo(dst []byte, start, width int) []byte {
	if start < 0 || width < 0 || start+width > v.width {
		panic(fmt.Sprintf("bitfield: slice [%d,%d) out of range for width %d", start, start+width, v.width))
	}
	n := bytesFor(width)
	base := len(dst)
	for i := 0; i < n; i++ {
		dst = append(dst, 0)
	}
	copyBits(dst[base:], n*8-width, v.b, v.padBits()+start, width)
	return dst
}

// AndWith sets v = v & o in place. Operands must share a width.
func (v *Value) AndWith(o Value) {
	v.checkWidth(o)
	for i := range v.b {
		v.b[i] &= o.b[i]
	}
}

// OrWith sets v = v | o in place. Operands must share a width.
func (v *Value) OrWith(o Value) {
	v.checkWidth(o)
	for i := range v.b {
		v.b[i] |= o.b[i]
	}
}

// XorWith sets v = v ^ o in place. Operands must share a width.
func (v *Value) XorWith(o Value) {
	v.checkWidth(o)
	for i := range v.b {
		v.b[i] ^= o.b[i]
	}
}

// NotSelf sets v = ^v in place, within the width.
func (v *Value) NotSelf() {
	for i := range v.b {
		v.b[i] = ^v.b[i]
	}
	v.clampTop()
}

// AddWith sets v = (v + o) mod 2^width in place. Operands must share a width.
func (v *Value) AddWith(o Value) {
	v.checkWidth(o)
	var carry uint16
	for i := len(v.b) - 1; i >= 0; i-- {
		s := uint16(v.b[i]) + uint16(o.b[i]) + carry
		v.b[i] = byte(s)
		carry = s >> 8
	}
	v.clampTop()
}

// SubWith sets v = (v - o) mod 2^width in place. Operands must share a width.
func (v *Value) SubWith(o Value) {
	v.checkWidth(o)
	var borrow int16
	for i := len(v.b) - 1; i >= 0; i-- {
		d := int16(v.b[i]) - int16(o.b[i]) - borrow
		if d < 0 {
			d += 256
			borrow = 1
		} else {
			borrow = 0
		}
		v.b[i] = byte(d)
	}
	v.clampTop()
}

// And returns v & o. Operands must share a width.
func (v Value) And(o Value) Value { return v.boolop(o, func(a, b byte) byte { return a & b }) }

// Or returns v | o. Operands must share a width.
func (v Value) Or(o Value) Value { return v.boolop(o, func(a, b byte) byte { return a | b }) }

// Xor returns v ^ o. Operands must share a width.
func (v Value) Xor(o Value) Value { return v.boolop(o, func(a, b byte) byte { return a ^ b }) }

// Not returns ^v within the width.
func (v Value) Not() Value {
	out := v.Clone()
	for i := range out.b {
		out.b[i] = ^out.b[i]
	}
	out.clampTop()
	return out
}

// Shl returns v << n within the width (bits shifted past the top are lost).
func (v Value) Shl(n int) Value {
	if n < 0 {
		panic("bitfield: negative shift")
	}
	out := New(v.width)
	if n >= v.width {
		return out
	}
	// Result bits [0, width-n) are v's bits [n, width).
	copyBits(out.b, out.padBits(), v.b, v.padBits()+n, v.width-n)
	return out
}

// Shr returns v >> n (logical).
func (v Value) Shr(n int) Value {
	if n < 0 {
		panic("bitfield: negative shift")
	}
	out := New(v.width)
	if n >= v.width {
		return out
	}
	// Result bits [n, width) are v's bits [0, width-n).
	copyBits(out.b, out.padBits()+n, v.b, v.padBits(), v.width-n)
	return out
}

// Add returns v + o mod 2^width. Operands must share a width.
func (v Value) Add(o Value) Value {
	v.checkWidth(o)
	out := New(v.width)
	var carry uint16
	for i := len(v.b) - 1; i >= 0; i-- {
		s := uint16(v.b[i]) + uint16(o.b[i]) + carry
		out.b[i] = byte(s)
		carry = s >> 8
	}
	out.clampTop()
	return out
}

// Sub returns v - o mod 2^width. Operands must share a width.
func (v Value) Sub(o Value) Value {
	v.checkWidth(o)
	out := New(v.width)
	var borrow int16
	for i := len(v.b) - 1; i >= 0; i-- {
		d := int16(v.b[i]) - int16(o.b[i]) - borrow
		if d < 0 {
			d += 256
			borrow = 1
		} else {
			borrow = 0
		}
		out.b[i] = byte(d)
	}
	out.clampTop()
	return out
}

// MatchTernary reports whether v&mask == want&mask. All three must share a
// width.
func (v Value) MatchTernary(want, mask Value) bool {
	v.checkWidth(want)
	v.checkWidth(mask)
	for i := range v.b {
		if v.b[i]&mask.b[i] != want.b[i]&mask.b[i] {
			return false
		}
	}
	return true
}

// MatchPrefix reports whether the top plen bits of v equal the top plen bits
// of want (an LPM match). plen may be 0 (always true) up to the width.
func (v Value) MatchPrefix(want Value, plen int) bool {
	v.checkWidth(want)
	if plen < 0 || plen > v.width {
		panic(fmt.Sprintf("bitfield: prefix length %d out of range for width %d", plen, v.width))
	}
	for i := 0; i < plen; i++ {
		if v.Bit(i) != want.Bit(i) {
			return false
		}
	}
	return true
}

// InRange reports whether lo <= v <= hi as unsigned integers.
func (v Value) InRange(lo, hi Value) bool {
	return v.Cmp(lo) >= 0 && v.Cmp(hi) <= 0
}

// PopCount returns the number of set bits.
func (v Value) PopCount() int {
	n := 0
	for _, c := range v.b {
		for ; c != 0; c &= c - 1 {
			n++
		}
	}
	return n
}

// Ones returns a Value of the given width with every bit set.
func Ones(width int) Value {
	return New(width).Not()
}

// MaskRange returns a Value of the given width whose bits [start, start+n)
// are set and all others clear. Useful for building ternary masks that
// isolate an emulated field inside the wide extracted-data field.
func MaskRange(width, start, n int) Value {
	v := New(width)
	v.Insert(start, Ones(n))
	return v
}

func (v Value) boolop(o Value, f func(a, b byte) byte) Value {
	v.checkWidth(o)
	out := New(v.width)
	for i := range v.b {
		out.b[i] = f(v.b[i], o.b[i])
	}
	out.clampTop()
	return out
}

func (v Value) checkWidth(o Value) {
	if v.width != o.width {
		panic(fmt.Sprintf("bitfield: width mismatch %d vs %d", v.width, o.width))
	}
}

// padBits is the number of unused bits at the top of the first byte.
func (v Value) padBits() int { return len(v.b)*8 - v.width }

// clampTop zeroes the unused top bits so representations stay canonical.
func (v *Value) clampTop() {
	if pad := v.padBits(); pad > 0 && len(v.b) > 0 {
		v.b[0] &= 0xff >> pad
	}
}

func bytesFor(width int) int { return (width + 7) / 8 }
