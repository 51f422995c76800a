package bitfield

import (
	"bytes"
	"testing"
)

// refUint is the bit-at-a-time reference for UintAt: bits [start, start+w)
// of v, most significant first.
func refUint(v Value, start, w int) uint64 {
	var x uint64
	for i := 0; i < w; i++ {
		x = x<<1 | uint64(v.Bit(start+i))
	}
	return x
}

// refSlice is the reference for Slice: a fresh n-bit value set bit by bit.
func refSlice(v Value, start, n int) Value {
	out := New(n)
	for i := 0; i < n; i++ {
		out.SetBit(i, v.Bit(start+i))
	}
	return out
}

// checkBitOps holds the word-wide bit operations to a Bit/SetBit reference
// on one case: a vw-bit value built from data, the field [start, start+n)
// (clamped into the value), and x as the inserted word. Widths that are not
// a multiple of 8 put pad bits above the value, and a 64-bit field at an odd
// offset spans nine bytes.
func checkBitOps(t testing.TB, data []byte, vw, start, n uint16, x uint64) {
	t.Helper()
	w := int(vw % 300)
	v := FromBytes(w, data)
	s := int(start) % (w + 1)
	m := int(n) % (w - s + 1)
	ww := min(m, 64)

	if got, want := v.UintAt(s, ww), refUint(v, s, ww); got != want {
		t.Fatalf("width %d UintAt(%d, %d) = %#x, want %#x", w, s, ww, got, want)
	}

	got, want := v.Clone(), v.Clone()
	got.InsertUint(s, ww, x)
	for i := 0; i < ww; i++ {
		want.SetBit(s+i, byte(x>>(ww-1-i)))
	}
	if !got.Equal(want) {
		t.Fatalf("width %d InsertUint(%d, %d, %#x) = %v, want %v (from %v)", w, s, ww, x, got, want, v)
	}

	ref := refSlice(v, s, m)
	if sl := v.Slice(s, m); !sl.Equal(ref) {
		t.Fatalf("width %d Slice(%d, %d) = %v, want %v", w, s, m, sl, ref)
	}

	// SliceInto over a destination whose old contents are all ones.
	dst := Ones(int(x % 400))
	v.SliceInto(&dst, s, m)
	if !dst.Equal(ref) {
		t.Fatalf("width %d SliceInto(%d, %d) = %v, want %v", w, s, m, dst, ref)
	}

	// InsertBits from v into the complement of v, at a source offset
	// derived from x so the two offsets' alignments differ.
	ss := int(x>>32) % (w - m + 1)
	got, want = v.Not(), v.Not()
	got.InsertBits(s, v, ss, m)
	for i := 0; i < m; i++ {
		want.SetBit(s+i, v.Bit(ss+i))
	}
	if !got.Equal(want) {
		t.Fatalf("width %d InsertBits(%d, src, %d, %d) = %v, want %v", w, s, ss, m, got, want)
	}

	// AppendSliceTo after a short prefix, into spare capacity full of
	// stale ones that must not show through.
	back := bytes.Repeat([]byte{0xff}, 8+len(ref.b))
	k := len(data) % 8
	out := v.AppendSliceTo(back[:k], s, m)
	if !bytes.Equal(out[:k], back[:k]) || !bytes.Equal(out[k:], ref.b) {
		t.Fatalf("width %d AppendSliceTo(%d, %d) after %d bytes = %x, want %x", w, s, m, k, out[k:], ref.b)
	}
}

// FuzzBitOps checks UintAt, InsertUint, Slice, SliceInto, InsertBits and
// AppendSliceTo against Bit and SetBit. Before fuzzing, and on every plain
// test run, it sweeps every width 0–64 at every offset of a 72-bit value (no
// pad bits; nine-byte reads at odd offsets) and of a 77-bit value (five pad
// bits).
func FuzzBitOps(f *testing.F) {
	data := []byte{0xa5, 0x3c, 0xf0, 0x0f, 0x96, 0x69, 0x5a, 0xc3, 0x7e, 0x81}
	for _, vw := range []uint16{72, 77} {
		for s := uint16(0); s <= vw; s++ {
			for n := uint16(0); n <= 64 && s+n <= vw; n++ {
				checkBitOps(f, data, vw, s, n, 0x0123456789abcdef*uint64(s+1)+uint64(n))
			}
		}
	}
	f.Add(data, uint16(72), uint16(5), uint16(64), uint64(0xfedcba9876543210))
	f.Add(data, uint16(77), uint16(0), uint16(77), uint64(0x8000000000000001))
	f.Fuzz(func(t *testing.T, data []byte, vw, start, n uint16, x uint64) {
		checkBitOps(t, data, vw, start, n, x)
	})
}
