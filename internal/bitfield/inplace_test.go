package bitfield

import (
	"bytes"
	"testing"
)

func TestZeroAndCopyFrom(t *testing.T) {
	v := FromUint(16, 0xabcd)
	v.Zero()
	if !v.IsZero() {
		t.Errorf("Zero: %v", v)
	}
	v.CopyFrom(FromUint(16, 0x1234))
	if v.Uint64() != 0x1234 {
		t.Errorf("CopyFrom: %v", v)
	}
}

func TestResetReusesBuffer(t *testing.T) {
	v := FromUint(32, 0xdeadbeef)
	v.Reset(12)
	if !v.Equal(New(12)) {
		t.Errorf("Reset(12) = %v, want a zero 12-bit value", v)
	}
	if allocs := testing.AllocsPerRun(10, func() { v.Reset(20) }); allocs != 0 {
		t.Errorf("shrinking Reset allocates %.0f", allocs)
	}
	v.Reset(48)
	if !v.Equal(New(48)) {
		t.Errorf("Reset(48) = %v, want a zero 48-bit value", v)
	}
}

func TestSetBytesMatchesFromBytes(t *testing.T) {
	data := []byte{0xde, 0xad, 0xbe, 0xef}
	for _, w := range []int{8, 12, 16, 32, 48} {
		want := FromBytes(w, data)
		got := FromUint(w, 0x7f) // non-zero starting contents
		got.SetBytes(data)
		if !got.Equal(want) {
			t.Errorf("width %d: SetBytes %v, FromBytes %v", w, got, want)
		}
		got2 := New(w)
		got2.SetFrom(FromBytes(32, data))
		if !got2.Equal(want) {
			t.Errorf("width %d: SetFrom %v, want %v", w, got2, want)
		}
	}
}

func TestSetUintAndInsertUint(t *testing.T) {
	v := FromUint(12, 0xfff)
	v.SetUint(0xab)
	if v.Uint64() != 0xab {
		t.Errorf("SetUint: %v", v)
	}
	// InsertUint must match Insert of FromUint.
	a := FromUint(20, 0xfffff)
	b := a.Clone()
	a.InsertUint(3, 9, 0x1a5)
	b.Insert(3, FromUint(9, 0x1a5))
	if !a.Equal(b) {
		t.Errorf("InsertUint %v vs Insert %v", a, b)
	}
}

func TestUintAtMatchesSlice(t *testing.T) {
	v := FromUint(40, 0xdeadbeef55)
	for _, c := range []struct{ start, width int }{{0, 8}, {3, 13}, {12, 20}, {39, 1}, {0, 40}} {
		want := v.Slice(c.start, c.width).Uint64()
		if got := v.UintAt(c.start, c.width); got != want {
			t.Errorf("UintAt(%d,%d) = %#x, Slice = %#x", c.start, c.width, got, want)
		}
	}
}

func TestSliceIntoMatchesSlice(t *testing.T) {
	v := FromUint(48, 0x123456789abc)
	var dst Value
	for _, c := range []struct{ start, width int }{{0, 16}, {5, 11}, {20, 28}, {40, 8}} {
		v.SliceInto(&dst, c.start, c.width)
		want := v.Slice(c.start, c.width)
		if !dst.Equal(want) {
			t.Errorf("SliceInto(%d,%d) = %v, Slice = %v", c.start, c.width, dst, want)
		}
	}
	// Shrinking reuse must clear stale upper bits.
	v.SliceInto(&dst, 0, 40)
	v.SliceInto(&dst, 0, 4)
	if !dst.Equal(v.Slice(0, 4)) {
		t.Errorf("reused SliceInto kept stale bits: %v", dst)
	}
}

func TestInsertBitsMatchesSliceInsert(t *testing.T) {
	src := FromUint(32, 0xcafebabe)
	a := FromUint(24, 0xffffff)
	b := a.Clone()
	a.InsertBits(5, src, 9, 13)
	b.Insert(5, src.Slice(9, 13))
	if !a.Equal(b) {
		t.Errorf("InsertBits %v vs Slice+Insert %v", a, b)
	}
}

func TestAppendSliceTo(t *testing.T) {
	v := FromUint(44, 0xabcdef0123)
	for _, c := range []struct{ start, width int }{{0, 44}, {4, 40}, {7, 9}, {12, 16}} {
		got := v.AppendSliceTo([]byte{0x55}, c.start, c.width)
		want := append([]byte{0x55}, v.Slice(c.start, c.width).Bytes()...)
		if !bytes.Equal(got, want) {
			t.Errorf("AppendSliceTo(%d,%d) = %x, want %x", c.start, c.width, got, want)
		}
	}
}

func TestMutatingOpsMatchFunctional(t *testing.T) {
	a := FromUint(20, 0xabcde)
	b := FromUint(20, 0x13579)
	check := func(name string, got, want Value) {
		t.Helper()
		if !got.Equal(want) {
			t.Errorf("%s: %v, want %v", name, got, want)
		}
	}
	v := a.Clone()
	v.AndWith(b)
	check("AndWith", v, a.And(b))
	v = a.Clone()
	v.OrWith(b)
	check("OrWith", v, a.Or(b))
	v = a.Clone()
	v.XorWith(b)
	check("XorWith", v, a.Xor(b))
	v = a.Clone()
	v.NotSelf()
	check("NotSelf", v, a.Not())
	v = a.Clone()
	v.AddWith(b)
	check("AddWith", v, a.Add(b))
	v = a.Clone()
	v.SubWith(b)
	check("SubWith", v, a.Sub(b))
	// Wrap-around still clamps the top pad bits.
	v = FromUint(12, 0xfff)
	v.AddWith(FromUint(12, 1))
	if !v.IsZero() {
		t.Errorf("AddWith wrap: %v", v)
	}
}

// TestResizeSameWidthAliases documents the Resize fast path: a same-width
// Resize returns the receiver itself, so results must be treated read-only.
func TestResizeSameWidthAliases(t *testing.T) {
	v := FromUint(16, 0x1234)
	r := v.Resize(16)
	if !r.Equal(v) {
		t.Fatalf("Resize identity: %v", r)
	}
	r2 := v.Resize(24)
	r2.SetUint(0)
	if v.Uint64() != 0x1234 {
		t.Errorf("growing Resize must copy; receiver mutated to %v", v)
	}
}
