package bitfield

import (
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

// isZero reports whether every bit of v is zero.
func isZero(v Value) bool {
	for _, c := range v.b {
		if c != 0 {
			return false
		}
	}
	return true
}

func TestNewZero(t *testing.T) {
	for _, w := range []int{0, 1, 7, 8, 9, 63, 64, 65, 800} {
		v := New(w)
		if v.Width() != w {
			t.Errorf("New(%d).Width() = %d", w, v.Width())
		}
		if !isZero(v) {
			t.Errorf("New(%d) not zero", w)
		}
	}
}

func TestFromUintRoundTrip(t *testing.T) {
	cases := []struct {
		w int
		x uint64
	}{
		{8, 0xab}, {16, 0xabcd}, {12, 0xabc}, {1, 1}, {64, 0xdeadbeefcafef00d},
		{48, 0x112233445566}, {3, 5},
	}
	for _, c := range cases {
		v := FromUint(c.w, c.x)
		if got := v.Uint64(); got != c.x {
			t.Errorf("FromUint(%d, %#x).Uint64() = %#x", c.w, c.x, got)
		}
	}
}

func TestFromUintTruncates(t *testing.T) {
	v := FromUint(8, 0x1ff)
	if got := v.Uint64(); got != 0xff {
		t.Errorf("FromUint(8, 0x1ff) = %#x, want 0xff", got)
	}
	v = FromUint(4, 0xab)
	if got := v.Uint64(); got != 0xb {
		t.Errorf("FromUint(4, 0xab) = %#x, want 0xb", got)
	}
}

func TestFromBytesAlignment(t *testing.T) {
	// Shorter data is right-aligned (unsigned integer semantics).
	v := FromBytes(32, []byte{0xaa, 0xbb})
	if got := v.Uint64(); got != 0xaabb {
		t.Errorf("FromBytes(32, aabb) = %#x, want 0xaabb", got)
	}
	// Longer data drops the most significant bytes.
	v = FromBytes(16, []byte{0x11, 0x22, 0x33, 0x44})
	if got := v.Uint64(); got != 0x3344 {
		t.Errorf("FromBytes(16, 11223344) = %#x, want 0x3344", got)
	}
}

func TestBitAndSetBit(t *testing.T) {
	v := FromUint(12, 0x800) // bit 0 (msb) set
	if v.Bit(0) != 1 {
		t.Error("msb should be 1")
	}
	if v.Bit(11) != 0 {
		t.Error("lsb should be 0")
	}
	v.SetBit(11, 1)
	if got := v.Uint64(); got != 0x801 {
		t.Errorf("after SetBit(11,1): %#x", got)
	}
	v.SetBit(0, 0)
	if got := v.Uint64(); got != 0x001 {
		t.Errorf("after SetBit(0,0): %#x", got)
	}
}

func TestSliceInsert(t *testing.T) {
	v := FromUint(32, 0x11223344)
	s := v.Slice(8, 16)
	if got := s.Uint64(); got != 0x2233 {
		t.Errorf("Slice(8,16) = %#x, want 0x2233", got)
	}
	v.Insert(8, FromUint(16, 0xeeff))
	if got := v.Uint64(); got != 0x11eeff44 {
		t.Errorf("after Insert: %#x", got)
	}
}

func TestSliceEdges(t *testing.T) {
	v := FromUint(16, 0xabcd)
	if got := v.Slice(0, 16).Uint64(); got != 0xabcd {
		t.Errorf("full slice = %#x", got)
	}
	if got := v.Slice(0, 0).Width(); got != 0 {
		t.Errorf("empty slice width = %d", got)
	}
	if got := v.Slice(12, 4).Uint64(); got != 0xd {
		t.Errorf("tail nibble = %#x", got)
	}
}

func TestBoolOps(t *testing.T) {
	a := FromUint(16, 0xff00)
	b := FromUint(16, 0x0ff0)
	if got := a.And(b).Uint64(); got != 0x0f00 {
		t.Errorf("And = %#x", got)
	}
	if got := a.Or(b).Uint64(); got != 0xfff0 {
		t.Errorf("Or = %#x", got)
	}
	if got := a.Xor(b).Uint64(); got != 0xf0f0 {
		t.Errorf("Xor = %#x", got)
	}
	if got := a.Not().Uint64(); got != 0x00ff {
		t.Errorf("Not = %#x", got)
	}
}

func TestNotClampsToWidth(t *testing.T) {
	v := New(12).Not()
	if got := v.Uint64(); got != 0xfff {
		t.Errorf("Not of zero width-12 = %#x, want 0xfff", got)
	}
}

func TestShifts(t *testing.T) {
	v := FromUint(16, 0x00f0)
	if got := v.Shl(4).Uint64(); got != 0x0f00 {
		t.Errorf("Shl = %#x", got)
	}
	if got := v.Shr(4).Uint64(); got != 0x000f {
		t.Errorf("Shr = %#x", got)
	}
	if got := v.Shl(16).Uint64(); got != 0 {
		t.Errorf("Shl overflow = %#x", got)
	}
	if got := v.Shl(9).Uint64(); got != 0xe000 {
		t.Errorf("Shl(9) drops top bits = %#x, want 0xe000", got)
	}
}

func TestAddSub(t *testing.T) {
	a := FromUint(8, 250)
	b := FromUint(8, 10)
	if got := a.Add(b).Uint64(); got != 4 { // wraps mod 256
		t.Errorf("Add wrap = %d", got)
	}
	if got := b.Sub(a).Uint64(); got != 16 { // 10-250 mod 256
		t.Errorf("Sub wrap = %d", got)
	}
	if got := a.Sub(b).Uint64(); got != 240 {
		t.Errorf("Sub = %d", got)
	}
}

func TestMatchTernary(t *testing.T) {
	v := FromUint(16, 0xabcd)
	if !v.MatchTernary(FromUint(16, 0xab00), FromUint(16, 0xff00)) {
		t.Error("should match on high byte")
	}
	if v.MatchTernary(FromUint(16, 0xac00), FromUint(16, 0xff00)) {
		t.Error("should not match different high byte")
	}
	if !v.MatchTernary(FromUint(16, 0), FromUint(16, 0)) {
		t.Error("zero mask matches everything")
	}
}

func TestMatchPrefix(t *testing.T) {
	ip := FromUint(32, 0x0a000102) // 10.0.1.2
	net := FromUint(32, 0x0a000100)
	if !ip.MatchPrefix(net, 24) {
		t.Error("10.0.1.2 should match 10.0.1.0/24")
	}
	if ip.MatchPrefix(FromUint(32, 0x0a000200), 24) {
		t.Error("10.0.1.2 should not match 10.0.2.0/24")
	}
	if !ip.MatchPrefix(FromUint(32, 0), 0) {
		t.Error("/0 matches everything")
	}
	if !ip.MatchPrefix(ip, 32) {
		t.Error("/32 exact")
	}
}

func TestInRange(t *testing.T) {
	v := FromUint(16, 1000)
	if !v.InRange(FromUint(16, 1000), FromUint(16, 2000)) {
		t.Error("inclusive low bound")
	}
	if !v.InRange(FromUint(16, 500), FromUint(16, 1000)) {
		t.Error("inclusive high bound")
	}
	if v.InRange(FromUint(16, 1001), FromUint(16, 2000)) {
		t.Error("below range")
	}
}

func TestMaskRange(t *testing.T) {
	m := MaskRange(16, 4, 8)
	if got := m.Uint64(); got != 0x0ff0 {
		t.Errorf("MaskRange(16,4,8) = %#x, want 0x0ff0", got)
	}
	if got := MaskRange(800, 0, 800).PopCount(); got != 800 {
		t.Errorf("full mask popcount = %d", got)
	}
}

func TestResize(t *testing.T) {
	v := FromUint(16, 0xabcd)
	if got := v.Resize(32).Uint64(); got != 0xabcd {
		t.Errorf("grow = %#x", got)
	}
	if got := v.Resize(8).Uint64(); got != 0xcd {
		t.Errorf("shrink = %#x", got)
	}
}

func TestEqual(t *testing.T) {
	a := FromUint(16, 5)
	if !a.Equal(FromUint(16, 5)) {
		t.Error("equal values")
	}
	if a.Equal(FromUint(8, 5)) {
		t.Error("different widths are not Equal")
	}
	if !a.EqualBits(FromUint(8, 5)) {
		t.Error("EqualBits ignores width")
	}
}

func TestString(t *testing.T) {
	if got := FromUint(16, 0xab).String(); got != "0x00ab" {
		t.Errorf("String = %q", got)
	}
	if got := New(0).String(); got != "0x" {
		t.Errorf("empty String = %q", got)
	}
}

func TestPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	v := FromUint(8, 1)
	mustPanic("width mismatch", func() { v.And(FromUint(16, 1)) })
	mustPanic("slice oob", func() { v.Slice(4, 8) })
	mustPanic("bit oob", func() { v.Bit(8) })
	mustPanic("negative shift", func() { v.Shl(-1) })
	mustPanic("insert oob", func() {
		x := FromUint(8, 0)
		x.Insert(4, FromUint(8, 1))
	})
	mustPanic("negative width", func() { New(-1) })
}

// --- property-based tests ---

func randValue(r *rand.Rand, width int) Value {
	b := make([]byte, (width+7)/8)
	r.Read(b)
	return FromBytes(width, b)
}

func TestPropSliceInsertRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		w := 1 + r.Intn(200)
		v := randValue(r, w)
		start := r.Intn(w)
		n := r.Intn(w - start)
		s := v.Slice(start, n)
		u := v.Clone()
		u.Insert(start, s)
		return u.Equal(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropNotNot(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		w := 1 + r.Intn(900)
		v := randValue(r, w)
		return v.Not().Not().Equal(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropAddSubInverse(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		w := 1 + r.Intn(128)
		a, b := randValue(r, w), randValue(r, w)
		return a.Add(b).Sub(b).Equal(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropShiftInverse(t *testing.T) {
	// Shifting right then left preserves the bits that survive, i.e.
	// (v >> n) << n == v with the low n bits cleared... we test the dual:
	// for values whose top n bits are clear, (v << n) >> n == v.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		w := 8 + r.Intn(256)
		n := r.Intn(w)
		v := randValue(r, w).Shr(n) // clear top n bits
		return v.Shl(n).Shr(n).Equal(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropTernaryFullMaskIsEqual(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		w := 1 + r.Intn(800)
		a, b := randValue(r, w), randValue(r, w)
		full := Ones(w)
		return a.MatchTernary(b, full) == a.Equal(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropBigRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		w := 1 + r.Intn(800)
		v := randValue(r, w)
		return FromBig(w, v.Big()).Equal(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropDeMorgan(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		w := 1 + r.Intn(300)
		a, b := randValue(r, w), randValue(r, w)
		return a.And(b).Not().Equal(a.Not().Or(b.Not()))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropPrefixVsTernary(t *testing.T) {
	// An LPM match of length n is the same as a ternary match whose mask is
	// the top n bits.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		w := 1 + r.Intn(64)
		n := r.Intn(w + 1)
		a, b := randValue(r, w), randValue(r, w)
		mask := New(w)
		if n > 0 {
			mask = MaskRange(w, 0, n)
		}
		return a.MatchPrefix(b, n) == a.MatchTernary(b, mask)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBigZero(t *testing.T) {
	if New(64).Big().Sign() != 0 {
		t.Error("zero value Big should be 0")
	}
	if FromBig(16, big.NewInt(0x1234)).Uint64() != 0x1234 {
		t.Error("FromBig round trip")
	}
}
