package fuse

import (
	"math/rand"
	"testing"

	"hyper4/internal/bitfield"
	"hyper4/internal/core/persona"
	"hyper4/internal/core/persona/rows"
	"hyper4/internal/sim"
)

const testExtWidth = 512

func testState() *execState {
	return newExecState(&Engine{ew: testExtWidth})
}

// edRow builds a matchED/matchMeta row whose key requires the given byte
// at the given byte offset (all other bits wildcarded).
func edRow(width, byteOff int, want byte) *frow {
	val := bitfield.New(width)
	mask := bitfield.New(width)
	val.InsertUint(byteOff*8, 8, uint64(want))
	mask.InsertUint(byteOff*8, 8, 0xff)
	return &frow{Key: rows.Key{Val: val, Mask: mask}}
}

// sealed builds a slot through the same seal step Build uses.
func sealed(kind int, rows ...*frow) *fusedSlot {
	fs := &fusedSlot{kind: kind, rows: rows}
	fs.seal()
	return fs
}

// scanLookup is the oracle: the first row in precedence order whose key
// matches, as a linear scan — the lookup the index replaced.
func scanLookup(fs *fusedSlot, st *execState, ving, vport uint64) *frow {
	for _, r := range fs.rows {
		switch fs.kind {
		case matchED:
			if st.ext.MatchTernary(r.Val, r.Mask) {
				return r
			}
		case matchMeta:
			if st.meta.MatchTernary(r.Val, r.Mask) {
				return r
			}
		case matchStd:
			if ving&r.VinMask == r.VinVal && vport&r.VpMask == r.VpVal {
				return r
			}
		case matchNone:
			return r
		}
	}
	return nil
}

// TestFusedSlotLookupPrecedence holds the mask-grouped index to the
// first-match scan it replaced: hand-built cases for each precedence edge,
// then randomized tables with overlapping masks, duplicate keys inside a
// group, catch-all rows and std wildcard mixes.
func TestFusedSlotLookupPrecedence(t *testing.T) {
	st := testState()
	st.ext.SetPrefixBytes([]byte{0xaa, 0xbb})
	st.meta.InsertUint(0, 8, 0x42)

	t.Run("ed", func(t *testing.T) {
		miss := edRow(testExtWidth, 0, 0x01)
		hit1 := edRow(testExtWidth, 0, 0xaa)
		hit2 := edRow(testExtWidth, 1, 0xbb)
		if got := sealed(matchED, miss, hit1, hit2).lookup(st, 0, 0); got != hit1 {
			t.Errorf("ed lookup = %p, want first matching row %p", got, hit1)
		}
		// hit2 ranks first: the first group's match ends the probe.
		if got := sealed(matchED, hit2, miss, hit1).lookup(st, 0, 0); got != hit2 {
			t.Error("ed lookup did not respect row order")
		}
		later := edRow(testExtWidth, 0, 0xaa)
		if got := sealed(matchED, edRow(testExtWidth, 0, 0x01), hit2, later).lookup(st, 0, 0); got != hit2 {
			t.Error("ed lookup let a later row of an earlier group outrank a later group's first row")
		}
		dup := edRow(testExtWidth, 0, 0xaa)
		if got := sealed(matchED, miss, hit1, dup).lookup(st, 0, 0); got != hit1 {
			t.Error("ed lookup did not pick the first of two rows with one masked key")
		}
		catchAll := &frow{Key: rows.Key{Val: bitfield.New(testExtWidth), Mask: bitfield.New(testExtWidth)}}
		if got := sealed(matchED, miss, catchAll, hit1).lookup(st, 0, 0); got != catchAll {
			t.Error("ed lookup skipped an all-zero catch-all row")
		}
		if got := sealed(matchED, miss).lookup(st, 0, 0); got != nil {
			t.Errorf("ed lookup on all-miss rows = %p, want nil", got)
		}
	})

	t.Run("meta", func(t *testing.T) {
		miss := edRow(persona.MetaWidth, 0, 0x41)
		hit := edRow(persona.MetaWidth, 0, 0x42)
		if got := sealed(matchMeta, miss, hit).lookup(st, 0, 0); got != hit {
			t.Error("meta lookup skipped the matching row")
		}
	})

	t.Run("std", func(t *testing.T) {
		// Exact-on-vingress row before a wildcard row: the exact row wins
		// only when vingress matches.
		exact := &frow{Key: rows.Key{VinVal: 7, VinMask: ^uint64(0)}}
		wild := &frow{}
		fs := sealed(matchStd, exact, wild)
		if got := fs.lookup(st, 7, 0); got != exact {
			t.Error("std lookup missed the exact vingress row")
		}
		if got := fs.lookup(st, 8, 0); got != wild {
			t.Error("std lookup did not fall through to the wildcard row")
		}
		vp := &frow{Key: rows.Key{VpVal: 3, VpMask: ^uint64(0)}}
		fs = sealed(matchStd, vp)
		if got := fs.lookup(st, 0, 3); got != vp {
			t.Error("std lookup missed the vport row")
		}
		if got := fs.lookup(st, 0, 4); got != nil {
			t.Error("std lookup matched the wrong vport")
		}
	})

	t.Run("none", func(t *testing.T) {
		only := &frow{}
		if got := sealed(matchNone, only).lookup(st, 0, 0); got != only {
			t.Error("no-match lookup did not return the single row")
		}
		if got := sealed(matchNone).lookup(st, 0, 0); got != nil {
			t.Error("no-match lookup on empty slot should miss")
		}
	})

	t.Run("random", func(t *testing.T) {
		rng := rand.New(rand.NewSource(21))
		for trial := 0; trial < 300; trial++ {
			kind := []int{matchED, matchMeta, matchStd}[trial%3]
			fs, keys := randomSlot(rng, kind)
			for probe := 0; probe < 40; probe++ {
				ving, vport := randomProbe(rng, st, kind, keys)
				want, got := scanLookup(fs, st, ving, vport), fs.lookup(st, ving, vport)
				if got != want {
					t.Fatalf("trial %d kind %d probe %d: index picked row %d, scan row %d (%d rows, %d groups)",
						trial, kind, probe, rowIndex(fs, got), rowIndex(fs, want), len(fs.rows), fs.ix.Groups())
				}
			}
		}
	})
}

func rowIndex(fs *fusedSlot, r *frow) int {
	for i, x := range fs.rows {
		if x == r {
			return i
		}
	}
	return -1
}

// randomSlot builds a sealed slot of 1..24 rows drawing masks from a small
// pool (overlapping byte ranges, a mask with a ragged bit edge, the
// all-zero catch-all) and values from a tiny alphabet, so masks are shared,
// masked keys repeat inside a group, and groups interleave in rank.
func randomSlot(rng *rand.Rand, kind int) (*fusedSlot, []rows.Key) {
	width := testExtWidth
	if kind == matchMeta {
		width = persona.MetaWidth
	}
	masks := []bitfield.Value{
		bitfield.New(width),
		bitfield.MaskRange(width, 0, 16),
		bitfield.MaskRange(width, 8, 16),
		bitfield.MaskRange(width, 3, 10),
		bitfield.MaskRange(width, width-8, 8),
		bitfield.MaskRange(width, 0, 8).Or(bitfield.MaskRange(width, 40, 8)),
	}
	stdMasks := []uint64{0, ^uint64(0), 0xff, 0xf0}
	n := 1 + rng.Intn(24)
	frows := make([]*frow, n)
	keys := make([]rows.Key, n)
	for i := range frows {
		var k rows.Key
		if kind == matchStd {
			k.VinMask = stdMasks[rng.Intn(len(stdMasks))]
			k.VpMask = stdMasks[rng.Intn(len(stdMasks))]
			k.VinVal = uint64(rng.Intn(3)) & k.VinMask
			k.VpVal = uint64(rng.Intn(3)) & k.VpMask
		} else {
			k.Mask = masks[rng.Intn(len(masks))]
			k.Val = randomWide(rng, width).And(k.Mask)
		}
		frows[i] = &frow{Key: k}
		keys[i] = k
	}
	return sealed(kind, frows...), keys
}

// randomWide is a value whose bytes come from {0x00, 0x01, 0xff}.
func randomWide(rng *rand.Rand, width int) bitfield.Value {
	b := make([]byte, (width+7)/8)
	for i := range b {
		b[i] = []byte{0x00, 0x01, 0xff}[rng.Intn(3)]
	}
	return bitfield.FromBytes(width, b)
}

// randomProbe loads st with a packet that, half the time, is built to hit
// one of the rows (its value with random bits outside its mask), and
// returns the std key to probe with.
func randomProbe(rng *rand.Rand, st *execState, kind int, keys []rows.Key) (ving, vport uint64) {
	k := keys[rng.Intn(len(keys))]
	aim := rng.Intn(2) == 0
	if kind == matchStd {
		ving, vport = uint64(rng.Intn(3)), uint64(rng.Intn(3))
		if aim {
			ving = k.VinVal | ving&^k.VinMask
			vport = k.VpVal | vport&^k.VpMask
		}
		return ving, vport
	}
	dst := &st.ext
	if kind == matchMeta {
		dst = &st.meta
	}
	v := randomWide(rng, dst.Width())
	if aim {
		v = k.Val.Or(v.And(k.Mask.Not()))
	}
	dst.CopyFrom(v)
	return 0, 0
}

// TestCopyFieldOverlap checks the wide-copy staging buffer: an ed←ed move
// whose source and destination ranges overlap must behave as if the source
// were read in full before the destination is written.
func TestCopyFieldOverlap(t *testing.T) {
	st := testState()
	src := make([]byte, 32)
	for i := range src {
		src[i] = byte(i + 1)
	}
	st.ext.SetPrefixBytes(src)

	// Shift a 128-bit field right by 64 bits: dst [64,192) ← src [0,128),
	// overlapping on [64,128).
	st.copyField(&rows.Op{Code: persona.OpModEDED, Dst: persona.StoreED, Src: persona.StoreED, DstOff: 64, DstW: 128, SrcOff: 0, SrcW: 128})
	got := st.ext.Bytes()[:24]
	want := append(append([]byte{}, src[:8]...), src[:16]...)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("overlapping copy corrupted byte %d: got % x, want % x", i, got, want)
		}
	}

	// Widening copy zero-extends: dst is 80 bits, src 16 bits.
	st.ext.SetPrefixBytes(src)
	st.copyField(&rows.Op{Code: persona.OpModEDED, Dst: persona.StoreED, Src: persona.StoreED, DstOff: 256, DstW: 80, SrcOff: 0, SrcW: 16})
	if hi := st.ext.UintAt(256, 64); hi != 0 {
		t.Errorf("widening copy high bits = %#x, want 0", hi)
	}
	if lo := st.ext.UintAt(256+64, 16); lo != 0x0102 {
		t.Errorf("widening copy low bits = %#x, want 0x0102", lo)
	}

	// Narrowing copy truncates to the low source bits.
	st.ext.SetPrefixBytes(src)
	st.copyField(&rows.Op{Code: persona.OpModEDED, Dst: persona.StoreED, Src: persona.StoreED, DstOff: 256, DstW: 16, SrcOff: 0, SrcW: 128})
	if got := st.ext.UintAt(256, 16); got != 0x0f10 {
		t.Errorf("narrowing copy = %#x, want 0x0f10 (low 16 of the 128-bit source)", got)
	}
}

func TestSetConstWide(t *testing.T) {
	st := testState()
	// Prefill with ones so the zero-extension is observable.
	for i := 0; i < testExtWidth; i += 64 {
		st.ext.InsertUint(i, 64, ^uint64(0))
	}
	st.setConst(&rows.Op{Code: persona.OpModEDConst, Dst: persona.StoreED, DstOff: 8, DstW: 96, Const: 0xdeadbeefcafe})
	if hi := st.ext.UintAt(8, 32); hi != 0 {
		t.Errorf("wide set high bits = %#x, want 0", hi)
	}
	if lo := st.ext.UintAt(8+32, 64); lo != 0xdeadbeefcafe {
		t.Errorf("wide set low bits = %#x, want 0xdeadbeefcafe", lo)
	}
	// Neighbours untouched.
	if b := st.ext.UintAt(0, 8); b != 0xff {
		t.Errorf("byte before the field clobbered: %#x", b)
	}
	if b := st.ext.UintAt(8+96, 8); b != 0xff {
		t.Errorf("byte after the field clobbered: %#x", b)
	}
}

// TestFixCsum builds a real IPv4 header in the extracted-data field and
// checks the recomputed checksum against an independently computed one.
func TestFixCsum(t *testing.T) {
	hdr := []byte{
		0x45, 0x00, 0x00, 0x54, // ver/ihl, tos, total length
		0x12, 0x34, 0x40, 0x00, // id, flags/frag
		0x40, 0x01, 0xff, 0xff, // ttl, proto=icmp, checksum (stale)
		10, 0, 0, 1, // src
		10, 0, 0, 2, // dst
	}
	var sum uint32
	for i := 0; i < 20; i += 2 {
		if i == 10 {
			continue
		}
		sum += uint32(hdr[i])<<8 | uint32(hdr[i+1])
	}
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	want := ^uint16(sum)

	const hoff = 14 * 8 // header at the usual post-Ethernet offset
	st := testState()
	frame := append(make([]byte, 14), hdr...)
	st.ext.SetPrefixBytes(frame)
	st.fixCsum(&rows.Csum{Hdr: hoff})
	if got := uint16(st.ext.UintAt(hoff+80, 16)); got != want {
		t.Errorf("checksum = %#04x, want %#04x", got, want)
	}
	// Idempotent: recomputing over the corrected header yields the same
	// value (the checksum word is excluded from the sum).
	st.fixCsum(&rows.Csum{Hdr: hoff})
	if got := uint16(st.ext.UintAt(hoff+80, 16)); got != want {
		t.Errorf("recomputed checksum = %#04x, want %#04x", got, want)
	}
}

// TestCommitRedMeterTruncation drives the commit phase against a real
// persona switch with the ingress meter forced red: the policed pass must
// record its t_norm hit and counter usage but none of its journaled entry
// hits, outputs, or follow-on passes — mirroring the interpreter's
// policing guard.
func TestCommitRedMeterTruncation(t *testing.T) {
	p, err := persona.Generate(persona.Reference)
	if err != nil {
		t.Fatal(err)
	}
	sw, err := sim.New("hp4", p.Program)
	if err != nil {
		t.Fatal(err)
	}

	meter, err := sw.MeterRef(persona.MeterIngress)
	if err != nil {
		t.Fatal(err)
	}
	counter, err := sw.CounterRef(persona.CounterVDev)
	if err != nil {
		t.Fatal(err)
	}
	var eng *Engine
	build := func() (*execState, []*sim.Entry) {
		norm0, norm1 := &sim.Entry{}, &sim.Entry{}
		stage0, stage1 := &sim.Entry{}, &sim.Entry{}
		eng = &Engine{ew: 64, entries: []*sim.Entry{nil, norm0, norm1, stage0, stage1}, meter: meter, counter: counter}
		st := newExecState(eng)
		st.jr = []run{{3, 4}, {4, 5}}
		st.segs = []segment{
			{pid: 1, inst: segNormal, dataLen: 64, norm: 1,
				lo: 0, hi: 1, outPort: 5, outData: []byte{1}},
			{pid: 1, inst: segRecirc, dataLen: 64, norm: 2,
				lo: 1, hi: 2, outPort: 6, outData: []byte{2}},
		}
		return st, []*sim.Entry{norm0, norm1, stage0, stage1}
	}

	// Red at the first pass: it and every later pass are pruned.
	if err := sw.MeterSetRates(persona.MeterIngress, 1, 0, 0); err != nil {
		t.Fatal(err)
	}
	st, entries := build()
	res, ok := eng.commit(st)
	if !ok {
		t.Fatal("commit declined")
	}
	// Hits and counter bumps wait in the burst's tally until Flush.
	if entries[0].Hits() != 0 {
		t.Error("commit bumped an entry's hit counter before Flush")
	}
	if pkts, _, _ := sw.CounterRead(persona.CounterVDev, 1); pkts != 0 {
		t.Error("commit bumped the vdev counter before Flush")
	}
	st.Flush()
	if len(res.Outputs) != 0 || res.Recirculates != 0 {
		t.Fatalf("red pass leaked effects: %+v", res)
	}
	if entries[0].Hits() != 1 {
		t.Errorf("t_norm hit on the red pass = %d, want 1 (the pass ran before policing)", entries[0].Hits())
	}
	for i, e := range entries[1:] {
		if e.Hits() != 0 {
			t.Errorf("entry %d hit %d times under a red verdict, want 0", i+1, e.Hits())
		}
	}
	pkts, bytes, err := sw.CounterRead(persona.CounterVDev, 1)
	if err != nil {
		t.Fatal(err)
	}
	if pkts != 1 || bytes != 64 {
		t.Errorf("vdev counter = (%d, %d), want (1, 64): red packets still count", pkts, bytes)
	}

	// Green: every pass replays.
	if err := sw.MeterSetRates(persona.MeterIngress, 1, 1<<40, 1<<40); err != nil {
		t.Fatal(err)
	}
	st, entries = build()
	res, ok = eng.commit(st)
	if !ok {
		t.Fatal("commit declined")
	}
	st.Flush()
	if len(res.Outputs) != 2 || res.Recirculates != 1 {
		t.Fatalf("green commit: %+v, want 2 outputs and 1 recirculation", res)
	}
	if res.Outputs[0].Port != 5 || res.Outputs[1].Port != 6 {
		t.Errorf("outputs out of pass order: %+v", res.Outputs)
	}
	for i, e := range entries {
		if e.Hits() != 1 {
			t.Errorf("entry %d hits = %d, want 1", i, e.Hits())
		}
	}
}
