package tuple

import (
	"math/rand"
	"slices"
	"testing"
)

// row is a test row: its precedence (prio, then id) and its (mask, value).
type row struct {
	prio, id  int
	mask, val []byte
}

func before(a, b *row) bool {
	if a.prio != b.prio {
		return a.prio < b.prio
	}
	return a.id < b.id
}

// sorted returns rows in precedence order.
func sorted(rows []*row) []*row {
	out := slices.Clone(rows)
	slices.SortFunc(out, func(a, b *row) int {
		if before(a, b) {
			return -1
		}
		return 1
	})
	return out
}

// scan is the oracle: the first row, in precedence order, whose value
// equals the key under its mask.
func scan(rows []*row, key []byte) *row {
	for _, r := range sorted(rows) {
		hit := true
		for i := range key {
			if key[i]&r.mask[i] != r.val[i]&r.mask[i] {
				hit = false
				break
			}
		}
		if hit {
			return r
		}
	}
	return nil
}

// keyLen is the key width the op-driven tests use: wide enough for masks
// whose non-zero spans differ, narrow enough that keys collide.
const keyLen = 3

// masks is the pool inserted rows draw from: the catch-all, exact, spans
// at either edge, ragged bit edges and a split mask.
var masks = [][]byte{
	{0x00, 0x00, 0x00},
	{0xff, 0xff, 0xff},
	{0xff, 0x00, 0x00},
	{0xf0, 0x00, 0x00},
	{0x00, 0xff, 0x0f},
	{0x80, 0x00, 0x01},
	{0x00, 0x00, 0xff},
}

// drive runs ops — inserts, deletes, lookups and rebuilds from scratch
// decoded from the bytes — against an Index and the scan oracle, failing on
// the first lookup where they disagree.
func drive(t *testing.T, ops []byte) {
	ix := New(before)
	var live []*row
	next := func() byte {
		if len(ops) == 0 {
			return 0
		}
		b := ops[0]
		ops = ops[1:]
		return b
	}
	// A small value alphabet makes masked keys repeat inside a group.
	small := func() []byte { return []byte{next() % 3, next() % 3 << 6, next() % 3} }
	for id := 0; len(ops) > 0; id++ {
		switch op := next(); op % 5 {
		case 0, 1:
			r := &row{prio: int(op/4) % 3, id: id, mask: masks[int(next())%len(masks)], val: small()}
			ix.Insert(r.mask, r.val, r)
			live = append(live, r)
		case 2:
			if len(live) == 0 {
				continue
			}
			i := int(next()) % len(live)
			r := live[i]
			if !ix.Delete(r.mask, r.val, r) {
				t.Fatalf("op %d: delete of a live row failed", id)
			}
			if ix.Delete(r.mask, r.val, r) {
				t.Fatalf("op %d: a row deleted twice", id)
			}
			live = slices.Delete(live, i, i+1)
		case 3:
			key := small()
			if len(live) > 0 && next()%2 == 0 {
				// Probe near an installed row: its value, one bit flipped.
				r := live[int(next())%len(live)]
				key = slices.Clone(r.val)
				key[int(next())%keyLen] ^= 1 << (next() % 8)
			}
			want := scan(live, key)
			got, ok := ix.Lookup(key, new([]byte))
			if ok != (want != nil) || got != want {
				t.Fatalf("op %d key %x: index picked %+v, scan %+v (%d rows, %d groups)", id, key, got, want, len(live), ix.Groups())
			}
		case 4:
			rows := sorted(live)
			ix = Build(before, len(rows), func(i int) ([]byte, []byte, *row) { return rows[i].mask, rows[i].val, rows[i] })
		}
	}
	seen := map[string]bool{}
	for _, r := range live {
		seen[string(r.mask)] = true
	}
	if ix.Groups() != len(seen) {
		t.Fatalf("%d groups for %d distinct masks", ix.Groups(), len(seen))
	}
}

func TestLookupMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 500; trial++ {
		ops := make([]byte, 50+rng.Intn(400))
		rng.Read(ops)
		drive(t, ops)
	}
}

// TestDeletePromotesNext: rows under one masked key are held in precedence
// order; deleting the first makes the next the match, and a wide
// high-precedence mask wins over a narrow low-precedence one.
func TestDeletePromotesNext(t *testing.T) {
	ix := New(before)
	exact := []byte{0xff, 0xff, 0xff}
	wide := []byte{0xff, 0x00, 0x00}
	a := &row{prio: 1, id: 1, mask: exact, val: []byte{1, 2, 3}}
	b := &row{prio: 1, id: 2, mask: exact, val: []byte{1, 2, 3}}
	w := &row{prio: 0, id: 3, mask: wide, val: []byte{1, 0, 0}}
	for _, r := range []*row{b, a, w} {
		ix.Insert(r.mask, r.val, r)
	}
	key := []byte{1, 2, 3}
	var scratch []byte
	for _, step := range []struct {
		del  *row
		want *row
	}{{nil, w}, {w, a}, {a, b}, {b, nil}} {
		if step.del != nil && !ix.Delete(step.del.mask, step.del.val, step.del) {
			t.Fatalf("delete of row %d failed", step.del.id)
		}
		if got, _ := ix.Lookup(key, &scratch); got != step.want {
			t.Fatalf("after deleting %v: got %+v, want %+v", step.del, got, step.want)
		}
	}
	if ix.Groups() != 0 {
		t.Fatalf("empty index holds %d groups", ix.Groups())
	}
}

// FuzzIndex drives random insert/delete/lookup sequences and compares every
// lookup against the first-match scan.
func FuzzIndex(f *testing.F) {
	f.Add([]byte{0, 1, 1, 2, 3, 4, 1, 0, 1, 2, 3, 3, 1, 0, 0, 0})
	f.Add([]byte{4, 0, 0, 0, 0, 8, 1, 1, 1, 1, 2, 0, 3, 0, 0, 0, 0, 0, 0, 7})
	f.Fuzz(func(t *testing.T, ops []byte) { drive(t, ops) })
}
