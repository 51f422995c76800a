// Package tuple is the first-match table index both table engines share:
// internal/sim's interpreter and internal/core/fuse's fused plans.
//
// HyPer4 emulates every match kind as a ternary match with managed
// priorities (paper §5.3), so a table lookup is always one operation: find
// the first row, in precedence order, whose (value, mask) covers the key.
// The index answers it by tuple-space search. Rows sharing a mask form one
// group, a hash map from the masked key bytes — only the bytes the mask's
// non-zero span covers — to the rows holding that key, in precedence
// order. Groups are ordered by a bound that precedes or equals each of
// their rows; a lookup probes them in that order and stops as soon as the
// next group's bound does not precede the best match so far, so it returns
// exactly the row a first-match scan over the precedence-ordered rows
// would. A lookup costs one hash per mask, never one compare per row: an
// exact-match table is one group however many rows it holds.
//
// Keys, masks and values are byte strings of one length per index; the
// caller lays its match fields out the same way in all three.
package tuple

import (
	"slices"
	"sort"
)

// Index is a first-match index over rows of type R, ordered by the
// precedence function it was built with. Lookup may run concurrently with
// other lookups; writes need the caller's exclusion.
type Index[R comparable] struct {
	before  func(a, b R) bool // strict precedence: a wins over b
	groups  []*group[R]       // ascending by bound
	bySig   map[string]*group[R]
	last    *group[R] // the last group a write found: writes come in runs
	scratch []byte    // writes' masked key
}

// group is every row sharing one mask.
type group[R comparable] struct {
	sig    string // the whole mask
	lo, hi int    // byte span of the mask's non-zero bytes
	mask   []byte // the mask over [lo, hi)
	// bound precedes or equals every row in the group. Inserts keep it
	// exact; a delete may leave it early, which costs probes, never
	// correctness.
	bound R
	n     int            // rows held
	first map[string]R   // masked key → its highest-precedence row
	rest  map[string][]R // masked key → its other rows, in precedence order
}

// New returns an empty index ordered by before, a strict precedence order
// (before(a, b): a is matched in preference to b).
func New[R comparable](before func(a, b R) bool) *Index[R] {
	return &Index[R]{before: before, bySig: map[string]*group[R]{}}
}

// Groups reports how many distinct masks the index holds — the most hash
// probes a lookup makes.
func (ix *Index[R]) Groups() int { return len(ix.groups) }

// Build indexes n rows given in precedence order, sizing each group's map
// up front. row(i) returns the i-th row's (mask, value) and the row; the
// slices need only live until the next call.
func Build[R comparable](before func(a, b R) bool, n int, row func(i int) (mask, val []byte, r R)) *Index[R] {
	type keyed struct {
		g *group[R]
		k string
		r R
	}
	ix := New(before)
	rows := make([]keyed, n)
	for i := range rows {
		mask, val, r := row(i)
		g := ix.group(mask, r)
		g.n++
		ix.scratch = g.masked(ix.scratch[:0], val)
		rows[i] = keyed{g, string(ix.scratch), r}
	}
	for _, g := range ix.groups {
		g.first = make(map[string]R, g.n)
	}
	for _, kr := range rows {
		ix.add(kr.g, kr.k, kr.r)
	}
	return ix
}

// Insert adds r under (mask, val), after every row that precedes it. val
// need not be masked.
func (ix *Index[R]) Insert(mask, val []byte, r R) {
	g := ix.group(mask, r)
	g.n++
	ix.scratch = g.masked(ix.scratch[:0], val)
	ix.add(g, string(ix.scratch), r)
}

// add files r under its masked key k in g.
func (ix *Index[R]) add(g *group[R], k string, r R) {
	head, ok := g.first[k]
	if !ok {
		g.first[k] = r
		return
	}
	if ix.before(r, head) {
		g.first[k], r = r, head
	}
	if g.rest == nil {
		g.rest = map[string][]R{}
	}
	rs := g.rest[k]
	i := sort.Search(len(rs), func(i int) bool { return ix.before(r, rs[i]) })
	g.rest[k] = slices.Insert(rs, i, r)
}

// group returns the group for mask, creating it if there is none, with its
// bound lowered to r if r precedes it.
func (ix *Index[R]) group(mask []byte, r R) *group[R] {
	g := ix.find(mask)
	if g == nil {
		g = &group[R]{sig: string(mask), bound: r, first: map[string]R{}}
		g.lo, g.hi = nonZeroSpan(mask)
		g.mask = []byte(g.sig[g.lo:g.hi])
		ix.bySig[g.sig], ix.last = g, g
		ix.groups = append(ix.groups, g)
		ix.raise(len(ix.groups) - 1)
	} else if ix.before(r, g.bound) {
		g.bound = r
		ix.raise(slices.Index(ix.groups, g))
	}
	return g
}

// find returns the group for mask, or nil.
func (ix *Index[R]) find(mask []byte) *group[R] {
	if ix.last == nil || ix.last.sig != string(mask) {
		ix.last = ix.bySig[string(mask)]
	}
	return ix.last
}

// Delete removes r from under (mask, val) and reports whether it was
// there. The next row under the same key takes its place.
func (ix *Index[R]) Delete(mask, val []byte, r R) bool {
	g := ix.find(mask)
	if g == nil {
		return false
	}
	ix.scratch = g.masked(ix.scratch[:0], val)
	k := ix.scratch
	rs := g.rest[string(k)]
	if head, ok := g.first[string(k)]; !ok {
		return false
	} else if head == r && len(rs) == 0 {
		delete(g.first, string(k))
	} else if head == r {
		g.first[string(k)] = rs[0]
		g.dropRest(k, rs, 0)
	} else if i := slices.Index(rs, r); i >= 0 {
		g.dropRest(k, rs, i)
	} else {
		return false
	}
	if g.n--; g.n == 0 {
		ix.groups = slices.DeleteFunc(ix.groups, func(x *group[R]) bool { return x == g })
		delete(ix.bySig, g.sig)
		ix.last = nil
	}
	return true
}

// dropRest removes rs[i] from the rows behind the first under k.
func (g *group[R]) dropRest(k []byte, rs []R, i int) {
	if len(rs) == 1 {
		delete(g.rest, string(k))
	} else {
		g.rest[string(k)] = slices.Delete(rs, i, i+1)
	}
}

// Lookup returns the first row, in precedence order, whose masked value
// equals the key under its mask. scratch is the caller's probe buffer,
// reused across calls.
//
//hp4:hotpath
func (ix *Index[R]) Lookup(key []byte, scratch *[]byte) (best R, found bool) {
	buf := *scratch
	for _, g := range ix.groups {
		if found && !ix.before(g.bound, best) {
			break
		}
		buf = g.masked(buf[:0], key)
		if r, ok := g.first[string(buf)]; ok && (!found || ix.before(r, best)) {
			best, found = r, true
		}
	}
	*scratch = buf
	return best, found
}

// masked appends b's bytes over the group's span, masked.
func (g *group[R]) masked(dst, b []byte) []byte {
	base := len(dst)
	dst = append(dst, b[g.lo:g.hi]...)
	for i, m := range g.mask {
		dst[base+i] &= m
	}
	return dst
}

// raise moves the group at i ahead of every group whose bound it precedes.
func (ix *Index[R]) raise(i int) {
	for ; i > 0 && ix.before(ix.groups[i].bound, ix.groups[i-1].bound); i-- {
		ix.groups[i], ix.groups[i-1] = ix.groups[i-1], ix.groups[i]
	}
}

// nonZeroSpan returns the byte span [lo, hi) covering a mask's non-zero
// bytes. An all-zero mask has an empty span: its rows key on nothing and
// match every key.
func nonZeroSpan(mask []byte) (lo, hi int) {
	lo, hi = 0, len(mask)
	for lo < hi && mask[lo] == 0 {
		lo++
	}
	for hi > lo && mask[hi-1] == 0 {
		hi--
	}
	return lo, hi
}
