package fuse

import (
	"encoding/binary"

	"hyper4/internal/bitfield"
	"hyper4/internal/core/persona/rows"
)

// A fused lookup costs what the key is, not how many rows hold it: Build
// seals every fused table (and every parse state's t_parse_ctrl rows) into
// a tuple-space index. Rows that share a ternary mask form one group, and a
// group is a hash map from the masked key bytes to the first — highest
// precedence — row holding that key. A lookup probes the groups in order of
// their first row and stops as soon as the next group's first row ranks
// below the best match so far, so it returns exactly the row a first-match
// scan over the precedence-ordered rows would. Exact-match tables are one
// group however many entries they hold.

// tupleIndex is a sealed set of rows, grouped by mask.
type tupleIndex struct {
	std    bool // keys are (vingress, vport) pairs, not wide-field bytes
	groups []maskGroup
}

// maskGroup is every row sharing one mask.
type maskGroup struct {
	first int // precedence rank of the group's first row; groups ascend by it
	// Wide keys: the bit span [start, start+w) the mask's non-zero bytes
	// cover, and the mask's bytes over it.
	start, w int
	span     []byte
	// Std keys.
	vinMask, vpMask uint64
	ranks           map[string]int // masked key → rank of the first row holding it
}

// sealIndex builds the index over n rows whose keys, key(0)..key(n-1), are
// in match precedence order. Masks are read as bytes, and only when a row's
// mask differs from the previous row's.
func sealIndex(n int, key func(rank int) *rows.Key, std bool) tupleIndex {
	ix := tupleIndex{std: std}
	bySig := map[string]int{}
	groupOf := make([]int, n)
	var sizes []int
	gi := -1
	for rank := 0; rank < n; rank++ {
		k := key(rank)
		if rank == 0 || !sameMask(key(rank-1), k, std) {
			var sig []byte
			if std {
				sig = appendPair(nil, k.VinMask, k.VpMask)
			} else {
				sig = k.Mask.Bytes()
			}
			var ok bool
			if gi, ok = bySig[string(sig)]; !ok {
				gi = len(ix.groups)
				bySig[string(sig)] = gi
				g := maskGroup{first: rank, vinMask: k.VinMask, vpMask: k.VpMask}
				if !std {
					g.start, g.w = nonZeroSpan(sig, k.Mask.Width())
					g.span = k.Mask.AppendSliceTo(nil, g.start, g.w)
				}
				ix.groups = append(ix.groups, g)
				sizes = append(sizes, 0)
			}
		}
		groupOf[rank] = gi
		sizes[gi]++
	}
	for i := range ix.groups {
		ix.groups[i].ranks = make(map[string]int, sizes[i])
	}
	// Lowest precedence first, so each key ends up naming its first row.
	var buf []byte
	for rank := n - 1; rank >= 0; rank-- {
		k := key(rank)
		g := &ix.groups[groupOf[rank]]
		buf = ix.appendKey(buf[:0], g, k.Val, k.VinVal, k.VpVal)
		g.ranks[string(buf)] = rank
	}
	return ix
}

func sameMask(a, b *rows.Key, std bool) bool {
	if std {
		return a.VinMask == b.VinMask && a.VpMask == b.VpMask
	}
	return a.Mask.Equal(b.Mask)
}

// nonZeroSpan returns the bit span covering the non-zero bytes of a mask
// given as its big-endian bytes (the top byte carries the padding bits of
// a width that is not a whole number of bytes). An all-zero mask has an
// empty span: its rows key on nothing and match every packet.
func nonZeroSpan(b []byte, width int) (start, w int) {
	lo, hi := 0, len(b)
	for lo < hi && b[lo] == 0 {
		lo++
	}
	for hi > lo && b[hi-1] == 0 {
		hi--
	}
	if lo == hi {
		return 0, 0
	}
	pad := len(b)*8 - width
	start = max(lo*8-pad, 0)
	return start, hi*8 - pad - start
}

// lookup returns the precedence rank of the first row matching the packet
// — src for wide keys, (ving, vport) for std keys — or -1 on a miss. key is
// the caller's scratch buffer, reused across calls.
func (ix *tupleIndex) lookup(key *[]byte, src bitfield.Value, ving, vport uint64) int {
	best := -1
	for i := range ix.groups {
		g := &ix.groups[i]
		if best >= 0 && g.first >= best {
			break
		}
		*key = ix.appendKey((*key)[:0], g, src, ving, vport)
		if r, ok := g.ranks[string(*key)]; ok && (best < 0 || r < best) {
			best = r
		}
	}
	return best
}

// appendKey appends the group's masked key for a wide value or a
// (vingress, vport) pair.
func (ix *tupleIndex) appendKey(dst []byte, g *maskGroup, src bitfield.Value, ving, vport uint64) []byte {
	if ix.std {
		return appendPair(dst, ving&g.vinMask, vport&g.vpMask)
	}
	base := len(dst)
	dst = src.AppendSliceTo(dst, g.start, g.w)
	for i, m := range g.span {
		dst[base+i] &= m
	}
	return dst
}

func appendPair(dst []byte, a, b uint64) []byte {
	return binary.BigEndian.AppendUint64(binary.BigEndian.AppendUint64(dst, a), b)
}
