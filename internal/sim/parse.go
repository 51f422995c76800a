package sim

import (
	"fmt"

	"hyper4/internal/bitfield"
	"hyper4/internal/p4/ast"
)

// maxParserStates bounds state transitions per parse, guarding against
// cyclic parse graphs.
const maxParserStates = 512

// parse runs the compiled parser state machine from start until ingress.
func (sw *Switch) parse(ps *packetState, tr *Trace) error {
	c := sw.code
	if c.start < 0 {
		return nil // programs without a parser accept the packet unparsed
	}
	cur := c.start
	for steps := 0; ; steps++ {
		if steps >= maxParserStates {
			return fmt.Errorf("sim: parser exceeded %d state transitions", maxParserStates)
		}
		if cur == stateAccept {
			return nil
		}
		st := &c.states[cur]
		if st.missing {
			return fmt.Errorf("sim: parser reached unknown state %q", st.name)
		}
		for i := range st.stmts {
			s := &st.stmts[i]
			if s.hdr != nil {
				if err := ps.extract(s.hdr); err != nil {
					return err
				}
				tr.Extracts++
				continue
			}
			if err := ps.setMetadata(s.set); err != nil {
				return err
			}
		}
		next, err := ps.transition(st)
		if err != nil {
			return err
		}
		cur = next
	}
}

// setMetadata runs set_metadata: the destination resolves first, as it
// sizes the value.
func (ps *packetState) setMetadata(s *setMeta) error {
	if s.dst.err != nil {
		return s.dst.err
	}
	v, err := ps.eval(&s.val, nil, &ps.tmp[0])
	if err != nil {
		return err
	}
	return ps.store(s.dst, v)
}

// extract pulls the next header's bytes off the packet into the instance.
// A packet shorter than the extraction is zero-filled and flagged.
func (ps *packetState) extract(h *hdrRef) error {
	slot, err := ps.slotFor(h)
	if err != nil {
		return err
	}
	ii := h.ii
	nbytes := ii.width / 8
	avail := len(ps.data) - ps.consumed
	take := nbytes
	if take > avail {
		take = avail
		ps.shortExtract = true
	}
	if cap(ps.scratch) < nbytes {
		ps.scratch = make([]byte, nbytes)
	}
	buf := ps.scratch[:nbytes]
	copy(buf, ps.data[ps.consumed:ps.consumed+take])
	for i := take; i < nbytes; i++ {
		buf[i] = 0
	}
	hs := &ps.headers[slot]
	hs.value.SetBytes(buf)
	hs.valid = true
	ps.consumed += take
	if ii.stackSlot >= 0 && h.index == ast.IndexNext {
		ps.stackNext[ii.stackSlot] = (slot - ii.headerBase) + 1
	}
	ps.latestSlot = slot
	return nil
}

// transition picks the next state.
func (ps *packetState) transition(st *pstate) (int, error) {
	if st.bad {
		return 0, fmt.Errorf("sim: bad parser return in state %q", st.name)
	}
	sel := st.sel
	if sel == nil {
		return st.next, nil
	}
	if sel.plan == nil {
		return ps.transitionLatest(sel)
	}
	key := ps.selKeys[sel.plan.id]
	key.Zero()
	off := 0
	for i := range sel.keys {
		k := &sel.keys[i]
		switch k.kind {
		case keyCurrent:
			ps.currentInto(&key, off, k.off, k.width)
			off += k.width
			continue
		case keyLatestElem:
			// The stack element this state's [next] extract just filled.
			key.InsertBits(off, ps.headers[ps.latestSlot].value, k.f.loc.off, k.f.loc.width)
		default:
			src, err := ps.fieldVal(k.f)
			if err != nil {
				return 0, err
			}
			key.InsertBits(off, *src, k.f.loc.off, k.f.loc.width)
		}
		off += k.f.loc.width
	}
	for i := range sel.cases {
		c := &sel.cases[i]
		if c.dflt {
			return c.next, nil
		}
		vm := &sel.plan.cases[i]
		if key.MatchTernary(vm.val, vm.mask) {
			return c.next, nil
		}
	}
	// P4_14: falling off a select without a default is a parser error; we
	// drop by transitioning to ingress with the packet marked dropped.
	ps.dropped = true
	return stateAccept, nil
}

// transitionLatest is transition for a select on latest.X where X's header
// is whichever one an earlier state extracted last: the key width is only
// known per packet, so the key and the cases are built per packet.
func (ps *packetState) transitionLatest(sel *selectOp) (int, error) {
	widths := make([]int, len(sel.keys))
	vals := make([]bitfield.Value, len(sel.keys))
	for i := range sel.keys {
		k := &sel.keys[i]
		switch k.kind {
		case keyCurrent:
			vals[i] = bitfield.New(k.width)
			ps.currentInto(&vals[i], 0, k.off, k.width)
		case keyLatestAny:
			if ps.latestSlot < 0 {
				return 0, fmt.Errorf("sim: select(latest.%s) before any extract", k.latest)
			}
			f := &k.bySlot[ps.latestSlot]
			src, err := ps.fieldVal(f)
			if err != nil {
				return 0, err
			}
			vals[i] = src.Slice(f.loc.off, f.loc.width)
		default:
			src, err := ps.fieldVal(k.f)
			if err != nil {
				return 0, err
			}
			vals[i] = src.Slice(k.f.loc.off, k.f.loc.width)
		}
		widths[i] = vals[i].Width()
	}
	total := 0
	for _, w := range widths {
		total += w
	}
	key := bitfield.New(total)
	off := 0
	for _, v := range vals {
		key.Insert(off, v)
		off += v.Width()
	}
	for i := range sel.cases {
		c := &sel.cases[i]
		if c.dflt {
			return c.next, nil
		}
		val, mask := caseValue(*c.ast, widths)
		if key.MatchTernary(val, mask) {
			return c.next, nil
		}
	}
	ps.dropped = true
	return stateAccept, nil
}

// currentInto writes the unextracted packet bits at the given bit offset and
// width past the parser's position into dst at dstOff, zero-filling past the
// end of the packet. dst bits in the target range must already be zero.
func (ps *packetState) currentInto(dst *bitfield.Value, dstOff, bitOff, width int) {
	startBit := ps.consumed*8 + bitOff
	for i := 0; i < width; i++ {
		bit := startBit + i
		byteIdx := bit / 8
		if byteIdx >= len(ps.data) {
			break
		}
		dst.SetBit(dstOff+i, (ps.data[byteIdx]>>(7-bit%8))&1)
	}
}
