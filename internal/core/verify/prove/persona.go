package prove

import (
	"fmt"
	"math/big"

	"hyper4/internal/bitfield"
	"hyper4/internal/core/persona"
	"hyper4/internal/core/persona/rows"
)

// pworld is one in-flight symbolic world of the persona walk: the persona's
// live state for one region of the input space. The walk is row-driven — it
// follows the persona's installed table entries rather than trusting the
// compiler's bookkeeping, so translation bugs change the model.
type pworld struct {
	region  Region
	ext     []bitVal // hp4d.extracted (ExtractedWidth bits)
	emeta   []bitVal // hp4d.emeta (MetaWidth bits)
	vport   []bitVal // hp4.vdev_port (VPortWidth bits)
	window  int      // current parse window in bytes
	state   uint64   // hp4.parse_state
	wb      int      // write-back byte count fixed at parse_done
	kind    int      // hp4.next_table code
	slot    uint64   // hp4.next_slot
	csum    bool
	trail   []string
	inconcl []string
}

func (w pworld) note(s string) pworld {
	t := make([]string, len(w.trail), len(w.trail)+1)
	copy(t, w.trail)
	w.trail = append(t, s)
	return w
}

type personaBuilder struct {
	cfg  persona.Config
	v    *rows.VDev
	L    int
	ving []bitVal // vdev_ingress: the symbolic ingress port, zero-extended
	m    *Machine
}

// BuildPersona models the persona's emulation of virtual device pid over
// L-byte packets, assuming the identity port assignment (vdev_ingress equals
// the physical ingress port). Everything translation-dependent — the parse
// control walk, stage dispatch, primitive micro-programs and the checksum
// fix-up — comes from the rows installed in src, decoded by the shared row
// model (internal/core/persona/rows). A row that does not decode leaves the
// whole model inconclusive.
func BuildPersona(cfg persona.Config, src TableSource, pid int, L int) (*Machine, error) {
	if cfg.FixedParser {
		return nil, fmt.Errorf("prove: fixed-parser personas are not supported")
	}
	if L < cfg.ParseDefault {
		return nil, fmt.Errorf("prove: modeled length %d is below the persona's default parse window %d", L, cfg.ParseDefault)
	}
	t, err := rows.Load(src, cfg)
	if err != nil {
		return nil, fmt.Errorf("prove: persona tables: %w", err)
	}
	b := &personaBuilder{
		cfg:  cfg,
		v:    t.VDev(pid),
		L:    L,
		ving: resizeBits(portInBits(L), persona.VPortWidth),
		m:    &Machine{Name: "persona", L: L, NBits: L*8 + 9},
	}
	for _, e := range b.v.Errs {
		b.m.Inconcl = append(b.m.Inconcl, "persona row does not decode: "+e.Error())
	}
	w := pworld{
		region: fullRegion(),
		emeta:  make([]bitVal, persona.MetaWidth),
		vport:  make([]bitVal, persona.VPortWidth),
		window: cfg.ParseDefault,
	}
	b.parseStep(w, 0)
	return b.m, nil
}

func (b *personaBuilder) halt(w pworld, reason string) {
	t := make([]string, len(w.inconcl), len(w.inconcl)+1)
	copy(t, w.inconcl)
	b.m.Leaves = append(b.m.Leaves, Leaf{
		Region:  w.region,
		Trail:   joinTrail(w.trail),
		Inconcl: append(t, reason),
	})
}

func (b *personaBuilder) dropLeaf(w pworld) {
	b.m.Leaves = append(b.m.Leaves, Leaf{
		Region:  w.region,
		Dropped: true,
		Trail:   joinTrail(w.trail),
		Inconcl: w.inconcl,
	})
}

// extWindow is the extracted-data proxy for a parse window: packet bits up
// to window bytes, zeros above (byte 0 anchored at the MSB end).
func (b *personaBuilder) extWindow(window int) []bitVal {
	ew := b.cfg.ExtractedWidth()
	out := make([]bitVal, ew)
	copy(out, inBits(0, window*8))
	return out
}

// ---- parse control ----

func (b *personaBuilder) parseStep(w pworld, iter int) {
	if iter > 40 {
		b.halt(w, "parse-control loop exceeded 40 resubmissions")
		return
	}
	if w.window > b.L {
		b.halt(w, fmt.Sprintf("parse window %d bytes overruns the %d-byte model", w.window, b.L))
		return
	}
	ext := b.extWindow(w.window)
	var negs []Cube
	for i := range b.v.Parse[w.state] {
		r := &b.v.Parse[w.state][i]
		if r.Err != nil {
			b.halt(w, r.Err.Error())
			return
		}
		cube, ok, top := matchBits(ext, r.Val, r.Mask)
		if top {
			b.halt(w, fmt.Sprintf("%s row %d keys on unmodelable bits", persona.TblParseCtrl, r.Entry.Handle))
			return
		}
		if !ok {
			continue
		}
		we := w
		var fits bool
		we.region, fits = w.region.constrain(cube)
		if fits {
			for _, n := range negs {
				we.region = we.region.subtract(n)
			}
			b.parseRow(we, r, iter)
		}
		negs = append(negs, cube)
	}
	// Parse-control miss: next_table stays Done, the virtual port stays
	// zero, and the virtual network drops the unclaimed packet.
	wm := w
	for _, n := range negs {
		wm.region = wm.region.subtract(n)
	}
	b.dropLeaf(wm.note("parse-ctrl miss"))
}

func (b *personaBuilder) parseRow(w pworld, r *rows.ParseRow, iter int) {
	if r.More {
		w.window = r.Window
		w.state = r.Next
		b.parseStep(w.note(fmt.Sprintf("parse more->%dB state %d", w.window, r.Next)), iter+1)
		return
	}
	w.ext = b.extWindow(w.window)
	w.wb = w.window
	w.kind = r.Kind
	w.slot = uint64(r.Slot)
	w.csum = r.Csum
	b.stageWalk(w.note(fmt.Sprintf("parse done %dB", w.window)), 1)
}

// ---- stage walk ----

func (b *personaBuilder) stageWalk(w pworld, stage int) {
	if w.kind == persona.NTDone || stage > b.cfg.Stages {
		b.finish(w)
		return
	}
	kindName := persona.KindName(w.kind)
	if kindName == "" {
		b.halt(w, fmt.Sprintf("unknown next-table code %d", w.kind))
		return
	}
	table := persona.StageTable(stage, kindName)
	var negs []Cube
	if s := b.v.Slot(stage, w.kind, int(w.slot)); s != nil {
		for i := range s.Rows {
			r := &s.Rows[i]
			if r.Err != nil {
				b.halt(w, r.Err.Error())
				return
			}
			cube, ok, top := b.stageMatch(w, r)
			if top {
				b.halt(w, fmt.Sprintf("%s row %d keys on unmodelable bits", table, r.Entry.Handle))
				return
			}
			if !ok {
				continue
			}
			we := w
			var fits bool
			we.region, fits = w.region.constrain(cube)
			if fits {
				for _, n := range negs {
					we.region = we.region.subtract(n)
				}
				b.stageHit(we.note(fmt.Sprintf("%s hit #%d", table, r.Entry.Handle)), stage, r)
			}
			negs = append(negs, cube)
		}
	}
	// A stage miss leaves next_table/next_slot untouched: the same virtual
	// table is retried at the next physical stage.
	wm := w
	for _, n := range negs {
		wm.region = wm.region.subtract(n)
	}
	b.stageWalk(wm, stage+1)
}

// stageMatch builds the region constraint for one stage row against the
// world's symbolic state.
func (b *personaBuilder) stageMatch(w pworld, r *rows.StageRow) (Cube, bool, bool) {
	switch w.kind {
	case persona.NTEDExact, persona.NTEDTernary:
		return matchBits(w.ext, r.Val, r.Mask)
	case persona.NTMetaExact, persona.NTMetaTernary:
		return matchBits(w.emeta, r.Val, r.Mask)
	case persona.NTStdMeta:
		vp := func(x uint64) bitfield.Value { return bitfield.FromUint(persona.VPortWidth, x) }
		c1, ok, top := matchBits(b.ving, vp(r.VinVal), vp(r.VinMask))
		if !ok || top {
			return Cube{}, ok, top
		}
		c2, ok, top := matchBits(w.vport, vp(r.VpVal), vp(r.VpMask))
		if !ok || top {
			return Cube{}, ok, top
		}
		cube, fits := c1.and(c2)
		return cube, fits, false
	}
	return trueCube(), true, false // matchless
}

// stageHit runs the row's decoded micro-ops, then moves to its successor.
func (b *personaBuilder) stageHit(w pworld, stage int, r *rows.StageRow) {
	for i := range r.Ops {
		if b.applyOp(&w, &r.Ops[i]) {
			// a_exec_drop is sticky: the packet bypasses the virtual
			// network no matter what runs afterwards.
			b.dropLeaf(w.note("virtual drop"))
			return
		}
	}
	w.kind = r.NextKind
	w.slot = uint64(r.NextSlot)
	b.stageWalk(w, stage+1)
}

// applyOp applies one decoded primitive to the world's symbolic fields and
// reports whether it virtually dropped the packet.
func (b *personaBuilder) applyOp(w *pworld, op *rows.Op) bool {
	store := func(s persona.Store) *[]bitVal {
		if s == persona.StoreMeta {
			return &w.emeta
		}
		return &w.ext
	}
	c := new(big.Int).SetUint64(op.Const)
	switch op.Code {
	case persona.OpDrop:
		w.vport = bigBits(big.NewInt(persona.VPortDrop), persona.VPortWidth)
		return true
	case persona.OpModVPortConst:
		w.vport = bigBits(c, persona.VPortWidth)
	case persona.OpModVPortVIngress:
		w.vport = b.ving
	case persona.OpModEDConst, persona.OpModMetaConst:
		dst := store(op.Dst)
		*dst = writeBits(*dst, op.DstOff, bigBits(c, op.DstW))
	case persona.OpModEDED, persona.OpModEDMeta, persona.OpModMetaED, persona.OpModMetaMeta:
		src, dst := *store(op.Src), store(op.Dst)
		*dst = writeBits(*dst, op.DstOff, resizeBits(src[op.SrcOff:op.SrcOff+op.SrcW], op.DstW))
	case persona.OpAddEDConst, persona.OpAddMetaConst:
		dst := store(op.Dst)
		cur := (*dst)[op.DstOff : op.DstOff+op.DstW]
		*dst = writeBits(*dst, op.DstOff, addBits(cur, c, "add on non-canonical base"))
	}
	return false
}

// ---- egress and finalization ----

// finish applies the checksum fix-up and splits the world by the virtual
// port's fate: 0 (unclaimed) and VPortDrop drop, anything else delivers.
func (b *personaBuilder) finish(w pworld) {
	if w.wb == 0 {
		// Parsing never completed; unreachable via parseRow, defensive.
		b.dropLeaf(w)
		return
	}
	if w.csum {
		var ok bool
		w, ok = b.applyCsum(w)
		if !ok {
			return
		}
	}
	pkt := make([]bitVal, 0, b.L*8)
	pkt = append(pkt, w.ext[:w.wb*8]...)
	pkt = append(pkt, inBits(w.wb*8, (b.L-w.wb)*8)...)

	vc, isConst := bitsConst(w.vport)
	if isConst {
		if vc.Sign() == 0 || vc.Int64() == persona.VPortDrop {
			b.dropLeaf(w.note("vport drop"))
			return
		}
		b.deliver(w, pkt)
		return
	}
	for _, dropVal := range []int64{0, persona.VPortDrop} {
		cube, ok, top := matchBig(w.vport, big.NewInt(dropVal), nil)
		if top {
			b.halt(w, "virtual port carries unmodelable bits")
			return
		}
		if !ok {
			continue
		}
		wd := w
		var fits bool
		wd.region, fits = w.region.constrain(cube)
		if fits {
			b.dropLeaf(wd.note(fmt.Sprintf("vport=%d drop", dropVal)))
		}
		w.region = w.region.subtract(cube)
	}
	b.deliver(w, pkt)
}

func (b *personaBuilder) deliver(w pworld, pkt []bitVal) {
	b.m.Leaves = append(b.m.Leaves, Leaf{
		Region:  w.region,
		Route:   resizeBits(w.vport, routeWidth),
		Pkt:     pkt,
		Trail:   joinTrail(w.trail),
		Inconcl: w.inconcl,
	})
}

// applyCsum replaces the checksum field with the canonical fix-up term at
// the te_csum row's decoded geometry.
func (b *personaBuilder) applyCsum(w pworld) (pworld, bool) {
	c := b.v.Csum
	if c == nil {
		// Flag set but no fix-up row installed: the checksum is simply not
		// recomputed. Row-driven decode keeps that observable.
		return w.note("csum flag set but no te_csum row"), true
	}
	if c.Err != nil {
		b.halt(w, c.Err.Error())
		return w, false
	}
	csumBit := c.Hdr + 80 // the IPv4 checksum is the header's sixth word
	w.ext = writeBits(w.ext, csumBit, opBits(16, csumKey(csumBit)))
	return w, true
}
