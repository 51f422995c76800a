package sim

import (
	"fmt"

	"hyper4/internal/bitfield"
	"hyper4/internal/p4/ast"
	"hyper4/internal/p4/hlir"
)

// headerState is the runtime state of one header instance element.
type headerState struct {
	valid bool
	value bitfield.Value
}

// packetState is all per-packet state for one pass through the pipeline:
// the raw packet, the parsed representation, and metadata. States are pooled
// (sync.Pool on the Switch) and hold dense slices indexed by the slot ids the
// layout assigned in New, so steady-state Process performs no per-packet map
// or header allocation.
type packetState struct {
	sw *Switch

	data     []byte // packet bytes as received for this pass
	consumed int    // bytes consumed by the parser

	headers []headerState // indexed by instInfo.headerBase+elem
	// stackNext tracks the parser's [next] cursor per stack instance.
	stackNext []int
	// latestSlot is the most recently extracted header element (-1 = none).
	latestSlot int

	// metadata values by slot (standard_metadata included).
	meta []bitfield.Value

	// end-of-pipeline requests raised by primitives.
	dropped         bool
	resubmitList    *fieldList // metadata to preserve; nil for none
	resubmitRaised  bool
	recircList      *fieldList
	recircRaised    bool
	cloneI2ESession int
	cloneI2ERaised  bool
	cloneE2ESession int
	cloneE2ERaised  bool
	truncateTo      int // 0 = no truncation

	shortExtract bool // parser ran past the end of the packet (zero-filled)
	inEgress     bool // executing the egress control
	quarVerdict  int8 // per-pass quarantine verdict cache (fault.go)

	// Reusable scratch, retained across pooled uses.
	keyBuf  []byte           // exact/LPM lookup key bytes
	keyVals []bitfield.Value // generic lookup key values
	scratch []byte           // parser extract staging
	selKeys []bitfield.Value // per-select-plan key scratch, indexed by plan id
	serBuf  []byte           // checksum field-list serialization
	// tmp holds the operands and results of the primitive running now.
	tmp [5]bitfield.Value
}

// newPacketState allocates a state with every slot's Value pre-sized; it is
// only called by the pool's New.
func newPacketState(sw *Switch) *packetState {
	lay := sw.lay
	ps := &packetState{
		sw:         sw,
		headers:    make([]headerState, lay.numHeaderSlots),
		stackNext:  make([]int, lay.numStacks),
		meta:       make([]bitfield.Value, lay.numMetaSlots),
		latestSlot: -1,
	}
	for i, ii := range lay.slots {
		ps.headers[i].value = bitfield.New(ii.width)
	}
	for i, ii := range lay.metaInsts {
		ps.meta[i] = bitfield.New(ii.width)
	}
	ps.selKeys = make([]bitfield.Value, sw.code.selects)
	for i := range sw.code.states {
		if sel := sw.code.states[i].sel; sel != nil && sel.plan != nil {
			ps.selKeys[sel.plan.id] = bitfield.New(sel.plan.total)
		}
	}
	return ps
}

// getState leases a reset state from the pool for a fresh pipeline pass.
func (sw *Switch) getState(data []byte, port int) *packetState {
	ps := sw.pool.Get().(*packetState)
	ps.data = data
	ps.consumed = 0
	for i := range ps.headers {
		ps.headers[i].valid = false
		ps.headers[i].value.Zero()
	}
	for i := range ps.stackNext {
		ps.stackNext[i] = 0
	}
	for i := range ps.meta {
		ps.meta[i].Zero()
	}
	ps.latestSlot = -1
	ps.clearPassFlags()
	ps.truncateTo = 0
	ps.shortExtract = false
	ps.inEgress = false
	ps.quarVerdict = quarUnchecked
	ps.setStdMeta(stdIngressPort, uint64(port))
	ps.setStdMeta(stdPacketLength, uint64(len(data)))
	// Deviation from the P4_14 zero-init rule: egress_spec starts at the
	// drop value so a packet that no table routes is dropped rather than
	// emitted on port 0.
	ps.setStdMeta(stdEgressSpec, hlir.DropSpec)
	return ps
}

// putState returns a state to the pool. The caller must not retain any
// reference into the state afterwards.
func (sw *Switch) putState(ps *packetState) {
	ps.data = nil
	sw.pool.Put(ps)
}

// clearPassFlags resets every end-of-pipeline request. Clone states clear
// these uniformly — an I2E or E2E clone must not inherit a drop, resubmit,
// recirculate, or further-clone request raised before the clone was taken.
func (ps *packetState) clearPassFlags() {
	ps.dropped = false
	ps.resubmitRaised = false
	ps.resubmitList = nil
	ps.recircRaised = false
	ps.recircList = nil
	ps.cloneI2ERaised = false
	ps.cloneI2ESession = 0
	ps.cloneE2ERaised = false
	ps.cloneE2ESession = 0
}

// slotOf resolves an instance + index to a concrete header slot, resolving
// [next] and [last] against parser state.
func (ps *packetState) slotOf(ii *instInfo, index int) (int, error) {
	elem := 0
	next := 0
	if ii.stackSlot >= 0 {
		next = ps.stackNext[ii.stackSlot]
	}
	switch {
	case index == ast.IndexNext:
		elem = next
	case index == ast.IndexLast:
		elem = next - 1
		if elem < 0 {
			return 0, fmt.Errorf("sim: [last] on %q before any extraction", ii.name)
		}
	case index >= 0:
		elem = index
	}
	if ii.inst.Decl.IsStack() && elem >= ii.count {
		return 0, fmt.Errorf("sim: stack %q element %d out of range", ii.name, elem)
	}
	return ii.headerBase + elem, nil
}

// slotFor resolves a compiled header reference to its slot.
func (ps *packetState) slotFor(h *hdrRef) (int, error) {
	if h.slot >= 0 {
		return h.slot, nil
	}
	if h.err != nil {
		return 0, h.err
	}
	return ps.slotOf(h.ii, h.index)
}

// fieldVal locates the Value holding a compiled field: the metadata value or
// the resolved header element's value.
func (ps *packetState) fieldVal(f *fieldRef) (*bitfield.Value, error) {
	switch {
	case f.slot >= 0:
		return &ps.headers[f.slot].value, nil
	case f.err != nil:
		return nil, f.err
	case f.loc.ii.metaSlot >= 0:
		return &ps.meta[f.loc.ii.metaSlot], nil
	}
	slot, err := ps.slotOf(f.loc.ii, f.index)
	if err != nil {
		return nil, err
	}
	return &ps.headers[slot].value, nil
}

// store writes v, which has f's width, into field f.
func (ps *packetState) store(f *fieldRef, v bitfield.Value) error {
	dst, err := ps.fieldVal(f)
	if err != nil {
		return err
	}
	dst.Insert(f.loc.off, v)
	return nil
}

// storeUint writes x, truncated to f's width, into field f.
func (ps *packetState) storeUint(f *fieldRef, x uint64) error {
	dst, err := ps.fieldVal(f)
	if err != nil {
		return err
	}
	if f.loc.width <= 64 {
		dst.InsertUint(f.loc.off, f.loc.width, x)
	} else {
		dst.Insert(f.loc.off, bitfield.FromUint(f.loc.width, x))
	}
	return nil
}

// stdMetaUint reads a standard metadata field as an integer without
// allocating.
func (ps *packetState) stdMetaUint(f stdField) uint64 {
	loc := &ps.sw.lay.std[f]
	return ps.meta[ps.sw.lay.stdSlot].UintAt(loc.off, loc.width)
}

func (ps *packetState) setStdMeta(f stdField, val uint64) {
	loc := &ps.sw.lay.std[f]
	ps.meta[ps.sw.lay.stdSlot].InsertUint(loc.off, loc.width, val)
}

// preservedField is one metadata value carried across a pass boundary.
type preservedField struct {
	f *fieldRef
	v bitfield.Value
}

// capturePreserved snapshots the metadata fields named by a field list, for
// resubmit/recirculate semantics. A nil list preserves nothing. Header
// fields are read (a reference that fails, fails the pass) but not kept:
// they are re-extracted from the wire bytes.
func (ps *packetState) capturePreserved(fl *fieldList) ([]preservedField, error) {
	if fl == nil {
		return nil, nil
	}
	var out []preservedField
	for i := range fl.items {
		f := fl.items[i].f
		src, err := ps.fieldVal(f)
		if err != nil {
			return nil, err
		}
		if f.loc.ii.metaSlot >= 0 {
			out = append(out, preservedField{f: f, v: src.Slice(f.loc.off, f.loc.width)})
		}
	}
	return out, nil
}

// restorePreserved writes captured metadata values into a fresh pass state.
func (ps *packetState) restorePreserved(fields []preservedField) {
	for _, p := range fields {
		ps.meta[p.f.loc.ii.metaSlot].Insert(p.f.loc.off, p.v)
	}
}

// cloneForEgress deep-copies the packet state for clone_i2e / clone_e2e into
// a pooled state with every end-of-pipeline flag cleared, so a clone can
// never inherit its parent's drop/resubmit/recirculate/clone requests.
func (ps *packetState) cloneForEgress() *packetState {
	out := ps.sw.pool.Get().(*packetState)
	out.data = append([]byte(nil), ps.data...)
	out.consumed = ps.consumed
	for i := range ps.headers {
		out.headers[i].valid = ps.headers[i].valid
		out.headers[i].value.CopyFrom(ps.headers[i].value)
	}
	copy(out.stackNext, ps.stackNext)
	for i := range ps.meta {
		out.meta[i].CopyFrom(ps.meta[i])
	}
	out.latestSlot = ps.latestSlot
	out.truncateTo = ps.truncateTo
	out.shortExtract = ps.shortExtract
	out.inEgress = false
	out.quarVerdict = quarUnchecked
	out.clearPassFlags()
	return out
}
