package sim

import (
	"fmt"
	"sort"

	"hyper4/internal/p4/ast"
	"hyper4/internal/p4/hlir"
)

// layout is the per-program dense indexing computed once in New: every
// header instance element and metadata instance gets a small integer slot, so
// packetState can hold plain slices instead of maps, and every (instance,
// field) pair resolves to a precomputed (slot, offset, width) triple. The
// compiler (compile.go) resolves every reference the program makes against
// it, so the packet path never consults the name-keyed maps below.
type layout struct {
	insts map[string]*instInfo
	// slots maps a header slot id back to its owning instance; element i of a
	// stack occupies slot headerBase+i.
	slots []*instInfo
	// metaInsts maps a metadata slot id back to its instance.
	metaInsts []*instInfo

	numHeaderSlots int
	numMetaSlots   int
	numStacks      int

	// fields resolves (instance, field) to its location. Complete: built for
	// every field of every instance up front.
	fields map[refKey]fieldLoc

	// Standard metadata, by stdField.
	stdSlot int
	std     [numStdFields]fieldLoc
}

// stdField names the standard metadata fields the switch itself reads and
// writes.
type stdField int

const (
	stdIngressPort stdField = iota
	stdPacketLength
	stdEgressSpec
	stdEgressPort
	stdInstanceType
	numStdFields
)

var stdFieldNames = [numStdFields]string{
	stdIngressPort:  hlir.FieldIngressPort,
	stdPacketLength: hlir.FieldPacketLength,
	stdEgressSpec:   hlir.FieldEgressSpec,
	stdEgressPort:   hlir.FieldEgressPort,
	stdInstanceType: hlir.FieldInstanceType,
}

// instInfo is the resolved placement of one instance.
type instInfo struct {
	name  string
	inst  *hlir.Instance
	width int // element width in bits

	metaSlot   int // slot in packetState.meta, or -1 for headers
	headerBase int // first slot in packetState.headers, or -1 for metadata
	count      int // stack element count (1 for scalars)
	stackSlot  int // slot in packetState.stackNext, or -1 for non-stacks
}

// refKey identifies a field by instance and field name.
type refKey struct {
	inst  string
	field string
}

// fieldLoc is a resolved field location: which instance, and the bit offset
// and width inside one element's value.
type fieldLoc struct {
	ii    *instInfo
	off   int
	width int
}

// hdrRef is a compiled header reference. When the element it names is the
// same on every packet, slot holds it; otherwise (stack [next]/[last], and
// references that can only fail per packet) slotOf resolves ii and index
// against the parser state. err is a resolution failure, reported when a
// packet reaches the reference.
type hdrRef struct {
	slot  int
	index int
	ii    *instInfo
	err   error
}

// fieldRef is a compiled field reference: its location, plus the header
// element selection for header fields (slot and index as in hdrRef).
type fieldRef struct {
	loc   fieldLoc
	slot  int
	index int
	err   error
}

func newLayout(prog *hlir.Program) *layout {
	lay := &layout{
		insts:  map[string]*instInfo{},
		fields: map[refKey]fieldLoc{},
	}
	// Deterministic slot assignment: headers in deparse order first, then any
	// instance not in HeaderOrder, then metadata sorted by name via the
	// Instances map — determinism only matters for reproducible debugging, so
	// assign metadata in HeaderOrder-then-name order too.
	assigned := map[string]bool{}
	assign := func(name string) {
		if assigned[name] {
			return
		}
		assigned[name] = true
		inst := prog.Instances[name]
		ii := &instInfo{
			name:       name,
			inst:       inst,
			width:      inst.Width(),
			metaSlot:   -1,
			headerBase: -1,
			count:      1,
			stackSlot:  -1,
		}
		if inst.Decl.Metadata {
			ii.metaSlot = lay.numMetaSlots
			lay.numMetaSlots++
			lay.metaInsts = append(lay.metaInsts, ii)
		} else {
			if inst.Decl.IsStack() {
				ii.count = inst.Decl.Count
				ii.stackSlot = lay.numStacks
				lay.numStacks++
			}
			ii.headerBase = lay.numHeaderSlots
			lay.numHeaderSlots += ii.count
			for e := 0; e < ii.count; e++ {
				lay.slots = append(lay.slots, ii)
			}
		}
		lay.insts[name] = ii
		for _, f := range inst.Type.Fields {
			off, _ := inst.Type.FieldOffset(f.Name)
			lay.fields[refKey{name, f.Name}] = fieldLoc{ii: ii, off: off, width: f.Width}
		}
	}
	for _, name := range prog.HeaderOrder {
		assign(name)
	}
	// Remaining instances (metadata, and headers never deparsed) in sorted
	// order for determinism.
	rest := make([]string, 0, len(prog.Instances))
	for name := range prog.Instances {
		if !assigned[name] {
			rest = append(rest, name)
		}
	}
	sort.Strings(rest)
	for _, name := range rest {
		assign(name)
	}

	lay.stdSlot = lay.insts[hlir.StandardMetadata].metaSlot
	for f, name := range stdFieldNames {
		lay.std[f] = lay.fields[refKey{hlir.StandardMetadata, name}]
	}
	return lay
}

// fieldLoc resolves a field reference against the precomputed index.
func (lay *layout) fieldLoc(ref ast.FieldRef) (fieldLoc, error) {
	loc, ok := lay.fields[refKey{ref.Instance, ref.Field}]
	if !ok {
		if _, known := lay.insts[ref.Instance]; !known {
			return fieldLoc{}, fmt.Errorf("sim: unknown instance %q", ref.Instance)
		}
		return fieldLoc{}, fmt.Errorf("sim: %s has no field %q", ref.Instance, ref.Field)
	}
	return loc, nil
}

// hdrRef compiles a header reference.
func (lay *layout) hdrRef(ref ast.HeaderRef) hdrRef {
	ii, ok := lay.insts[ref.Instance]
	if !ok {
		return hdrRef{slot: -1, err: fmt.Errorf("sim: unknown instance %q", ref.Instance)}
	}
	return hdrRef{slot: staticSlot(ii, ref.Index), index: ref.Index, ii: ii}
}

// fieldRef compiles a field reference.
func (lay *layout) fieldRef(ref ast.FieldRef) fieldRef {
	loc, err := lay.fieldLoc(ref)
	if err != nil {
		return fieldRef{slot: -1, err: err}
	}
	return fieldRef{loc: loc, slot: staticSlot(loc.ii, ref.Index), index: ref.Index}
}

// hdr compiles a header reference to a new shared reference.
func (lay *layout) hdr(ref ast.HeaderRef) *hdrRef {
	h := lay.hdrRef(ref)
	return &h
}

// field compiles a field reference to a new shared reference.
func (lay *layout) field(ref ast.FieldRef) *fieldRef {
	f := lay.fieldRef(ref)
	return &f
}

// staticSlot returns the header slot an (instance, index) reference names on
// every packet, or -1 when the element depends on parser state, when the
// reference can fail, or for metadata (which has no header slot).
func staticSlot(ii *instInfo, index int) int {
	switch {
	case ii.metaSlot >= 0:
		return -1
	case ii.stackSlot < 0:
		// A scalar's [next] is element 0 too; [last] fails before any
		// extraction and a nonzero index is left to slotOf, as before.
		if index == ast.IndexNone || index == ast.IndexNext || index == 0 {
			return ii.headerBase
		}
		return -1
	case index >= 0 && index < ii.count:
		return ii.headerBase + index
	}
	return -1
}
