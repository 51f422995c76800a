package dpmu

import (
	"errors"
	"fmt"
	"math/big"
	"sort"

	"hyper4/internal/bitfield"
	"hyper4/internal/core/hp4c"
	"hyper4/internal/core/persona"
	"hyper4/internal/core/persona/rows"
	"hyper4/internal/core/verify"
	"hyper4/internal/p4/ast"
	"hyper4/internal/p4/hlir"
	"hyper4/internal/sim"
)

// Priority scheme: rows from more-constrained parse paths must beat rows
// from less-constrained ones, so a TCP packet prefers the tcp-path replica
// of an entry over the generic-IP replica. Within a path band, user ternary
// priorities and LPM prefix lengths order rows, and the per-slot catch-all
// sits at the bottom of the band.
const (
	pathBand     = 100000
	maxPathDepth = 32
	catchAllOff  = pathBand - 10
)

func pathBase(p *hp4c.ParsePath) int {
	depth := len(p.Constraints)
	if depth > maxPathDepth {
		depth = maxPathDepth
	}
	return (maxPathDepth - depth) * pathBand
}

// wideFromConstraints folds ternary constraints into an existing value/mask
// pair over a wide field.
func wideFromConstraints(value, mask bitfield.Value, cons []hp4c.Constraint) (bitfield.Value, bitfield.Value) {
	for _, c := range cons {
		v := bitfield.FromBig(c.Width, c.Value)
		m := bitfield.Ones(c.Width)
		if c.Mask != nil {
			m = bitfield.FromBig(c.Width, c.Mask)
		}
		// Only masked bits participate.
		value.Insert(c.BitOff, v.And(m))
		cur := mask.Slice(c.BitOff, c.Width)
		mask.Insert(c.BitOff, cur.Or(m))
	}
	return value, mask
}

// installStatic installs a device's parse-control rows, virtual-network drop
// rows, and checksum row.
func (d *DPMU) installStatic(v *VDev) error {
	ew := d.cfg.ExtractedWidth()
	pid := bitfield.FromUint(persona.ProgramWidth, uint64(v.PID))
	for _, pe := range v.Comp.ParseEntries {
		value, mask := wideFromConstraints(bitfield.New(ew), bitfield.New(ew), pe.Constraints)
		params := []sim.MatchParam{
			sim.Exact(pid),
			sim.ExactUint(persona.StateWidth, uint64(pe.State)),
			sim.Ternary(value, mask),
		}
		if pe.More {
			args := []bitfield.Value{
				bitfield.FromUint(persona.NumBytesWidth, uint64(pe.NumBytes)),
				bitfield.FromUint(persona.StateWidth, uint64(pe.NextState)),
			}
			if err := d.addRow(&v.static, persona.TblParseCtrl, persona.ActParseMore, params, args, pe.Priority); err != nil {
				return err
			}
			continue
		}
		csum := uint64(0)
		if pe.Path.Csum {
			csum = 1
		}
		args := []bitfield.Value{
			bitfield.FromUint(persona.NextTblWidth, uint64(pe.Path.First.Kind)),
			bitfield.FromUint(persona.SlotWidth, uint64(pe.Path.First.ID)),
			bitfield.FromUint(8, csum),
		}
		if err := d.addRow(&v.static, persona.TblParseCtrl, persona.ActParseDone, params, args, pe.Priority); err != nil {
			return err
		}
	}
	// Virtual drops: an unset virtual egress port (0) and an explicit
	// virtual drop (VPortDrop) both drop.
	for _, vp := range []uint64{0, persona.VPortDrop} {
		params := []sim.MatchParam{sim.Exact(pid), sim.ExactUint(persona.VPortWidth, vp)}
		if err := d.addRow(&v.static, persona.TblVirtnet, persona.ActVDrop, params, nil, 0); err != nil {
			return err
		}
	}
	// Every slot gets a catch-all miss row: it runs the table's declared
	// default action (zero-argument defaults only; others need SetDefault)
	// or nothing, and — critically — primes next_table/next_slot so a miss
	// falls through to the correct successor stage. Tables are visited in
	// sorted order so match IDs are minted deterministically: two switches
	// loaded and populated by the same op sequence dump bit-identically,
	// which the local/remote parity and bench tests rely on.
	tables := make([]string, 0, len(v.Comp.Slots))
	for table := range v.Comp.Slots {
		tables = append(tables, table)
	}
	sort.Strings(tables)
	for _, table := range tables {
		slots := v.Comp.Slots[table]
		if len(slots) == 0 {
			continue
		}
		ca := &hp4c.CompiledAction{Name: "(fall-through)"}
		if ma := slots[0].MissAction; ma != "" {
			if compiled := v.Comp.Actions[ma]; compiled != nil && len(compiled.Params) == 0 {
				ca = compiled
			}
		}
		var rows []pentry
		for _, slot := range slots {
			prio := pathBase(slot.Path) + catchAllOff
			if err := d.installSlotRow(v, slot, ca, nil, prio, slot.Miss, &rows); err != nil {
				return err
			}
		}
		v.defaults[table] = rows
	}
	if v.Comp.NeedsIPv4Csum {
		hoff := v.Comp.HeaderOffsets[v.Comp.CsumHeader]
		csumBit := hoff*8 + 80
		ncmask := bitfield.MaskRange(ew, csumBit, 16).Not()
		args := []bitfield.Value{
			ncmask,
			bitfield.FromUint(persona.ShiftWidth, uint64(ew-hoff*8-16)),
			bitfield.FromUint(persona.ShiftWidth, uint64(ew-csumBit-16)),
		}
		if err := d.addRow(&v.static, persona.TblCsum, persona.ActIPv4Csum, []sim.MatchParam{sim.Exact(pid)}, args, 0); err != nil {
			return err
		}
	}
	return nil
}

// EntrySpec is one virtual table entry, as both TableAdd and TableModify
// accept it: the table and action names in the emulated program's dialect,
// the match parameters lining up with the table's reads, the action
// arguments lining up with the action's parameters, and a bmv2-style
// priority (lower wins) for ternary/LPM tables.
type EntrySpec struct {
	Table    string           `json:"table"`
	Action   string           `json:"action"`
	Params   []sim.MatchParam `json:"params,omitempty"`
	Args     []bitfield.Value `json:"args,omitempty"`
	Priority int              `json:"priority,omitempty"`
}

// resolveSpec holds an EntrySpec to the entry contract (sim.CheckEntry and
// sim.CheckPriority) and to the DPMU's own rule, a table some parse path
// reaches (hp4c gave it slots), and returns the table declaration and
// compiled action it names.
func resolveSpec(v *VDev, spec EntrySpec) (*ast.Table, *hp4c.CompiledAction, error) {
	err := sim.CheckEntry(v.Comp.Prog, spec.Table, spec.Action, spec.Params, len(spec.Args))
	if err == nil {
		err = sim.CheckPriority(spec.Priority)
	}
	if err != nil {
		return nil, nil, contractErr(err)
	}
	if len(v.Comp.Slots[spec.Table]) == 0 {
		return nil, nil, fmt.Errorf("dpmu: program %s reaches table %q on no parse path: %w", v.Comp.Name, spec.Table, ErrNotFound)
	}
	return v.Comp.Prog.Tables[spec.Table], v.Comp.Actions[spec.Action], nil
}

// contractErr classifies an entry-contract error: an undeclared table or
// action is ErrNotFound, any other breach ErrInvalid.
func contractErr(err error) error {
	if ee := (*sim.EntryError)(nil); errors.As(err, &ee) && ee.Undeclared() {
		return fmt.Errorf("dpmu: %w: %w", err, ErrNotFound)
	}
	return fmt.Errorf("dpmu: %w: %w", err, ErrInvalid)
}

// installSpec installs the stage-replica rows realizing one EntrySpec.
func (d *DPMU) installSpec(v *VDev, tbl *ast.Table, ca *hp4c.CompiledAction, spec EntrySpec, rows *[]pentry) error {
	for _, slot := range v.Comp.Slots[spec.Table] {
		if !verify.SlotAccepts(tbl, slot, spec.Params) {
			continue
		}
		if err := d.installReplica(v, slot, tbl, ca, spec.Params, spec.Args, spec.Priority, rows); err != nil {
			return err
		}
	}
	if len(*rows) == 0 {
		return fmt.Errorf("dpmu: entry matches no parse path of table %q: %w", spec.Table, ErrInvalid)
	}
	return nil
}

// TableAdd installs one virtual entry: the match is replicated into every
// stage slot of the target table (with the slot's parse-path constraints
// folded in), and each replica gets a fresh match ID plus the primitive-spec
// rows realizing the bound action.
func (t *Tx) TableAdd(owner, vdev string, spec EntrySpec) (int, error) {
	d := t.d
	v, err := d.auth(owner, vdev)
	if err != nil {
		return 0, err
	}
	if v.Quota > 0 && len(v.entries) >= v.Quota {
		return 0, fmt.Errorf("dpmu: virtual device %q exceeds its quota of %d entries: %w", vdev, v.Quota, ErrExhausted)
	}
	tbl, ca, err := resolveSpec(v, spec)
	if err != nil {
		return 0, err
	}
	e := &ventry{Table: spec.Table, Spec: spec}
	if err := d.installSpec(v, tbl, ca, spec, &e.Rows); err != nil {
		return 0, err
	}
	e.Handle = d.newID(&v.nextHandle)
	keep(d.tx, v.entries, e.Handle)
	v.entries[e.Handle] = e
	return e.Handle, nil
}

// TableDelete removes a virtual entry.
func (t *Tx) TableDelete(owner, vdev, table string, handle int) error {
	d := t.d
	v, err := d.auth(owner, vdev)
	if err != nil {
		return err
	}
	e, ok := v.entries[handle]
	if !ok || e.Table != table {
		return fmt.Errorf("dpmu: device %s table %s has no entry %d: %w", vdev, table, handle, ErrNotFound)
	}
	d.removeRows(e.Rows)
	keep(d.tx, v.entries, handle)
	delete(v.entries, handle)
	return nil
}

// TableModify rebinds an existing virtual entry to a new action (or new
// action arguments), preserving the virtual handle: new rows under fresh
// match IDs replace the old rows. The write holds the switch's write lock,
// so packets see the old rows or the new ones.
func (t *Tx) TableModify(owner, vdev string, handle int, spec EntrySpec) error {
	d := t.d
	v, err := d.auth(owner, vdev)
	if err != nil {
		return err
	}
	e, ok := v.entries[handle]
	if !ok || e.Table != spec.Table {
		return fmt.Errorf("dpmu: device %s table %s has no entry %d: %w", vdev, spec.Table, handle, ErrNotFound)
	}
	tbl, ca, err := resolveSpec(v, spec)
	if err != nil {
		return err
	}
	fresh := &ventry{Handle: handle, Table: spec.Table, Spec: spec}
	if err := d.installSpec(v, tbl, ca, spec, &fresh.Rows); err != nil {
		return err
	}
	d.removeRows(e.Rows)
	keep(d.tx, v.entries, handle)
	v.entries[handle] = fresh
	return nil
}

// SetDefault binds a table's miss behavior: one catch-all row per slot,
// below every real entry of that slot's path band.
func (t *Tx) SetDefault(owner, vdev, table, action string, args []bitfield.Value) error {
	d := t.d
	v, err := d.auth(owner, vdev)
	if err != nil {
		return err
	}
	if err := sim.CheckAction(v.Comp.Prog, table, action, len(args)); err != nil {
		return contractErr(err)
	}
	slots, ok := v.Comp.Slots[table]
	if !ok {
		return fmt.Errorf("dpmu: program %s reaches table %q on no parse path: %w", v.Comp.Name, table, ErrNotFound)
	}
	ca := v.Comp.Actions[action]
	d.removeRows(v.defaults[table])
	var rows []pentry
	for _, slot := range slots {
		if slot.MissAction != "" && slot.MissAction != action {
			return fmt.Errorf("dpmu: table %s compiled with default %q; cannot set %q (successor stages differ): %w", table, slot.MissAction, action, ErrInvalid)
		}
		prio := pathBase(slot.Path) + catchAllOff
		if err := d.installSlotRow(v, slot, ca, args, prio, slot.Miss, &rows); err != nil {
			return err
		}
	}
	keep(d.tx, v.defaults, table)
	keep(d.tx, v.defSpecs, table)
	v.defaults[table] = rows
	v.defSpecs[table] = EntrySpec{Table: table, Action: action, Args: args}
	return nil
}

// installReplica installs the match row + primitive rows for one slot.
func (d *DPMU) installReplica(v *VDev, slot *hp4c.Slot, tbl *ast.Table, ca *hp4c.CompiledAction, params []sim.MatchParam, args []bitfield.Value, priority int, rows *[]pentry) error {
	next, ok := slot.Next[ca.Name]
	if !ok {
		return fmt.Errorf("dpmu: table %s stage %d has no successor for action %s", slot.Table, slot.Stage, ca.Name)
	}
	matchParams, extraPrio, err := d.matchFor(v, slot, tbl, params)
	if err != nil {
		return err
	}
	prio := pathBase(slot.Path) + priority + extraPrio
	return d.installRow(v, slot, ca, matchParams, args, prio, next, rows)
}

// installSlotRow installs a catch-all (miss) row for a slot.
func (d *DPMU) installSlotRow(v *VDev, slot *hp4c.Slot, ca *hp4c.CompiledAction, args []bitfield.Value, prio int, next hp4c.Succ, rows *[]pentry) error {
	pid := bitfield.FromUint(persona.ProgramWidth, uint64(v.PID))
	slotID := bitfield.FromUint(persona.SlotWidth, uint64(slot.ID))
	ew := d.cfg.ExtractedWidth()
	var matchParams []sim.MatchParam
	switch slot.Kind {
	case persona.NTEDExact, persona.NTEDTernary:
		value, mask := wideFromConstraints(bitfield.New(ew), bitfield.New(ew), slot.Path.Constraints)
		matchParams = []sim.MatchParam{sim.Exact(pid), sim.Exact(slotID), sim.Ternary(value, mask)}
	case persona.NTMetaExact, persona.NTMetaTernary:
		matchParams = []sim.MatchParam{sim.Exact(pid), sim.Exact(slotID), sim.Ternary(bitfield.New(persona.MetaWidth), bitfield.New(persona.MetaWidth))}
	case persona.NTStdMeta:
		z := bitfield.New(persona.VPortWidth)
		matchParams = []sim.MatchParam{sim.Exact(pid), sim.Exact(slotID), sim.Ternary(z, z.Clone()), sim.Ternary(z.Clone(), z.Clone())}
	case persona.NTMatchless:
		matchParams = []sim.MatchParam{sim.Exact(pid), sim.Exact(slotID)}
	default:
		return fmt.Errorf("dpmu: bad slot kind %d", slot.Kind)
	}
	return d.installRow(v, slot, ca, matchParams, args, prio, next, rows)
}

// installRow adds the a_set_match row and the per-primitive prep rows.
func (d *DPMU) installRow(v *VDev, slot *hp4c.Slot, ca *hp4c.CompiledAction, matchParams []sim.MatchParam, args []bitfield.Value, prio int, next hp4c.Succ, rows *[]pentry) error {
	mid := d.newID(&d.nextMatchID)
	stageTable := persona.StageTable(slot.Stage, persona.KindName(slot.Kind))
	setArgs := []bitfield.Value{
		bitfield.FromUint(persona.MatchIDWidth, uint64(mid)),
		bitfield.FromUint(persona.PrimWidth, uint64(len(ca.Prims))),
		bitfield.FromUint(persona.NextTblWidth, uint64(next.Kind)),
		bitfield.FromUint(persona.SlotWidth, uint64(next.ID)),
	}
	if err := d.addRow(rows, stageTable, persona.ActSetMatch, matchParams, setArgs, prio); err != nil {
		return err
	}
	(*rows)[len(*rows)-1].Match = true
	pid := bitfield.FromUint(persona.ProgramWidth, uint64(v.PID))
	midVal := bitfield.FromUint(persona.MatchIDWidth, uint64(mid))
	for p, spec := range ca.Prims {
		prepTable := persona.PrimTable(slot.Stage, p+1, "prep")
		prepAction, prepArgs, err := d.prepFor(spec, args)
		if err != nil {
			return err
		}
		prepParams := []sim.MatchParam{sim.Exact(pid), sim.Exact(midVal)}
		if err := d.addRow(rows, prepTable, prepAction, prepParams, prepArgs, 0); err != nil {
			return err
		}
	}
	return nil
}

// matchFor translates the virtual match params into the slot's persona
// match params, folding in parse-path constraints. The extra priority is
// hp4c.PrefixPriority: LPM prefix lengths (§5.3's second option: "use
// ternary matching, but have the DPMU identify and manage the priorities of
// match entries").
func (d *DPMU) matchFor(v *VDev, slot *hp4c.Slot, tbl *ast.Table, params []sim.MatchParam) ([]sim.MatchParam, int, error) {
	pid := bitfield.FromUint(persona.ProgramWidth, uint64(v.PID))
	ew := d.cfg.ExtractedWidth()
	switch slot.Kind {
	case persona.NTEDExact, persona.NTEDTernary, persona.NTMetaExact, persona.NTMetaTernary:
		width := ew
		isMeta := slot.Kind == persona.NTMetaExact || slot.Kind == persona.NTMetaTernary
		if isMeta {
			width = persona.MetaWidth
		}
		value, mask := bitfield.New(width), bitfield.New(width)
		if !isMeta {
			value, mask = wideFromConstraints(value, mask, slot.Path.Constraints)
		}
		for i, r := range tbl.Reads {
			if r.Match == ast.MatchValid {
				continue // folded into the path constraints
			}
			off, w, err := d.readGeometry(v, *r.Field, isMeta)
			if err != nil {
				return nil, 0, err
			}
			p := params[i]
			switch p.Kind {
			case ast.MatchExact:
				value.Insert(off, p.Value.Resize(w))
				mask.Insert(off, bitfield.Ones(w))
			case ast.MatchTernary:
				value.Insert(off, p.Value.And(p.Mask).Resize(w))
				mask.Insert(off, p.Mask.Resize(w))
			case ast.MatchLPM:
				m := bitfield.New(w)
				if p.PrefixLen > 0 {
					m = bitfield.MaskRange(w, 0, p.PrefixLen)
				}
				value.Insert(off, p.Value.And(m).Resize(w))
				mask.Insert(off, m)
			}
		}
		extraPrio := 0
		if !d.skewLPM {
			extraPrio = hp4c.PrefixPriority(v.Comp.Prog, tbl, params)
		}
		return []sim.MatchParam{sim.Exact(pid), sim.Exact(bitfield.FromUint(persona.SlotWidth, uint64(slot.ID))), sim.Ternary(value, mask)}, extraPrio, nil

	case persona.NTStdMeta:
		ving := sim.Ternary(bitfield.New(persona.VPortWidth), bitfield.New(persona.VPortWidth))
		vport := sim.Ternary(bitfield.New(persona.VPortWidth), bitfield.New(persona.VPortWidth))
		for i, r := range tbl.Reads {
			p := params[i]
			val, m := p.Value, p.Mask
			if p.Kind == ast.MatchExact {
				m = bitfield.Ones(val.Width())
			}
			tp := sim.Ternary(val.Resize(persona.VPortWidth), m.Resize(persona.VPortWidth))
			switch r.Field.Field {
			case hlir.FieldIngressPort:
				ving = tp
			case hlir.FieldEgressPort, hlir.FieldEgressSpec:
				vport = tp
			default:
				return nil, 0, fmt.Errorf("dpmu: standard_metadata.%s not emulatable", r.Field.Field)
			}
		}
		return []sim.MatchParam{sim.Exact(pid), sim.Exact(bitfield.FromUint(persona.SlotWidth, uint64(slot.ID))), ving, vport}, 0, nil

	}
	return nil, 0, fmt.Errorf("dpmu: bad slot kind %d", slot.Kind)
}

// readGeometry locates a read field within the extracted or emeta field.
func (d *DPMU) readGeometry(v *VDev, ref ast.FieldRef, wantMeta bool) (int, int, error) {
	prog := v.Comp.Prog
	inst := prog.Instances[ref.Instance]
	fOff, _ := inst.Type.FieldOffset(ref.Field)
	w := inst.Type.Field(ref.Field).Width
	if inst.Decl.Metadata {
		if !wantMeta {
			return 0, 0, fmt.Errorf("dpmu: metadata read %s.%s in packet-data slot", ref.Instance, ref.Field)
		}
		base, ok := v.Comp.MetaOffsets[ref.Instance]
		if !ok {
			return 0, 0, fmt.Errorf("dpmu: metadata %q not laid out", ref.Instance)
		}
		return base + fOff, w, nil
	}
	if wantMeta {
		return 0, 0, fmt.Errorf("dpmu: packet read %s.%s in metadata slot", ref.Instance, ref.Field)
	}
	base, ok := v.Comp.HeaderOffsets[ref.Instance]
	if !ok {
		return 0, 0, fmt.Errorf("dpmu: header %q never extracted", ref.Instance)
	}
	return base*8 + fOff, w, nil
}

// prepFor materializes the a_prep_* action name and arguments for one
// primitive spec, binding runtime action args. The row format — the
// persona's double-shift isolation scheme — belongs to the row model
// (rows.EncodePrep), which also decodes it.
func (d *DPMU) prepFor(spec hp4c.PrimSpec, args []bitfield.Value) (string, []bitfield.Value, error) {
	oc, ok := persona.OpcodeOf(spec.Op)
	if !ok {
		return "", nil, fmt.Errorf("dpmu: opcode %d not installable", spec.Op)
	}
	op := rows.Op{Code: spec.Op, DstOff: spec.DstOff, DstW: spec.DstW, SrcOff: spec.SrcOff, SrcW: spec.SrcW}
	if oc.HasConst() {
		switch {
		case spec.Const != nil:
			op.Const = bitfield.FromBig(persona.ConstWidth, spec.Const).Uint64()
		case spec.ArgIndex < 0 || spec.ArgIndex >= len(args):
			return "", nil, fmt.Errorf("dpmu: primitive needs action argument %d", spec.ArgIndex)
		default:
			v := args[spec.ArgIndex].Resize(persona.ConstWidth)
			if spec.Negate {
				mod := new(big.Int).Lsh(big.NewInt(1), uint(spec.DstW))
				x := new(big.Int).Sub(mod, v.Big())
				v = bitfield.FromBig(persona.ConstWidth, x.Mod(x, mod))
			}
			op.Const = v.Uint64()
		}
	}
	return rows.EncodePrep(op, d.cfg.ExtractedWidth())
}
