// Package rows is the one decoder of the persona's installed table rows
// (DESIGN.md §13.1, §16.1). Load reads every persona table a decode needs
// once; VDev inverts one virtual device's rows into a model: parse rows per
// parse state, stage rows per virtual table with their micro-op lists, the
// checksum geometry, and the virtual-network routes. The fused fast path
// (internal/core/fuse) builds its plans from the model and the equivalence
// prover (internal/core/verify/prove) walks it symbolically, so the two can
// never disagree about what a row means.
//
// A row that fails to decode stays in the model with an *Error naming the
// offending table and handle; it is never dropped. Where fuse and prove
// once decoded the same rows with different rules, the stricter rule is the
// one here. Limits of one executor (fuse's 64-bit adder, one stage per
// slot) are not decode rules and stay with that executor.
package rows

import (
	"fmt"

	"hyper4/internal/bitfield"
	"hyper4/internal/core/persona"
	"hyper4/internal/sim"
)

// Match kinds as sim.MatchParam carries them.
const (
	exact   = "exact"
	ternary = "ternary"
)

// Source supplies live table state; *sim.Switch satisfies it.
type Source interface {
	TableEntriesOrdered(name string) ([]*sim.Entry, error)
}

// Error is a row that failed to decode: a row of Table with Handle, or —
// with Handle 0 — a row of Table the decode needed and did not find.
type Error struct {
	Table  string
	Handle int
	Detail string
}

func (e *Error) Error() string {
	if e.Handle == 0 {
		return fmt.Sprintf("%s: %s", e.Table, e.Detail)
	}
	return fmt.Sprintf("%s row %d: %s", e.Table, e.Handle, e.Detail)
}

// Key is a row's match key: a premasked (Val, Mask) pair over a wide field
// (the parse window, extracted data, or emulated metadata), or the
// premasked (vingress, vport) pair of a stdmeta row. A matchless row leaves
// it zero and matches everything.
type Key struct {
	Val, Mask                      bitfield.Value
	VinVal, VinMask, VpVal, VpMask uint64
}

// ParseRow is one t_parse_ctrl row: a_parse_more resubmits for Window bytes
// into parse state Next; a_parse_done starts the stage walk at (Kind, Slot).
type ParseRow struct {
	Key
	Entry  *sim.Entry
	More   bool
	Bytes  int // a_parse_more: the byte count the row requests
	Window int // a_parse_more: Bytes if the parser supports it, else its default
	Next   uint64
	Kind   int // a_parse_done: first stage's next-table code
	Slot   int
	Csum   bool // a_parse_done: arm the te_csum fix-up
	Err    *Error
}

// Slot is one virtual table's rows in one persona stage table.
type Slot struct {
	Stage, Kind, ID int
	Rows            []StageRow // match precedence order
}

// StageRow is one a_set_match row: its key, its successor, and the
// micro-op sequence its match ID binds.
type StageRow struct {
	Key
	Entry              *sim.Entry
	NextKind, NextSlot int
	Ops                []Op
	Err                *Error
}

// Op is one primitive: the opcode, the geometry of its destination and
// source within their stores, its constant, and the prep and exec rows the
// persona hits running it. An add's source is its destination.
type Op struct {
	Code         int
	Dst, Src     persona.Store
	DstOff, DstW int
	SrcOff, SrcW int
	Const        uint64
	Prep, Exec   *sim.Entry
}

// Csum is the te_csum row: Hdr is the IPv4 header's bit offset within the
// extracted data (its checksum word sits 80 bits further).
type Csum struct {
	Entry *sim.Entry
	Hdr   int
	Err   *Error
}

// Route kinds.
const (
	RouteDrop  = iota // a_vdrop
	RoutePhys         // a_phys_fwd: out physical Port
	RouteVirt         // a_virt_fwd: recirculate into (PID, VIn)
	RouteMcast        // a_mcast_start: the §4.6 clone-and-recirculate fan-out
)

// Route is one t_virtnet row. A RouteMcast row's clone sequence (its
// te_mcast_orig and te_mcast_clone rows) is not decoded: only the
// interpreter runs multicast.
type Route struct {
	Entry *sim.Entry
	VPort uint64
	Kind  int
	Port  int
	PID   int
	VIn   uint64
	Err   *Error
}

// Assign is one t_assign row: physical ports p with p&Mask == Val enter
// virtual device PID at virtual ingress VIngress.
type Assign struct {
	Entry     *sim.Entry
	Val, Mask uint64
	PID       int
	VIngress  uint64
	Err       *Error
}

// VDev is one virtual device's decoded rows.
type VDev struct {
	PID    int
	Parse  map[uint64][]ParseRow // by parse state, each in precedence order
	Slots  []*Slot               // by stage, then kind, then first row
	Csum   *Csum                 // nil: no te_csum row
	Routes []Route               // t_virtnet, precedence order
	Errs   []*Error              // every row above that failed to decode

	slots map[[3]int]*Slot
}

// Slot returns the rows of virtual table (kind, id) in persona stage
// stage, or nil.
func (v *VDev) Slot(stage, kind, id int) *Slot { return v.slots[[3]int{stage, kind, id}] }

func (v *VDev) fail(table string, handle int, format string, args ...any) *Error {
	err := &Error{Table: table, Handle: handle, Detail: fmt.Sprintf(format, args...)}
	v.Errs = append(v.Errs, err)
	return err
}

// Tables is every persona table a decode reads, loaded once.
type Tables struct {
	cfg    persona.Config
	counts []int // the parser's supported byte counts
	// Norm, Resize and Writeback are the persona-static rows by the byte
	// count they serve.
	Norm, Resize, Writeback map[int]*sim.Entry
	Assign                  []Assign // precedence order

	parse, virtnet, csum []*sim.Entry
	stages               [][][]*sim.Entry // [stage][persona.StageKinds index]
	stageNames           [][]string
	prepNames, execNames [][]string // [stage][prim]
	preps                map[uint64]*sim.Entry
	dupPreps             map[uint64]bool
	execs                map[uint64]*sim.Entry
}

func prepKey(stage, prim int, pid, mid uint64) uint64 {
	return uint64(stage)<<56 | uint64(prim)<<48 | pid<<32 | mid
}

func execKey(stage, prim, code int) uint64 {
	return uint64(stage)<<24 | uint64(prim)<<16 | uint64(code)
}

// Load reads every persona table the decoder needs from src.
func Load(src Source, cfg persona.Config) (*Tables, error) {
	t := &Tables{
		cfg:       cfg,
		counts:    cfg.ByteCounts(),
		Norm:      map[int]*sim.Entry{},
		Resize:    map[int]*sim.Entry{},
		Writeback: map[int]*sim.Entry{},
		preps:     map[uint64]*sim.Entry{},
		execs:     map[uint64]*sim.Entry{},
	}
	var err error
	if t.Assign, err = LoadAssign(src); err != nil {
		return nil, err
	}
	load := func(table string) []*sim.Entry {
		if err != nil {
			return nil
		}
		var rows []*sim.Entry
		rows, err = src.TableEntriesOrdered(table)
		return rows
	}
	byCount := func(table string, action func(int) string, into map[int]*sim.Entry) {
		for _, e := range load(table) {
			if len(e.Params) == 1 {
				if n := int(e.Params[0].Value.Uint64()); e.Action == action(n) {
					into[n] = e
				}
			}
		}
	}
	byCount(persona.TblNorm, persona.NormAction, t.Norm)
	byCount(persona.TblResize, persona.ResizeAction, t.Resize)
	byCount(persona.TblWriteback, persona.WritebackAction, t.Writeback)
	t.parse = load(persona.TblParseCtrl)
	t.virtnet = load(persona.TblVirtnet)
	t.csum = load(persona.TblCsum)

	t.stages = make([][][]*sim.Entry, cfg.Stages+1)
	t.stageNames = make([][]string, cfg.Stages+1)
	t.prepNames = make([][]string, cfg.Stages+1)
	t.execNames = make([][]string, cfg.Stages+1)
	for i := 1; i <= cfg.Stages; i++ {
		for _, k := range persona.StageKinds {
			name := persona.StageTable(i, k.Name)
			t.stageNames[i] = append(t.stageNames[i], name)
			t.stages[i] = append(t.stages[i], load(name))
		}
		t.prepNames[i] = make([]string, cfg.Primitives+1)
		t.execNames[i] = make([]string, cfg.Primitives+1)
		for prim := 1; prim <= cfg.Primitives; prim++ {
			t.prepNames[i][prim] = persona.PrimTable(i, prim, "prep")
			t.execNames[i][prim] = persona.PrimTable(i, prim, "exec")
			for _, e := range load(t.prepNames[i][prim]) {
				if len(e.Params) != 2 {
					continue
				}
				k := prepKey(i, prim, e.Params[0].Value.Uint64(), e.Params[1].Value.Uint64())
				if t.preps[k] != nil {
					if t.dupPreps == nil {
						t.dupPreps = map[uint64]bool{}
					}
					t.dupPreps[k] = true
					continue
				}
				t.preps[k] = e
			}
			for _, e := range load(t.execNames[i][prim]) {
				if len(e.Params) != 1 {
					continue
				}
				code := int(e.Params[0].Value.Uint64())
				if op, ok := persona.OpcodeOf(code); ok && e.Action == "a_exec_"+op.Name {
					t.execs[execKey(i, prim, code)] = e
				}
			}
		}
	}
	if err != nil {
		return nil, err
	}
	return t, nil
}

// owned reports whether e's leading (program ID) param is pid.
func owned(e *sim.Entry, pid uint64) bool {
	return len(e.Params) > 0 && e.Params[0].Value.Uint64() == pid
}

// exactLead reports whether e's first n params are exact.
func exactLead(e *sim.Entry, n int) bool {
	for i := 0; i < n; i++ {
		if e.Params[i].Kind != exact {
			return false
		}
	}
	return true
}

// VDev decodes the rows of the virtual device with program ID pid.
func (t *Tables) VDev(pid int) *VDev {
	v := &VDev{PID: pid, Parse: map[uint64][]ParseRow{}, slots: map[[3]int]*Slot{}}
	id := uint64(pid)
	for _, e := range t.parse {
		if owned(e, id) {
			state, r := t.parseRow(v, e)
			v.Parse[state] = append(v.Parse[state], r)
		}
	}
	for i := 1; i <= t.cfg.Stages; i++ {
		for k, rows := range t.stages[i] {
			kind := persona.StageKinds[k].Code
			for _, e := range rows {
				if !owned(e, id) {
					continue
				}
				slotID, r := t.stageRow(v, e, i, k, id)
				key := [3]int{i, kind, slotID}
				s := v.slots[key]
				if s == nil {
					s = &Slot{Stage: i, Kind: kind, ID: slotID}
					v.slots[key] = s
					v.Slots = append(v.Slots, s)
				}
				s.Rows = append(s.Rows, r)
			}
		}
	}
	for _, e := range t.csum {
		if owned(e, id) && v.Csum == nil {
			v.Csum = &Csum{Entry: e}
			hdr, err := t.decodeCsum(e)
			if err != nil {
				v.Csum.Err = v.fail(persona.TblCsum, e.Handle, "%v", err)
			}
			v.Csum.Hdr = hdr
		}
	}
	for _, e := range t.virtnet {
		if owned(e, id) {
			v.Routes = append(v.Routes, route(v, e))
		}
	}
	return v
}

// small returns v as a uint64 when its value fits in one.
func small(v bitfield.Value) (uint64, bool) {
	for off := 0; off < v.Width()-64; off += 64 {
		if v.UintAt(off, min(64, v.Width()-64-off)) != 0 {
			return 0, false
		}
	}
	return v.Uint64(), true
}

// smallArgs decodes e's args as integers into out; e must carry exactly
// len(out) of them.
func smallArgs(e *sim.Entry, out []uint64) error {
	if len(e.Args) != len(out) {
		return fmt.Errorf("%s arity %d, want %d", e.Action, len(e.Args), len(out))
	}
	for i, a := range e.Args {
		var ok bool
		if out[i], ok = small(a); !ok {
			return fmt.Errorf("%s arg %d does not fit 64 bits", e.Action, i)
		}
	}
	return nil
}

// wideKey decodes a ternary param over a width-bit field.
func wideKey(p sim.MatchParam, width int) (val, mask bitfield.Value, err error) {
	if p.Kind != ternary || p.Value.Width() != width || p.Mask.Width() != width {
		return val, mask, fmt.Errorf("match key is not a %d-bit ternary", width)
	}
	return p.Value.And(p.Mask), p.Mask, nil
}

// narrowKey decodes a ternary param over a width-bit (<= 64) field.
func narrowKey(p sim.MatchParam, width int) (val, mask uint64, err error) {
	if p.Kind != ternary || p.Value.Width() != width || p.Mask.Width() != width || width > 64 {
		return 0, 0, fmt.Errorf("match key is not a %d-bit ternary", width)
	}
	m := p.Mask.Uint64()
	return p.Value.Uint64() & m, m, nil
}

func validNext(kind uint64) bool {
	return kind == persona.NTDone || persona.KindName(int(kind)) != ""
}

func (t *Tables) parseRow(v *VDev, e *sim.Entry) (uint64, ParseRow) {
	r := ParseRow{Entry: e}
	var state uint64
	if len(e.Params) > 1 {
		state = e.Params[1].Value.Uint64()
	}
	err := func() error {
		if len(e.Params) != 3 || !exactLead(e, 2) {
			return fmt.Errorf("want (exact pid, exact state, ternary window) params")
		}
		var err error
		if r.Val, r.Mask, err = wideKey(e.Params[2], t.cfg.ExtractedWidth()); err != nil {
			return err
		}
		return parseAction(t.cfg.ParseDefault, t.counts, e, &r)
	}()
	if err != nil {
		r.Err = v.fail(persona.TblParseCtrl, e.Handle, "%v", err)
	}
	return state, r
}

// ParseAction decodes the action half of a t_parse_ctrl row — the rule a
// raw table dump is checked against.
func ParseAction(cfg persona.Config, action string, args []bitfield.Value) (ParseRow, error) {
	var r ParseRow
	return r, parseAction(cfg.ParseDefault, cfg.ByteCounts(), &sim.Entry{Action: action, Args: args}, &r)
}

func parseAction(def int, counts []int, e *sim.Entry, r *ParseRow) error {
	var a [3]uint64
	switch e.Action {
	case persona.ActParseMore:
		if err := smallArgs(e, a[:2]); err != nil {
			return err
		}
		r.More, r.Bytes, r.Next = true, int(a[0]), a[1]
		r.Window = def
		for _, n := range counts {
			if uint64(n) == a[0] {
				r.Window = n
			}
		}
		return nil
	case persona.ActParseDone:
		if err := smallArgs(e, a[:3]); err != nil {
			return err
		}
		if !validNext(a[0]) {
			return fmt.Errorf("unknown next-table code %d", a[0])
		}
		if a[2] > 1 {
			return fmt.Errorf("csum flag %d is neither 0 nor 1", a[2])
		}
		r.Kind, r.Slot, r.Csum = int(a[0]), int(a[1]), a[2] == 1
		return nil
	}
	return fmt.Errorf("unexpected parse action %q", e.Action)
}

// stageRow decodes one a_set_match row of persona stage table
// StageKinds[k] and the prep and exec rows its match ID binds.
func (t *Tables) stageRow(v *VDev, e *sim.Entry, stage, k int, pid uint64) (int, StageRow) {
	r := StageRow{Entry: e}
	slot := 0
	if len(e.Params) > 1 {
		slot = int(e.Params[1].Value.Uint64())
	}
	table := t.stageNames[stage][k]
	bad := func(table string, handle int, format string, args ...any) (int, StageRow) {
		r.Err = v.fail(table, handle, format, args...)
		return slot, r
	}
	want := 3
	switch persona.StageKinds[k].Code {
	case persona.NTStdMeta:
		want = 4
	case persona.NTMatchless:
		want = 2
	}
	if len(e.Params) != want || !exactLead(e, 2) {
		return bad(table, e.Handle, "want %d params, (pid, slot) exact", want)
	}
	var err error
	switch persona.StageKinds[k].Code {
	case persona.NTEDExact, persona.NTEDTernary:
		r.Val, r.Mask, err = wideKey(e.Params[2], t.cfg.ExtractedWidth())
	case persona.NTMetaExact, persona.NTMetaTernary:
		r.Val, r.Mask, err = wideKey(e.Params[2], persona.MetaWidth)
	case persona.NTStdMeta:
		if r.VinVal, r.VinMask, err = narrowKey(e.Params[2], persona.VPortWidth); err == nil {
			r.VpVal, r.VpMask, err = narrowKey(e.Params[3], persona.VPortWidth)
		}
	}
	if err != nil {
		return bad(table, e.Handle, "%v", err)
	}
	if e.Action != persona.ActSetMatch {
		return bad(table, e.Handle, "unexpected stage action %q", e.Action)
	}
	var a [4]uint64
	if err := smallArgs(e, a[:]); err != nil {
		return bad(table, e.Handle, "%v", err)
	}
	mid, nprims := a[0], a[1]
	if nprims > uint64(t.cfg.Primitives) {
		return bad(table, e.Handle, "row wants %d primitives, persona has %d", nprims, t.cfg.Primitives)
	}
	if !validNext(a[2]) {
		return bad(table, e.Handle, "unknown next-table code %d", a[2])
	}
	r.NextKind, r.NextSlot = int(a[2]), int(a[3])
	ew := t.cfg.ExtractedWidth()
	r.Ops = make([]Op, 0, nprims)
	for prim := 1; prim <= int(nprims); prim++ {
		pk := prepKey(stage, prim, pid, mid)
		prepTable := t.prepNames[stage][prim]
		prep := t.preps[pk]
		switch {
		case prep == nil:
			return bad(prepTable, 0, "no prep row for match_id %d", mid)
		case t.dupPreps[pk]:
			return bad(prepTable, prep.Handle, "more than one prep row for match_id %d", mid)
		case !exactLead(prep, 2):
			return bad(prepTable, prep.Handle, "prep row params are not (exact pid, exact match_id)")
		}
		op, err := DecodePrep(prep, ew)
		if err != nil {
			return bad(prepTable, prep.Handle, "%v", err)
		}
		if op.Exec = t.execs[execKey(stage, prim, op.Code)]; op.Exec == nil {
			return bad(t.execNames[stage][prim], 0, "no a_exec_* row for opcode %d (prep row %d)", op.Code, prep.Handle)
		}
		r.Ops = append(r.Ops, op)
	}
	return slot, r
}

// decodeCsum inverts an a_ipv4_csum row into the IPv4 header's bit offset,
// requiring all three argument encodings to agree.
func (t *Tables) decodeCsum(e *sim.Entry) (int, error) {
	ew := t.cfg.ExtractedWidth()
	if len(e.Params) != 1 || !exactLead(e, 1) {
		return 0, fmt.Errorf("want one exact pid param")
	}
	if e.Action != persona.ActIPv4Csum {
		return 0, fmt.Errorf("unexpected csum action %q", e.Action)
	}
	if len(e.Args) != 3 {
		return 0, fmt.Errorf("%s arity %d, want 3", e.Action, len(e.Args))
	}
	shift0, ok0 := small(e.Args[1])
	cshift, ok1 := small(e.Args[2])
	if !ok0 || !ok1 || shift0 > uint64(ew) {
		return 0, fmt.Errorf("shifts out of range")
	}
	hdr := ew - 16 - int(shift0)
	if hdr < 0 || hdr%8 != 0 || hdr+160 > ew {
		return 0, fmt.Errorf("header offset %d bits out of range", hdr)
	}
	if cshift != uint64(ew-(hdr+80)-16) {
		return 0, fmt.Errorf("cshift disagrees with shift0")
	}
	if !e.Args[0].Equal(bitfield.MaskRange(ew, hdr+80, 16).Not()) {
		return 0, fmt.Errorf("ncmask disagrees with shift0")
	}
	return hdr, nil
}

func route(v *VDev, e *sim.Entry) Route {
	r := Route{Entry: e}
	err := func() error {
		if len(e.Params) != 2 || !exactLead(e, 2) {
			return fmt.Errorf("want (exact pid, exact vport) params")
		}
		r.VPort = e.Params[1].Value.Uint64()
		var a [4]uint64
		switch e.Action {
		case persona.ActVDrop:
			r.Kind = RouteDrop
			return smallArgs(e, nil)
		case persona.ActPhysFwd:
			r.Kind = RoutePhys
			err := smallArgs(e, a[:1])
			r.Port = int(a[0])
			return err
		case persona.ActVirtFwd:
			r.Kind = RouteVirt
			err := smallArgs(e, a[:3])
			r.PID, r.VIn = int(a[0]), a[1]
			return err
		case persona.ActMcastStart:
			r.Kind = RouteMcast
			return smallArgs(e, a[:4])
		}
		return fmt.Errorf("unexpected virtnet action %q", e.Action)
	}()
	if err != nil {
		r.Err = v.fail(persona.TblVirtnet, e.Handle, "%v", err)
	}
	return r
}

// LoadAssign reads and decodes t_assign's rows from src, in precedence
// order.
func LoadAssign(src Source) ([]Assign, error) {
	es, err := src.TableEntriesOrdered(persona.TblAssign)
	if err != nil {
		return nil, err
	}
	out := make([]Assign, len(es))
	for i, e := range es {
		out[i] = decodeAssign(e)
	}
	return out, nil
}

// PortOwner is t_assign's decision for one physical ingress port, as the
// switch makes it: the index in as (precedence order) of the first row
// that matches port, or -1 when no row does. ok is false when an
// undecodable row comes first: it might claim the port, so the owner is
// unknown. The fused port dispatch and the DPMU's PIDForPort both ask it.
func PortOwner(as []Assign, port int) (i int, ok bool) {
	for i := range as {
		a := &as[i]
		if a.Err != nil {
			return -1, false
		}
		if uint64(port)&a.Mask == a.Val {
			return i, true
		}
	}
	return -1, true
}

func decodeAssign(e *sim.Entry) Assign {
	r := Assign{Entry: e}
	var a [2]uint64
	err := smallArgs(e, a[:])
	if err == nil && (e.Action != persona.ActSetProgram || len(e.Params) != 1) {
		err = fmt.Errorf("want %s over one ingress-port param", persona.ActSetProgram)
	}
	if err == nil {
		r.Val, r.Mask, err = narrowKey(e.Params[0], e.Params[0].Value.Width())
	}
	if err != nil {
		r.Err = &Error{Table: persona.TblAssign, Handle: e.Handle, Detail: err.Error()}
	}
	r.PID, r.VIngress = int(a[0]), a[1]
	return r
}
