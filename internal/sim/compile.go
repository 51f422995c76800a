package sim

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"hyper4/internal/bitfield"
	"hyper4/internal/p4/ast"
	"hyper4/internal/p4/hlir"
)

// This file compiles a resolved program into the index-addressed form
// Process runs (DESIGN.md §7). Every name the program uses — parser states,
// tables, actions, primitives, fields, headers, field lists, stateful
// objects — is resolved here, so the packet path hashes no strings. Only
// what P4_14 makes dynamic stays dynamic:
//
//   - the element a stack [next]/[last] reference picks (slotOf);
//   - latest.X in a select whose state extracts no header (the instance is
//     whichever header an earlier state extracted last), and the element of
//     latest.X after a stack [next] extract.
//
// New compiles the parser, the control flow, the tables, the checksums and
// the deparser. An action body compiles once, the first time a packet runs
// the action: the reference persona declares 3,811 primitive calls, about a
// millisecond to compile, and a workload runs a few dozen of them.
//
// A reference that cannot resolve does not fail New: it compiles to an error
// the op returns when a packet reaches it, with the interpreter's message, so
// a program that only misbehaves on some packets fails exactly those.

// code is a compiled program. Nothing in it changes after New except the
// action bodies, each written once under its action's lock.
type code struct {
	start   int // parser entry state; -1 when the program has no parser
	states  []pstate
	selects int // planned selects, the size of packetState.selKeys
	ingress *control
	egress  *control

	actions []*action          // by action id (the metrics index)
	byName  map[string]*action // control-plane resolution only

	calcs   []calcField
	deparse []deparseSlot
}

// stateAccept is the parser transition target "ingress".
const stateAccept = -1

// pstate is one compiled parser state. A transition target the program does
// not declare becomes a missing state, so reaching it fails as before.
type pstate struct {
	name    string
	missing bool
	stmts   []pstmt
	next    int       // direct return target
	sel     *selectOp // select return; nil for a direct return
	bad     bool      // neither a direct nor a select return
}

// pstmt is extract(hdr), or set_metadata(set.dst, set.val) when hdr is nil.
type pstmt struct {
	hdr *hdrRef
	set *setMeta
}

type setMeta struct {
	dst *fieldRef
	val operand
}

// selectOp is a compiled select return.
type selectOp struct {
	keys  []selKey
	cases []selCase
	// plan holds the key width and every case's (value, mask) when the key
	// width is static; nil when a latest.X key names a header an earlier
	// state extracted, whose width is only known per packet.
	plan *selectPlan
}

type selKeyKind uint8

const (
	keyCurrent    selKeyKind = iota // current(off, width)
	keyField                        // a field, or latest.X of a scalar extracted in this state
	keyLatestElem                   // latest.X of the stack element this state extracted
	keyLatestAny                    // latest.X of whatever an earlier state extracted
)

type selKey struct {
	kind       selKeyKind
	off, width int        // keyCurrent
	f          *fieldRef  // keyField; keyLatestElem (loc only)
	latest     string     // keyLatestAny: the field name, for the error
	bySlot     []fieldRef // keyLatestAny: latest.X in the header at each slot
}

type selCase struct {
	dflt bool
	next int
	ast  *ast.SelectCase // values and masks, for keyLatestAny selects
}

// selectPlan is a static-width select: the concatenated key width and one
// (value, mask) pair per case.
type selectPlan struct {
	id    int // index into packetState.selKeys scratch
	total int
	cases []caseVM
}

type caseVM struct {
	val  bitfield.Value
	mask bitfield.Value
}

// control is a compiled control function.
type control struct {
	body []stmt
}

// stmt is one compiled control statement.
type stmt struct {
	kind  ast.StmtKind
	apply *applyStmt
	cond  *cond
	then  []stmt
	els   []stmt
	call  *control // nil when the callee is not declared
	name  string   // callee name, for the error
}

// applyStmt is apply(table) with its case blocks.
type applyStmt struct {
	name  string
	t     *table // nil when the table is not declared
	cases []applyCase
}

// applyCase runs body on a hit, on a miss, or when the action with id
// action ran.
type applyCase struct {
	hit, miss bool
	action    int
	body      []stmt
}

// noAction is the action id of "no action ran"; unknownAction never matches.
const (
	noAction      = -1
	unknownAction = -2
)

// cond is a compiled if condition. Comparison operands are sized to the
// compare width when compiled.
type cond struct {
	kind ast.BoolKind
	hdr  *hdrRef // BoolValid
	a, b *cond
	op   ast.CmpOp
	l, r operand
}

// action is a compound action. Its body compiles on first use (see
// actionBody).
type action struct {
	id     int
	name   string
	params int

	mu   sync.Mutex
	decl *ast.Action
	body atomic.Pointer[[]op] // nil until the first packet runs the action
}

type opcode uint8

const (
	opFail opcode = iota // a primitive whose arguments cannot resolve
	opNop
	opModify
	opAddTo
	opSubFrom
	opAdd
	opSub
	opAnd
	opOr
	opXor
	opShl
	opShr
	opDrop
	opAddHeader
	opRemoveHeader
	opCopyHeader
	opResubmit
	opRecirculate
	opCloneI2E
	opCloneE2E
	opCount
	opMeter
	opRegRead
	opRegWrite
	opTruncate
	opCall // a nested compound action
)

var binaryOps = map[string]opcode{
	"add": opAdd, "subtract": opSub, "bit_and": opAnd, "bit_or": opOr, "bit_xor": opXor,
}

// op is one compiled primitive call. Its value operands are in args, in the
// order the primitive evaluates them.
type op struct {
	code opcode
	dst  *fieldRef
	args []operand
	hdrs [2]*hdrRef
	aux  *opAux // what only some primitives need
}

type opAux struct {
	// err is a static failure the primitive reports after evaluating its
	// earlier operands (for opFail, before any).
	err    error
	name   string     // nested action or stateful object name
	list   *fieldList // resubmit/recirculate field list
	reg    *registerArray
	ctr    *counterArray
	mtr    *meterArray
	callee *action // opCall; nil when the action is not declared
}

type operandKind uint8

const (
	opndErr operandKind = iota
	opndConst
	opndField
	opndParam
)

// operand is a compiled data argument. width is the width the value is
// wanted at (0: natural width); a constant is materialized at it. An operand
// that cannot resolve carries its error in f.
type operand struct {
	kind  operandKind
	width int
	param int
	c     bitfield.Value
	f     *fieldRef
}

// fieldList is a flattened field list: its fields in walk order. A walk that
// fails (an undeclared list, a list nesting itself) ends in an item carrying
// the error.
type fieldList struct {
	items   []listItem
	payload bool
}

type listItem struct {
	f *fieldRef
	// aligned: the field starts on a byte boundary of the serialized list and
	// spans whole bytes, so it appends without a bit shuffle.
	aligned bool
}

// calcField is a calculated field with an update calculation.
type calcField struct {
	guard  *hdrRef
	target *fieldRef
	calc   *ast.FieldListCalc
	input  *fieldList
	err    error // the calculation is not declared
}

// deparseSlot is one header element in deparse order.
type deparseSlot struct {
	slot  int
	width int
}

// compiler holds the resolution state of the compilation New runs.
type compiler struct {
	sw       *Switch
	c        *code
	stateID  map[string]int
	controls map[string]*control
	hdrs     map[ast.HeaderRef]*hdrRef // parser and condition references, shared
}

// compile builds the switch's code. Tables and stateful objects must exist.
func (sw *Switch) compile() *code {
	prog := sw.prog
	c := &code{start: -1, byName: make(map[string]*action, len(prog.Actions))}
	cc := &compiler{sw: sw, c: c, stateID: map[string]int{}, controls: map[string]*control{}, hdrs: map[ast.HeaderRef]*hdrRef{}}

	// Actions are numbered in name order.
	names := make([]string, 0, len(prog.Actions))
	for name := range prog.Actions {
		names = append(names, name)
	}
	sort.Strings(names)
	for i, name := range names {
		decl := prog.Actions[name]
		a := &action{id: i, name: name, params: len(decl.Params), decl: decl}
		c.actions = append(c.actions, a)
		c.byName[name] = a
	}

	if _, ok := prog.States["start"]; ok {
		c.start = cc.state("start")
	}

	for name := range prog.Controls {
		cc.controls[name] = &control{}
	}
	for name, ctl := range prog.Controls {
		cc.controls[name].body = cc.stmts(ctl.Body)
	}
	c.ingress = cc.controls[ast.ControlIngress]
	c.egress = cc.controls[ast.ControlEgress]

	lay := sw.lay
	for _, cf := range prog.AST.CalculatedFields {
		if cf.Update == "" {
			continue
		}
		guard := ast.HeaderRef{Instance: cf.Field.Instance, Index: cf.Field.Index}
		if cf.IfValid != nil {
			guard = *cf.IfValid
		}
		f := calcField{guard: lay.hdr(guard), target: lay.field(cf.Field)}
		if calc, ok := prog.Calcs[cf.Update]; ok {
			f.calc = calc
			f.input = sw.fieldList(calc.Input)
		} else {
			f.err = fmt.Errorf("sim: unknown calculation %q", cf.Update)
		}
		c.calcs = append(c.calcs, f)
	}
	for _, name := range prog.HeaderOrder {
		ii := lay.insts[name]
		for e := 0; e < ii.count; e++ {
			c.deparse = append(c.deparse, deparseSlot{slot: ii.headerBase + e, width: ii.width})
		}
	}
	return c
}

// state returns the id of a parser state, compiling it on first use.
func (cc *compiler) state(name string) int {
	if name == ast.StateIngress {
		return stateAccept
	}
	if id, ok := cc.stateID[name]; ok {
		return id
	}
	id := len(cc.c.states)
	cc.stateID[name] = id
	cc.c.states = append(cc.c.states, pstate{name: name})
	decl, ok := cc.sw.prog.States[name]
	if !ok {
		cc.c.states[id].missing = true
		return id
	}
	lay := cc.sw.lay
	st := pstate{name: name, stmts: make([]pstmt, len(decl.Statements))}
	var last *hdrRef // this state's last extract: the header latest names
	for i := range decl.Statements {
		s, ps := &decl.Statements[i], &st.stmts[i]
		if s.Extract != nil {
			ps.hdr = cc.hdr(*s.Extract)
			last = ps.hdr
			continue
		}
		set := &setMeta{dst: lay.field(s.SetField)}
		switch s.SetValue.Kind {
		case ast.ExprConst, ast.ExprField:
			set.val = lay.operand(&s.SetValue, nil, set.dst.loc.width)
		default:
			set.val = errOperand(fmt.Errorf("sim: unsupported set_metadata value kind %d", s.SetValue.Kind))
		}
		ps.set = set
	}
	switch decl.Return.Kind {
	case ast.ReturnDirect:
		st.next = cc.state(decl.Return.State)
	case ast.ReturnSelect:
		st.sel = cc.selectOp(&decl.Return, last)
	default:
		st.bad = true
	}
	cc.c.states[id] = st
	return id
}

// selectOp compiles a select return; last is the state's last extract.
func (cc *compiler) selectOp(ret *ast.ParserReturn, last *hdrRef) *selectOp {
	lay := cc.sw.lay
	sel := &selectOp{}
	static := true
	widths := make([]int, len(ret.SelectKeys))
	for i, k := range ret.SelectKeys {
		var key selKey
		switch {
		case k.IsCurrent:
			key = selKey{kind: keyCurrent, off: k.CurrentOffset, width: k.CurrentWidth}
			widths[i] = k.CurrentWidth
		case k.Latest != "" && last != nil && last.err == nil:
			// The instance is this state's last extract: the width is static,
			// and so is the element unless it is a stack [next]/[last].
			f := lay.fieldRef(ast.FieldRef{Instance: last.ii.name, Index: ast.IndexNone, Field: k.Latest})
			if f.err == nil {
				f.slot, f.index = last.slot, last.index
			}
			key = selKey{kind: keyField, f: &f}
			if f.err == nil && last.slot < 0 {
				key.kind = keyLatestElem
			}
			widths[i] = f.loc.width
		case k.Latest != "":
			key = selKey{kind: keyLatestAny, latest: k.Latest}
			key.bySlot = make([]fieldRef, len(lay.slots))
			for s, ii := range lay.slots {
				f := lay.fieldRef(ast.FieldRef{Instance: ii.name, Index: ast.IndexNone, Field: k.Latest})
				if f.err == nil {
					f.slot = s
				}
				key.bySlot[s] = f
			}
			static = false
		default:
			key = selKey{kind: keyField, f: lay.field(*k.Field)}
			widths[i] = key.f.loc.width
		}
		sel.keys = append(sel.keys, key)
	}
	for i := range ret.Cases {
		c := &ret.Cases[i]
		sel.cases = append(sel.cases, selCase{dflt: c.Default, next: cc.state(c.State), ast: c})
	}
	if !static {
		return sel
	}
	total := 0
	for _, w := range widths {
		total += w
	}
	plan := &selectPlan{id: cc.c.selects, total: total}
	cc.c.selects++
	for _, c := range ret.Cases {
		if c.Default {
			plan.cases = append(plan.cases, caseVM{})
			continue
		}
		val, mask := caseValue(c, widths)
		plan.cases = append(plan.cases, caseVM{val: val, mask: mask})
	}
	sel.plan = plan
	return sel
}

// caseValue builds the (value, mask) pair for one select case across the
// concatenated key widths.
func caseValue(c ast.SelectCase, widths []int) (bitfield.Value, bitfield.Value) {
	total := 0
	for _, w := range widths {
		total += w
	}
	val := bitfield.New(total)
	mask := bitfield.New(total)
	off := 0
	for i, w := range widths {
		val.Insert(off, bitfield.FromBig(w, c.Values[i]))
		if c.Masks[i] != nil {
			mask.Insert(off, bitfield.FromBig(w, c.Masks[i]))
		} else {
			mask.Insert(off, bitfield.Ones(w))
		}
		off += w
	}
	return val, mask
}

// hdr returns the shared compiled reference for ref.
func (cc *compiler) hdr(ref ast.HeaderRef) *hdrRef {
	h, ok := cc.hdrs[ref]
	if !ok {
		h = cc.sw.lay.hdr(ref)
		cc.hdrs[ref] = h
	}
	return h
}

// stmts compiles a control statement list.
func (cc *compiler) stmts(in []ast.Stmt) []stmt {
	out := make([]stmt, len(in))
	for i := range in {
		s := &in[i]
		o := stmt{kind: s.Kind}
		switch s.Kind {
		case ast.StmtApply:
			a := &applyStmt{name: s.Table, t: cc.sw.tables[s.Table]}
			for _, c := range s.ApplyCases {
				ac := applyCase{hit: c.Hit, miss: c.Miss, action: noAction, body: cc.stmts(c.Body)}
				if c.Action != "" {
					ac.action = unknownAction
					if act, ok := cc.c.byName[c.Action]; ok {
						ac.action = act.id
					}
				}
				a.cases = append(a.cases, ac)
			}
			o.apply = a
		case ast.StmtIf:
			o.cond = cc.cond(&s.Cond)
			o.then = cc.stmts(s.Then)
			o.els = cc.stmts(s.Else)
		case ast.StmtCall:
			o.call, o.name = cc.controls[s.Control], s.Control
		}
		out[i] = o
	}
	return out
}

// cond compiles an if condition. A comparison is made at the wider of its
// operands' natural widths.
func (cc *compiler) cond(b *ast.BoolExpr) *cond {
	lay := cc.sw.lay
	c := &cond{kind: b.Kind, op: b.Op}
	switch b.Kind {
	case ast.BoolValid:
		c.hdr = cc.hdr(*b.Valid)
	case ast.BoolAnd, ast.BoolOr:
		c.a, c.b = cc.cond(b.A), cc.cond(b.B)
	case ast.BoolNot:
		c.a = cc.cond(b.A)
	case ast.BoolCmp:
		w := max(lay.natural(b.Left), lay.natural(b.Right), 1)
		c.l, c.r = lay.operand(b.Left, nil, w), lay.operand(b.Right, nil, w)
	}
	return c
}

// natural is an expression's natural width (0 when it has none).
func (lay *layout) natural(e *ast.Expr) int {
	switch e.Kind {
	case ast.ExprField:
		if loc, err := lay.fieldLoc(e.Field); err == nil {
			return loc.width
		}
	case ast.ExprConst:
		return max(e.Const.BitLen(), 1)
	}
	return 0
}

// operand compiles a data argument wanted at width (0: its natural width),
// binding parameter names to their positions in params.
func (lay *layout) operand(e *ast.Expr, params []string, width int) operand {
	switch e.Kind {
	case ast.ExprConst:
		w := width
		if w == 0 {
			w = max(e.Const.BitLen(), 1)
		}
		return operand{kind: opndConst, width: width, c: bitfield.FromBig(w, e.Const)}
	case ast.ExprField:
		return operand{kind: opndField, width: width, f: lay.field(e.Field)}
	case ast.ExprParam:
		for i, p := range params {
			if p == e.Param {
				return operand{kind: opndParam, width: width, param: i}
			}
		}
		return errOperand(fmt.Errorf("unbound parameter %q", e.Param))
	case ast.ExprName:
		// A bare name in data position is not a value.
		return errOperand(fmt.Errorf("name %q is not a value", e.Name))
	}
	return errOperand(fmt.Errorf("expression kind %d is not a value", e.Kind))
}

func errOperand(err error) operand {
	return operand{kind: opndErr, f: &fieldRef{slot: -1, err: err}}
}

// actionBody returns the action's compiled body, compiling it on the first
// call. After that it is one atomic load.
func (sw *Switch) actionBody(a *action) []op {
	if b := a.body.Load(); b != nil {
		return *b
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if b := a.body.Load(); b != nil {
		return *b
	}
	ops := make([]op, len(a.decl.Body))
	for i := range a.decl.Body {
		sw.compileOp(&ops[i], &a.decl.Body[i], a.decl.Params)
	}
	a.body.Store(&ops)
	return ops
}

// compileOp compiles one primitive (or nested action) call in an action
// with the given parameters into o.
func (sw *Switch) compileOp(o *op, call *ast.PrimitiveCall, params []string) {
	lay := sw.lay
	arg := func(i, width int) operand {
		if i >= len(call.Args) {
			return errOperand(fmt.Errorf("%s: missing argument %d", call.Name, i))
		}
		return lay.operand(&call.Args[i], params, width)
	}
	// Value operands start at argument 1 for every primitive that writes a
	// field or names a stateful object first.
	values := func(widths ...int) {
		o.args = make([]operand, len(widths))
		for i, w := range widths {
			o.args[i] = arg(i+1, w)
		}
	}
	fail := func(err error) { *o = op{code: opFail, aux: &opAux{err: err}} }
	// Primitives writing a field resolve it first, and its width sizes their
	// operands.
	dstFirst := func(c opcode) (int, bool) {
		o.code, o.dst = c, lay.dst(call, 0)
		if o.dst.err != nil {
			fail(o.dst.err)
			return 0, false
		}
		return o.dst.loc.width, true
	}
	switch call.Name {
	case "no_op":
		o.code = opNop
	case "modify_field":
		if w, ok := dstFirst(opModify); ok {
			if len(call.Args) >= 3 { // masked variant
				values(w, w)
			} else {
				values(w)
			}
		}
	case "add_to_field":
		if w, ok := dstFirst(opAddTo); ok {
			values(w)
		}
	case "subtract_from_field":
		if w, ok := dstFirst(opSubFrom); ok {
			values(w)
		}
	case "add", "subtract", "bit_and", "bit_or", "bit_xor":
		if w, ok := dstFirst(binaryOps[call.Name]); ok {
			values(w, w)
		}
	case "shift_left", "shift_right":
		c := opShl
		if call.Name == "shift_right" {
			c = opShr
		}
		if w, ok := dstFirst(c); ok {
			values(w, 0) // the shift amount keeps its natural width: it is a count
		}
	case "drop":
		o.code = opDrop
	case "add_header":
		o.code, o.hdrs[0] = opAddHeader, lay.header(call, 0)
	case "remove_header":
		o.code, o.hdrs[0] = opRemoveHeader, lay.header(call, 0)
	case "copy_header":
		o.code, o.hdrs = opCopyHeader, [2]*hdrRef{lay.header(call, 0), lay.header(call, 1)}
	case "resubmit", "recirculate":
		o.code = opResubmit
		if call.Name == "recirculate" {
			o.code = opRecirculate
		}
		if len(call.Args) > 0 {
			o.aux = &opAux{}
			if fl, err := primName(call, 0); err != nil {
				o.aux.err = err
			} else {
				o.aux.list = sw.fieldList(fl)
			}
		}
	case "clone_ingress_pkt_to_egress", "clone_egress_pkt_to_egress":
		o.code = opCloneI2E
		if call.Name == "clone_egress_pkt_to_egress" {
			o.code = opCloneE2E
		}
		o.args = []operand{arg(0, 32)}
		if len(call.Args) > 1 {
			if _, err := primName(call, 1); err != nil {
				o.aux = &opAux{err: err}
			}
		}
	case "count", "execute_meter":
		n, err := primName(call, 0)
		if err != nil {
			fail(err)
			return
		}
		values(32)
		if call.Name == "count" {
			o.code, o.aux = opCount, &opAux{name: n, ctr: sw.counters[n]}
		} else {
			o.code, o.aux = opMeter, &opAux{name: n, mtr: sw.meters[n]}
			o.dst = lay.dst(call, 2)
		}
	case "register_read":
		if _, ok := dstFirst(opRegRead); !ok {
			return
		}
		n, err := primName(call, 1)
		if err != nil {
			fail(err)
			return
		}
		o.aux = &opAux{name: n, reg: sw.registers[n]}
		o.args = []operand{arg(2, 32)}
	case "register_write":
		n, err := primName(call, 0)
		if err != nil {
			fail(err)
			return
		}
		o.code, o.aux = opRegWrite, &opAux{name: n, reg: sw.registers[n]}
		values(32, 0)
	case "truncate":
		o.code = opTruncate
		o.args = []operand{arg(0, 32)}
	default:
		if hlir.KnownPrimitive(call.Name) {
			fail(fmt.Errorf("primitive %q not implemented", call.Name))
			return
		}
		o.code = opCall
		o.aux = &opAux{name: call.Name, callee: sw.code.byName[call.Name]}
		o.args = make([]operand, len(call.Args))
		for i := range call.Args {
			o.args[i] = arg(i, 0)
		}
	}
}

// dst compiles primitive argument i as a destination field.
func (lay *layout) dst(call *ast.PrimitiveCall, i int) *fieldRef {
	if i >= len(call.Args) || call.Args[i].Kind != ast.ExprField {
		return &fieldRef{slot: -1, err: fmt.Errorf("%s: argument %d must be a field", call.Name, i)}
	}
	return lay.field(call.Args[i].Field)
}

// header compiles primitive argument i as a header reference.
func (lay *layout) header(call *ast.PrimitiveCall, i int) *hdrRef {
	if i >= len(call.Args) {
		return &hdrRef{slot: -1, err: fmt.Errorf("%s: missing argument %d", call.Name, i)}
	}
	switch a := &call.Args[i]; a.Kind {
	case ast.ExprHeader:
		return lay.hdr(a.Header)
	case ast.ExprName:
		return lay.hdr(ast.HeaderRef{Instance: a.Name, Index: ast.IndexNone})
	}
	return &hdrRef{slot: -1, err: fmt.Errorf("%s: argument %d must be a header", call.Name, i)}
}

// primName resolves primitive argument i as a bare name (field list,
// register, ...).
func primName(call *ast.PrimitiveCall, i int) (string, error) {
	if i >= len(call.Args) {
		return "", fmt.Errorf("%s: missing argument %d", call.Name, i)
	}
	switch call.Args[i].Kind {
	case ast.ExprName:
		return call.Args[i].Name, nil
	case ast.ExprParam:
		return call.Args[i].Param, nil
	}
	return "", fmt.Errorf("%s: argument %d must be a name", call.Name, i)
}

// fieldList flattens a (possibly nested) field list.
func (sw *Switch) fieldList(name string) *fieldList {
	fl := &fieldList{}
	bits := 0
	var open []string // the lists being walked, innermost last
	fail := func(err error) bool {
		fl.items = append(fl.items, listItem{f: &fieldRef{slot: -1, err: err}})
		return false
	}
	var walk func(name string) bool
	walk = func(name string) bool {
		decl, ok := sw.prog.FieldLists[name]
		if !ok {
			return fail(fmt.Errorf("sim: unknown field list %q", name))
		}
		for _, o := range open {
			if o == name {
				return fail(fmt.Errorf("sim: field list %q nests itself", name))
			}
		}
		open = append(open, name)
		defer func() { open = open[:len(open)-1] }()
		for _, e := range decl.Entries {
			switch {
			case e.Payload:
				fl.payload = true
			case e.SubList != "":
				if !walk(e.SubList) {
					return false
				}
			case e.Field != nil:
				f := sw.lay.field(*e.Field)
				if f.err != nil {
					return fail(f.err)
				}
				fl.items = append(fl.items, listItem{f: f, aligned: bits%8 == 0 && f.loc.width%8 == 0})
				bits += f.loc.width
			}
		}
		return true
	}
	walk(name)
	return fl
}
