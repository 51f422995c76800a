// Package hlir resolves a parsed P4 program into a high-level intermediate
// representation: names are bound to declarations, field references are
// checked and given widths and offsets, and the program is validated for the
// invariants the simulator relies on (a start state exists, applied tables
// exist, actions referenced by tables exist, and so on).
//
// It plays the role p4-hlir plays in the paper's toolchain (Figure 1).
package hlir

import (
	"fmt"

	"hyper4/internal/p4/ast"
)

// StandardMetadata is the name of the implicitly declared standard metadata
// instance available to every program.
const StandardMetadata = "standard_metadata"

// Well-known standard metadata fields.
const (
	FieldIngressPort  = "ingress_port"
	FieldEgressSpec   = "egress_spec"
	FieldEgressPort   = "egress_port"
	FieldPacketLength = "packet_length"
	FieldInstanceType = "instance_type"
)

// DropSpec is the egress_spec value that drops a packet (bmv2 convention for
// a 9-bit port space).
const DropSpec = 511

// standardMetadataType mirrors the bmv2 simple_switch standard metadata.
var standardMetadataType = &ast.HeaderType{
	Name: "standard_metadata_t",
	Fields: []ast.FieldDecl{
		{Name: FieldIngressPort, Width: 9},
		{Name: FieldPacketLength, Width: 32},
		{Name: FieldEgressSpec, Width: 9},
		{Name: FieldEgressPort, Width: 9},
		{Name: FieldInstanceType, Width: 32},
	},
}

// Instance is a resolved header or metadata instance.
type Instance struct {
	Decl *ast.Instance
	Type *ast.HeaderType
}

// Width returns the instance's total width in bits (one element's width for
// stacks).
func (i *Instance) Width() int { return i.Type.Width() }

// Program is a resolved P4 program.
type Program struct {
	AST *ast.Program

	HeaderTypes map[string]*ast.HeaderType
	Instances   map[string]*Instance
	FieldLists  map[string]*ast.FieldList
	Calcs       map[string]*ast.FieldListCalc
	States      map[string]*ast.ParserState
	Actions     map[string]*ast.Action
	Tables      map[string]*ast.Table
	Controls    map[string]*ast.Control
	Registers   map[string]*ast.Register
	Counters    map[string]*ast.Counter
	Meters      map[string]*ast.Meter

	// TableOrder preserves declaration order for deterministic iteration.
	TableOrder []string
	// Applied holds every table an apply statement reachable from the
	// ingress or egress control names: the only tables a packet can meet,
	// and so the only ones that take entries.
	Applied map[string]bool
	// HeaderOrder is the deparse order: header instances in the order they
	// are first extracted on a DFS of the parse graph, stacks expanded.
	HeaderOrder []string
}

// Resolve builds and validates the HLIR for a parsed program.
func Resolve(prog *ast.Program) (*Program, error) {
	p := &Program{
		AST:         prog,
		HeaderTypes: map[string]*ast.HeaderType{},
		Instances:   map[string]*Instance{},
		FieldLists:  map[string]*ast.FieldList{},
		Calcs:       map[string]*ast.FieldListCalc{},
		States:      map[string]*ast.ParserState{},
		Actions:     map[string]*ast.Action{},
		Tables:      map[string]*ast.Table{},
		Controls:    map[string]*ast.Control{},
		Registers:   map[string]*ast.Register{},
		Counters:    map[string]*ast.Counter{},
		Meters:      map[string]*ast.Meter{},
	}
	p.HeaderTypes[standardMetadataType.Name] = standardMetadataType
	for _, ht := range prog.HeaderTypes {
		if _, dup := p.HeaderTypes[ht.Name]; dup {
			return nil, fmt.Errorf("duplicate header type %q", ht.Name)
		}
		p.HeaderTypes[ht.Name] = ht
	}
	p.Instances[StandardMetadata] = &Instance{
		Decl: &ast.Instance{Name: StandardMetadata, TypeName: standardMetadataType.Name, Metadata: true},
		Type: standardMetadataType,
	}
	for _, inst := range prog.Instances {
		if _, dup := p.Instances[inst.Name]; dup {
			return nil, fmt.Errorf("duplicate instance %q", inst.Name)
		}
		ht, ok := p.HeaderTypes[inst.TypeName]
		if !ok {
			return nil, fmt.Errorf("instance %q: unknown header type %q", inst.Name, inst.TypeName)
		}
		if ht.Width()%8 != 0 && !inst.Metadata {
			return nil, fmt.Errorf("header instance %q: type %q width %d is not byte-aligned", inst.Name, ht.Name, ht.Width())
		}
		p.Instances[inst.Name] = &Instance{Decl: inst, Type: ht}
	}
	for _, fl := range prog.FieldLists {
		p.FieldLists[fl.Name] = fl
	}
	for _, c := range prog.FieldListCalcs {
		p.Calcs[c.Name] = c
	}
	for _, st := range prog.ParserStates {
		if _, dup := p.States[st.Name]; dup {
			return nil, fmt.Errorf("duplicate parser state %q", st.Name)
		}
		p.States[st.Name] = st
	}
	for _, a := range prog.Actions {
		if _, dup := p.Actions[a.Name]; dup {
			return nil, fmt.Errorf("duplicate action %q", a.Name)
		}
		p.Actions[a.Name] = a
	}
	for _, t := range prog.Tables {
		if _, dup := p.Tables[t.Name]; dup {
			return nil, fmt.Errorf("duplicate table %q", t.Name)
		}
		p.Tables[t.Name] = t
		p.TableOrder = append(p.TableOrder, t.Name)
	}
	for _, c := range prog.Controls {
		p.Controls[c.Name] = c
	}
	for _, r := range prog.Registers {
		p.Registers[r.Name] = r
	}
	for _, c := range prog.Counters {
		p.Counters[c.Name] = c
	}
	for _, m := range prog.Meters {
		p.Meters[m.Name] = m
	}
	if err := p.validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", prog.Name, err)
	}
	p.HeaderOrder = p.computeHeaderOrder()
	p.Applied = p.appliedTables()
	return p, nil
}

// appliedTables walks the control flow from ingress and egress, through
// calls, collecting the tables it applies.
func (p *Program) appliedTables() map[string]bool {
	applied, called := map[string]bool{}, map[string]bool{}
	var walk func(stmts []ast.Stmt)
	call := func(name string) {
		if c, ok := p.Controls[name]; ok && !called[name] {
			called[name] = true
			walk(c.Body)
		}
	}
	walk = func(stmts []ast.Stmt) {
		for _, s := range stmts {
			switch s.Kind {
			case ast.StmtApply:
				applied[s.Table] = true
				for _, c := range s.ApplyCases {
					walk(c.Body)
				}
			case ast.StmtIf:
				walk(s.Then)
				walk(s.Else)
			case ast.StmtCall:
				call(s.Control)
			}
		}
	}
	call(ast.ControlIngress)
	call(ast.ControlEgress)
	return applied
}

// FieldWidth returns the bit width of a field reference.
func (p *Program) FieldWidth(ref ast.FieldRef) (int, error) {
	inst, ok := p.Instances[ref.Instance]
	if !ok {
		return 0, fmt.Errorf("unknown instance %q", ref.Instance)
	}
	fd := inst.Type.Field(ref.Field)
	if fd == nil {
		return 0, fmt.Errorf("instance %q has no field %q", ref.Instance, ref.Field)
	}
	return fd.Width, nil
}

// FieldOffset returns the bit offset of a field within its instance.
func (p *Program) FieldOffset(ref ast.FieldRef) (int, error) {
	inst, ok := p.Instances[ref.Instance]
	if !ok {
		return 0, fmt.Errorf("unknown instance %q", ref.Instance)
	}
	off, ok := inst.Type.FieldOffset(ref.Field)
	if !ok {
		return 0, fmt.Errorf("instance %q has no field %q", ref.Instance, ref.Field)
	}
	return off, nil
}

// checkFieldRef validates a field reference, including stack indexing.
func (p *Program) checkFieldRef(ref ast.FieldRef) error {
	inst, ok := p.Instances[ref.Instance]
	if !ok {
		return fmt.Errorf("unknown instance %q", ref.Instance)
	}
	if inst.Decl.IsStack() {
		if ref.Index == ast.IndexNone {
			return fmt.Errorf("stack instance %q requires an index", ref.Instance)
		}
		if ref.Index >= inst.Decl.Count {
			return fmt.Errorf("stack index %d out of range for %q[%d]", ref.Index, ref.Instance, inst.Decl.Count)
		}
	} else if ref.Index >= 0 {
		return fmt.Errorf("instance %q is not a stack", ref.Instance)
	}
	if inst.Type.Field(ref.Field) == nil {
		return fmt.Errorf("instance %q has no field %q", ref.Instance, ref.Field)
	}
	return nil
}

func (p *Program) checkHeaderRef(ref ast.HeaderRef) error {
	inst, ok := p.Instances[ref.Instance]
	if !ok {
		return fmt.Errorf("unknown instance %q", ref.Instance)
	}
	if inst.Decl.IsStack() {
		if ref.Index == ast.IndexNone {
			return fmt.Errorf("stack instance %q requires an index", ref.Instance)
		}
		if ref.Index >= inst.Decl.Count {
			return fmt.Errorf("stack index %d out of range for %q[%d]", ref.Index, ref.Instance, inst.Decl.Count)
		}
	}
	return nil
}

func (p *Program) validate() error {
	if _, ok := p.States["start"]; ok {
		// Validate parser states.
		for _, st := range p.AST.ParserStates {
			if err := p.validateState(st); err != nil {
				return fmt.Errorf("parser %s: %w", st.Name, err)
			}
		}
	} else if len(p.AST.ParserStates) > 0 {
		return fmt.Errorf("parser states declared but no start state")
	}
	for _, a := range p.AST.Actions {
		if err := p.validateAction(a); err != nil {
			return fmt.Errorf("action %s: %w", a.Name, err)
		}
	}
	for _, t := range p.AST.Tables {
		if err := p.validateTable(t); err != nil {
			return fmt.Errorf("table %s: %w", t.Name, err)
		}
	}
	for _, c := range p.AST.Controls {
		if err := p.validateStmts(c.Body); err != nil {
			return fmt.Errorf("control %s: %w", c.Name, err)
		}
	}
	for _, fl := range p.AST.FieldLists {
		for _, e := range fl.Entries {
			if e.Field != nil {
				if err := p.checkFieldRef(*e.Field); err != nil {
					return fmt.Errorf("field_list %s: %w", fl.Name, err)
				}
			} else if e.SubList != "" {
				if _, ok := p.FieldLists[e.SubList]; !ok {
					return fmt.Errorf("field_list %s: unknown sub-list %q", fl.Name, e.SubList)
				}
			}
		}
	}
	for _, c := range p.AST.FieldListCalcs {
		if _, ok := p.FieldLists[c.Input]; !ok {
			return fmt.Errorf("field_list_calculation %s: unknown input list %q", c.Name, c.Input)
		}
		if c.Algorithm != ast.AlgoCsum16 {
			return fmt.Errorf("field_list_calculation %s: unsupported algorithm %q", c.Name, c.Algorithm)
		}
	}
	for _, cf := range p.AST.CalculatedFields {
		if err := p.checkFieldRef(cf.Field); err != nil {
			return fmt.Errorf("calculated_field: %w", err)
		}
		for _, calc := range []string{cf.Verify, cf.Update} {
			if calc != "" {
				if _, ok := p.Calcs[calc]; !ok {
					return fmt.Errorf("calculated_field: unknown calculation %q", calc)
				}
			}
		}
	}
	return nil
}

func (p *Program) validateState(st *ast.ParserState) error {
	for _, stmt := range st.Statements {
		if stmt.Extract != nil {
			if err := p.checkExtractRef(*stmt.Extract); err != nil {
				return err
			}
		} else {
			if err := p.checkFieldRef(stmt.SetField); err != nil {
				return err
			}
		}
	}
	switch st.Return.Kind {
	case ast.ReturnDirect:
		if st.Return.State != ast.StateIngress {
			if _, ok := p.States[st.Return.State]; !ok {
				return fmt.Errorf("unknown parser state %q", st.Return.State)
			}
		}
	case ast.ReturnSelect:
		for _, k := range st.Return.SelectKeys {
			if k.Field != nil {
				if err := p.checkFieldRef(*k.Field); err != nil {
					return err
				}
			}
		}
		for _, c := range st.Return.Cases {
			if !c.Default && len(c.Values) != len(st.Return.SelectKeys) {
				return fmt.Errorf("select case has %d values for %d keys", len(c.Values), len(st.Return.SelectKeys))
			}
			if c.State != ast.StateIngress {
				if _, ok := p.States[c.State]; !ok {
					return fmt.Errorf("unknown parser state %q", c.State)
				}
			}
		}
	}
	return nil
}

// checkExtractRef validates an extract target: a header (not metadata),
// possibly a stack element or [next].
func (p *Program) checkExtractRef(ref ast.HeaderRef) error {
	inst, ok := p.Instances[ref.Instance]
	if !ok {
		return fmt.Errorf("extract of unknown instance %q", ref.Instance)
	}
	if inst.Decl.Metadata {
		return fmt.Errorf("cannot extract metadata instance %q", ref.Instance)
	}
	if inst.Decl.IsStack() {
		if ref.Index == ast.IndexNone {
			return fmt.Errorf("extract of stack %q requires [next] or an index", ref.Instance)
		}
	} else if ref.Index != ast.IndexNone {
		return fmt.Errorf("instance %q is not a stack", ref.Instance)
	}
	return nil
}

func (p *Program) validateAction(a *ast.Action) error {
	for _, call := range a.Body {
		if !KnownPrimitive(call.Name) {
			if _, ok := p.Actions[call.Name]; !ok {
				return fmt.Errorf("unknown primitive or action %q", call.Name)
			}
		}
		for _, arg := range call.Args {
			switch arg.Kind {
			case ast.ExprField:
				if err := p.checkFieldRef(arg.Field); err != nil {
					return err
				}
			case ast.ExprHeader:
				if err := p.checkHeaderRef(arg.Header); err != nil {
					return err
				}
			case ast.ExprName:
				// Could be a field list, register, counter, or meter; checked
				// at execution against the primitive's expectations.
			}
		}
	}
	return nil
}

func (p *Program) validateTable(t *ast.Table) error {
	for _, r := range t.Reads {
		if r.Field != nil {
			if err := p.checkFieldRef(*r.Field); err != nil {
				return err
			}
		}
		if r.Header != nil {
			if err := p.checkHeaderRef(*r.Header); err != nil {
				return err
			}
		}
	}
	if len(t.Actions) == 0 {
		return fmt.Errorf("no actions")
	}
	for _, a := range t.Actions {
		if _, ok := p.Actions[a]; !ok {
			return fmt.Errorf("unknown action %q", a)
		}
	}
	if t.Default != "" {
		if _, ok := p.Actions[t.Default]; !ok {
			return fmt.Errorf("unknown default action %q", t.Default)
		}
	}
	return nil
}

func (p *Program) validateStmts(stmts []ast.Stmt) error {
	for _, s := range stmts {
		switch s.Kind {
		case ast.StmtApply:
			if _, ok := p.Tables[s.Table]; !ok {
				return fmt.Errorf("apply of unknown table %q", s.Table)
			}
			for _, c := range s.ApplyCases {
				if c.Action != "" {
					if _, ok := p.Actions[c.Action]; !ok {
						return fmt.Errorf("apply case for unknown action %q", c.Action)
					}
				}
				if err := p.validateStmts(c.Body); err != nil {
					return err
				}
			}
		case ast.StmtIf:
			if err := p.validateBool(s.Cond); err != nil {
				return err
			}
			if err := p.validateStmts(s.Then); err != nil {
				return err
			}
			if err := p.validateStmts(s.Else); err != nil {
				return err
			}
		case ast.StmtCall:
			if _, ok := p.Controls[s.Control]; !ok {
				return fmt.Errorf("call of unknown control %q", s.Control)
			}
		}
	}
	return nil
}

func (p *Program) validateBool(b ast.BoolExpr) error {
	switch b.Kind {
	case ast.BoolCmp:
		for _, e := range []*ast.Expr{b.Left, b.Right} {
			if e.Kind == ast.ExprField {
				if err := p.checkFieldRef(e.Field); err != nil {
					return err
				}
			}
		}
	case ast.BoolValid:
		return p.checkHeaderRef(*b.Valid)
	case ast.BoolAnd, ast.BoolOr:
		if err := p.validateBool(*b.A); err != nil {
			return err
		}
		return p.validateBool(*b.B)
	case ast.BoolNot:
		return p.validateBool(*b.A)
	}
	return nil
}

// computeHeaderOrder walks the parse graph depth-first from start and records
// header instances in first-extraction order; stack instances appear once
// (elements keep stack order implicitly). Headers never extracted (add_header
// only) are appended in declaration order. This order is the deparse order.
func (p *Program) computeHeaderOrder() []string {
	var order []string
	seen := map[string]bool{}
	visited := map[string]bool{}
	var walk func(state string)
	walk = func(state string) {
		if state == ast.StateIngress || visited[state] {
			return
		}
		visited[state] = true
		st, ok := p.States[state]
		if !ok {
			return
		}
		for _, stmt := range st.Statements {
			if stmt.Extract != nil && !seen[stmt.Extract.Instance] {
				seen[stmt.Extract.Instance] = true
				order = append(order, stmt.Extract.Instance)
			}
		}
		switch st.Return.Kind {
		case ast.ReturnDirect:
			walk(st.Return.State)
		case ast.ReturnSelect:
			for _, c := range st.Return.Cases {
				walk(c.State)
			}
		}
	}
	walk("start")
	for _, inst := range p.AST.Instances {
		if !inst.Metadata && !seen[inst.Name] {
			seen[inst.Name] = true
			order = append(order, inst.Name)
		}
	}
	return order
}

// knownPrimitives is the primitive set the simulator implements.
var knownPrimitives = map[string]bool{
	"modify_field":                true,
	"add_to_field":                true,
	"subtract_from_field":         true,
	"add":                         true,
	"subtract":                    true,
	"bit_and":                     true,
	"bit_or":                      true,
	"bit_xor":                     true,
	"shift_left":                  true,
	"shift_right":                 true,
	"drop":                        true,
	"no_op":                       true,
	"add_header":                  true,
	"remove_header":               true,
	"copy_header":                 true,
	"resubmit":                    true,
	"recirculate":                 true,
	"clone_ingress_pkt_to_egress": true,
	"clone_egress_pkt_to_egress":  true,
	"count":                       true,
	"execute_meter":               true,
	"register_read":               true,
	"register_write":              true,
	"truncate":                    true,
}

// KnownPrimitive reports whether name is a primitive the target implements.
func KnownPrimitive(name string) bool { return knownPrimitives[name] }

// Primitives returns the full primitive set, for documentation and the
// persona generator's coverage accounting. The paper notes P4_14 defines 21
// primitives; this target implements the 24 above (a superset that includes
// the bmv2 clone/stateful variants).
func Primitives() []string {
	out := make([]string, 0, len(knownPrimitives))
	for k := range knownPrimitives {
		out = append(out, k)
	}
	return out
}
