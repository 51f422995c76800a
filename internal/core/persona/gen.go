package persona

import (
	"fmt"
	"math/big"
	"sync"

	"hyper4/internal/p4/ast"
	"hyper4/internal/p4/hlir"
	"hyper4/internal/p4/pretty"
)

func sprintf(format string, args ...any) string { return fmt.Sprintf(format, args...) }

// Persona is a generated HyPer4 persona: the resolved program, the base
// entries that wire its fixed machinery, and its P4 source on demand.
type Persona struct {
	Config  Config
	Program *hlir.Program
	// BaseCommands is the runtime command script that installs the persona's
	// static entries (primitive dispatch, byte normalization, resize and
	// write-back rows). It must be executed once after loading the persona.
	BaseCommands string

	// Structural metadata for the paper's space analysis (Figures 7 and 8,
	// §6.2, §6.5).
	TableCount  int
	ActionCount int

	source func() string
}

// Source returns the persona's P4_14 source. It is printed on first use
// from a freshly built AST for p.Config — the builder that produced
// p.Program — so nothing done to p.Program can change the text.
func (p *Persona) Source() string { return p.source() }

// LoC returns the persona's source line count (Figure 7, §5.1).
func (p *Persona) LoC() int { return pretty.CountLoC(p.Source()) }

// Generate builds the persona for a configuration and resolves its AST
// directly; the source is printed only if Source or LoC asks for it.
func Generate(c Config) (*Persona, error) {
	if err := c.validate(); err != nil {
		return nil, err
	}
	prog := build(c)
	resolved, err := hlir.Resolve(prog)
	if err != nil {
		return nil, fmt.Errorf("persona: generated program does not resolve: %w", err)
	}
	return &Persona{
		Config:       c,
		Program:      resolved,
		BaseCommands: baseCommands(c),
		TableCount:   len(prog.Tables),
		ActionCount:  len(prog.Actions),
		source:       sync.OnceValue(func() string { return pretty.Print(build(c)) }),
	}, nil
}

// build runs the generator for a validated configuration.
func build(c Config) *ast.Program {
	b := &builder{c: c, prog: &ast.Program{Name: "hyper4_persona"}}
	b.headers()
	b.fieldLists()
	if c.FixedParser {
		b.fixedParserStates()
		b.fixedNormWriteback()
	} else {
		b.parserStates()
	}
	b.setupActionsAndTables()
	b.stageActionsAndTables()
	b.virtnetAndEgress()
	b.extensions()
	b.controls()
	return b.prog
}

func (c Config) validate() error {
	switch {
	case c.Stages < 1:
		return fmt.Errorf("persona: Stages must be >= 1, got %d", c.Stages)
	case c.Primitives < 1:
		return fmt.Errorf("persona: Primitives must be >= 1, got %d", c.Primitives)
	case c.ParseDefault < 1 || c.ParseStep < 1 || c.ParseMax < c.ParseDefault:
		return fmt.Errorf("persona: bad parse bytes config %d/%d/%d", c.ParseDefault, c.ParseStep, c.ParseMax)
	}
	return nil
}

type builder struct {
	c    Config
	prog *ast.Program
}

// --- small AST helpers ---

func fref(inst, field string) ast.FieldRef {
	return ast.FieldRef{Instance: inst, Index: ast.IndexNone, Field: field}
}

func frefIdx(inst string, idx int, field string) ast.FieldRef {
	return ast.FieldRef{Instance: inst, Index: idx, Field: field}
}

func fexpr(inst, field string) ast.Expr {
	return ast.Expr{Kind: ast.ExprField, Field: fref(inst, field)}
}

func fexprIdx(inst string, idx int, field string) ast.Expr {
	return ast.Expr{Kind: ast.ExprField, Field: frefIdx(inst, idx, field)}
}

func cexpr(v int64) ast.Expr { return ast.Expr{Kind: ast.ExprConst, Const: big.NewInt(v)} }

// bexpr builds a wide constant expression (e.g. the all-ones mask used to
// complement dmask in place).
func bexpr(v *big.Int) ast.Expr { return ast.Expr{Kind: ast.ExprConst, Const: v} }

// onesConst returns the all-ones constant of width bits.
func onesConst(width int) *big.Int {
	one := big.NewInt(1)
	x := new(big.Int).Lsh(one, uint(width))
	return x.Sub(x, one)
}

func pexpr(name string) ast.Expr { return ast.Expr{Kind: ast.ExprParam, Param: name} }

func nexpr(name string) ast.Expr { return ast.Expr{Kind: ast.ExprName, Name: name} }

func call(name string, args ...ast.Expr) ast.PrimitiveCall {
	return ast.PrimitiveCall{Name: name, Args: args}
}

func applyStmt(table string) ast.Stmt { return ast.Stmt{Kind: ast.StmtApply, Table: table} }

func ifEq(inst, field string, v int64, then ...ast.Stmt) ast.Stmt {
	l, r := fexpr(inst, field), cexpr(v)
	return ast.Stmt{Kind: ast.StmtIf, Cond: ast.BoolExpr{Kind: ast.BoolCmp, Left: &l, Op: ast.OpEq, Right: &r}, Then: then}
}

func ifNe(inst, field string, v int64, then ...ast.Stmt) ast.Stmt {
	l, r := fexpr(inst, field), cexpr(v)
	return ast.Stmt{Kind: ast.StmtIf, Cond: ast.BoolExpr{Kind: ast.BoolCmp, Left: &l, Op: ast.OpNe, Right: &r}, Then: then}
}

// --- program parts ---

func (b *builder) headers() {
	ew := b.c.ExtractedWidth()
	b.prog.HeaderTypes = append(b.prog.HeaderTypes,
		&ast.HeaderType{Name: "u_byte_t", Fields: []ast.FieldDecl{{Name: "b", Width: 8}}},
		&ast.HeaderType{Name: "hp4_meta_t", Fields: []ast.FieldDecl{
			{Name: "program", Width: ProgramWidth},
			{Name: "numbytes", Width: NumBytesWidth},
			{Name: "parsed", Width: NumBytesWidth},
			{Name: "parse_state", Width: StateWidth},
			{Name: "next_table", Width: NextTblWidth},
			{Name: "next_slot", Width: SlotWidth},
			{Name: "match_id", Width: MatchIDWidth},
			{Name: "prims_left", Width: PrimWidth},
			{Name: "prim_type", Width: PrimWidth},
			{Name: "vdev_port", Width: VPortWidth},
			{Name: "vdev_ingress", Width: VPortWidth},
			{Name: "wb_bytes", Width: NumBytesWidth},
			{Name: "recirc", Width: 8},
			{Name: "csum", Width: 8},
			{Name: "dropped", Width: 8},
			{Name: "mcast", Width: McastWidth},
			{Name: "color", Width: 8},
			{Name: "fpath", Width: 8},
		}},
		&ast.HeaderType{Name: "hp4_data_t", Fields: []ast.FieldDecl{
			{Name: "extracted", Width: ew},
			{Name: "emeta", Width: MetaWidth},
		}},
		// Scratch space for primitive execution — the "overhead" PHV bits of
		// §6.5. Masks other than dmask are derived with double shifts and an
		// in-place complement so the overhead stays within an RMT-sized PHV.
		&ast.HeaderType{Name: "hp4_scratch_t", Fields: []ast.FieldDecl{
			{Name: "tmp", Width: ew},
			{Name: "dmask", Width: ew},
			{Name: "dshift", Width: ShiftWidth},
			{Name: "slshift", Width: ShiftWidth},
			{Name: "srshift", Width: ShiftWidth},
			{Name: "cval", Width: ConstWidth},
			{Name: "acc", Width: 32},
		}},
	)
	b.prog.Instances = append(b.prog.Instances,
		&ast.Instance{Name: InstMeta, TypeName: "hp4_meta_t", Metadata: true},
		&ast.Instance{Name: InstData, TypeName: "hp4_data_t", Metadata: true},
		&ast.Instance{Name: InstScratch, TypeName: "hp4_scratch_t", Metadata: true},
	)
	if !b.c.FixedParser {
		b.prog.Instances = append(b.prog.Instances,
			&ast.Instance{Name: InstExt, TypeName: "u_byte_t", Count: b.c.ParseMax})
	} else {
		b.fixedHeadersDecl()
	}
}

func (b *builder) fieldLists() {
	mkFL := func(name string, fields ...string) *ast.FieldList {
		fl := &ast.FieldList{Name: name}
		for _, f := range fields {
			r := fref(InstMeta, f)
			fl.Entries = append(fl.Entries, ast.FieldListEntry{Field: &r})
		}
		return fl
	}
	// Resubmit keeps the parse loop's progress; recirculate starts the next
	// virtual device fresh, carrying only its identity (§4.6).
	b.prog.FieldLists = append(b.prog.FieldLists,
		mkFL(FLResubmit, "program", "numbytes", "parse_state", "vdev_ingress"),
		mkFL(FLRecirc, "program", "vdev_ingress"),
	)
}

// parserStates emits the runtime-reconfigurable parser of §4.2: a start
// state that branches on hp4.numbytes, and one state per supported byte
// count, each extracting that many one-byte headers.
func (b *builder) parserStates() {
	counts := b.c.ByteCounts()
	start := &ast.ParserState{Name: "start"}
	key := fref(InstMeta, "numbytes")
	start.Return = ast.ParserReturn{
		Kind:       ast.ReturnSelect,
		SelectKeys: []ast.SelectKey{{Field: &key}},
	}
	// numbytes == 0 (fresh packet) extracts the default.
	start.Return.Cases = append(start.Return.Cases, ast.SelectCase{
		Values: []*big.Int{big.NewInt(0)},
		Masks:  []*big.Int{nil},
		State:  ParseState(b.c.ParseDefault),
	})
	for _, n := range counts {
		start.Return.Cases = append(start.Return.Cases, ast.SelectCase{
			Values: []*big.Int{big.NewInt(int64(n))},
			Masks:  []*big.Int{nil},
			State:  ParseState(n),
		})
	}
	start.Return.Cases = append(start.Return.Cases, ast.SelectCase{
		Default: true,
		State:   ParseState(b.c.ParseDefault),
	})
	b.prog.ParserStates = append(b.prog.ParserStates, start)

	for _, n := range counts {
		st := &ast.ParserState{Name: ParseState(n)}
		for i := 0; i < n; i++ {
			st.Statements = append(st.Statements, ast.ParserStmt{
				Extract: &ast.HeaderRef{Instance: InstExt, Index: ast.IndexNext},
			})
		}
		st.Statements = append(st.Statements, ast.ParserStmt{
			SetField: fref(InstMeta, "parsed"),
			SetValue: cexpr(int64(n)),
		})
		st.Return = ast.ParserReturn{Kind: ast.ReturnDirect, State: ast.StateIngress}
		b.prog.ParserStates = append(b.prog.ParserStates, st)
	}
}

// setupActionsAndTables emits the normalization (byte assembly), program
// assignment, and parse-control machinery (Setup a/b in Figure 6).
func (b *builder) setupActionsAndTables() {
	ew := b.c.ExtractedWidth()
	if !b.c.FixedParser {
		// a_norm_N: concatenate ext[0..N-1] into hp4d.extracted, anchoring
		// byte 0 at the most significant end so field offsets are
		// independent of N.
		for _, n := range b.c.ByteCounts() {
			a := &ast.Action{Name: NormAction(n)}
			for i := 0; i < n; i++ {
				sh := int64(ew - 8*(i+1))
				a.Body = append(a.Body,
					call("modify_field", fexpr(InstScratch, "tmp"), fexprIdx(InstExt, i, "b")),
					call("shift_left", fexpr(InstScratch, "tmp"), fexpr(InstScratch, "tmp"), cexpr(sh)),
					call("bit_or", fexpr(InstData, "extracted"), fexpr(InstData, "extracted"), fexpr(InstScratch, "tmp")),
				)
			}
			b.prog.Actions = append(b.prog.Actions, a)
		}
		b.prog.Tables = append(b.prog.Tables, &ast.Table{
			Name: TblNorm,
			Reads: []ast.ReadEntry{
				{Field: ptr(fref(InstMeta, "parsed")), Match: ast.MatchExact},
			},
			Actions: b.normActionNames(),
			Size:    len(b.c.ByteCounts()) + 1,
		})
	}
	_ = ew

	// a_set_program: bind the packet to a virtual device by ingress port
	// (the operator-controllable criterion of §4.5).
	b.prog.Actions = append(b.prog.Actions, &ast.Action{
		Name:   ActSetProgram,
		Params: []string{"program", "vingress"},
		Body: []ast.PrimitiveCall{
			call("modify_field", fexpr(InstMeta, "program"), pexpr("program")),
			call("modify_field", fexpr(InstMeta, "vdev_ingress"), pexpr("vingress")),
		},
	})
	b.prog.Tables = append(b.prog.Tables, &ast.Table{
		Name: TblAssign,
		Reads: []ast.ReadEntry{
			{Field: ptr(fref(hlir.StandardMetadata, hlir.FieldIngressPort)), Match: ast.MatchTernary},
		},
		Actions: []string{ActSetProgram},
		Size:    64,
	})

	// Parse control (§4.2): each entry either requests more bytes and
	// resubmits, or declares parsing complete and primes the first stage.
	b.prog.Actions = append(b.prog.Actions,
		&ast.Action{
			Name:   ActParseMore,
			Params: []string{"numbytes", "pstate"},
			Body: []ast.PrimitiveCall{
				call("modify_field", fexpr(InstMeta, "numbytes"), pexpr("numbytes")),
				call("modify_field", fexpr(InstMeta, "parse_state"), pexpr("pstate")),
				call("resubmit", nexpr(FLResubmit)),
			},
		},
		&ast.Action{
			Name:   ActParseDone,
			Params: []string{"next_table", "next_slot", "csum"},
			Body: []ast.PrimitiveCall{
				call("modify_field", fexpr(InstMeta, "next_table"), pexpr("next_table")),
				call("modify_field", fexpr(InstMeta, "next_slot"), pexpr("next_slot")),
				call("modify_field", fexpr(InstMeta, "wb_bytes"), fexpr(InstMeta, "parsed")),
				call("modify_field", fexpr(InstMeta, "csum"), pexpr("csum")),
			},
		},
	)
	b.prog.Tables = append(b.prog.Tables, &ast.Table{
		Name: TblParseCtrl,
		Reads: []ast.ReadEntry{
			{Field: ptr(fref(InstMeta, "program")), Match: ast.MatchExact},
			{Field: ptr(fref(InstMeta, "parse_state")), Match: ast.MatchExact},
			{Field: ptr(fref(InstData, "extracted")), Match: ast.MatchTernary},
		},
		Actions: []string{ActParseMore, ActParseDone},
		Size:    256,
	})
}

func (b *builder) normActionNames() []string {
	var out []string
	for _, n := range b.c.ByteCounts() {
		out = append(out, NormAction(n))
	}
	return out
}

func ptr[T any](v T) *T { return &v }
