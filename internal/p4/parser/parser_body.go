package parser

import (
	"math/big"

	"hyper4/internal/p4/ast"
	"hyper4/internal/p4/lexer"
)

func (p *parser) parserState(prog *ast.Program) error {
	p.next() // parser
	name, err := p.expectIdent()
	if err != nil {
		return err
	}
	if err := p.expectPunct("{"); err != nil {
		return err
	}
	// P4_14: extract/set_metadata statements, then exactly one return, last.
	st := &ast.ParserState{Name: name}
	for !p.atIdent("return") {
		switch {
		case p.atIdent("extract"):
			p.next()
			if err := p.expectPunct("("); err != nil {
				return err
			}
			h, err := p.headerRef()
			if err != nil {
				return err
			}
			if err := p.expectPunct(")"); err != nil {
				return err
			}
			if err := p.expectPunct(";"); err != nil {
				return err
			}
			st.Statements = append(st.Statements, ast.ParserStmt{Extract: &h})
		case p.atIdent("set_metadata"):
			p.next()
			if err := p.expectPunct("("); err != nil {
				return err
			}
			ref, err := p.fieldRef()
			if err != nil {
				return err
			}
			if err := p.expectPunct(","); err != nil {
				return err
			}
			val, err := p.exprArg(nil)
			if err != nil {
				return err
			}
			if err := p.expectPunct(")"); err != nil {
				return err
			}
			if err := p.expectPunct(";"); err != nil {
				return err
			}
			st.Statements = append(st.Statements, ast.ParserStmt{SetField: ref, SetValue: val})
		case p.at(lexer.Punct, "}"):
			return p.errf("parser state %s has no return statement", name)
		default:
			return p.errf("unexpected %s in parser state", p.cur())
		}
	}
	p.next() // return
	ret, err := p.parserReturn()
	if err != nil {
		return err
	}
	st.Return = ret
	if err := p.expectPunct("}"); err != nil {
		return err
	}
	prog.ParserStates = append(prog.ParserStates, st)
	return nil
}

func (p *parser) parserReturn() (ast.ParserReturn, error) {
	if p.atIdent("select") {
		p.next()
		if err := p.expectPunct("("); err != nil {
			return ast.ParserReturn{}, err
		}
		ret := ast.ParserReturn{Kind: ast.ReturnSelect}
		for {
			key, err := p.selectKey()
			if err != nil {
				return ast.ParserReturn{}, err
			}
			ret.SelectKeys = append(ret.SelectKeys, key)
			if p.at(lexer.Punct, ",") {
				p.next()
				continue
			}
			break
		}
		if err := p.expectPunct(")"); err != nil {
			return ast.ParserReturn{}, err
		}
		if err := p.expectPunct("{"); err != nil {
			return ast.ParserReturn{}, err
		}
		for !p.at(lexer.Punct, "}") {
			c, err := p.selectCase(len(ret.SelectKeys))
			if err != nil {
				return ast.ParserReturn{}, err
			}
			ret.Cases = append(ret.Cases, c)
		}
		p.next() // }
		return ret, nil
	}
	// Direct return: "return ingress;" or "return state_name;"
	target, err := p.expectIdent()
	if err != nil {
		return ast.ParserReturn{}, err
	}
	if err := p.expectPunct(";"); err != nil {
		return ast.ParserReturn{}, err
	}
	return ast.ParserReturn{Kind: ast.ReturnDirect, State: target}, nil
}

func (p *parser) selectKey() (ast.SelectKey, error) {
	if p.atIdent("current") {
		p.next()
		if err := p.expectPunct("("); err != nil {
			return ast.SelectKey{}, err
		}
		off, err := p.expectInt()
		if err != nil {
			return ast.SelectKey{}, err
		}
		if err := p.expectPunct(","); err != nil {
			return ast.SelectKey{}, err
		}
		w, err := p.expectInt()
		if err != nil {
			return ast.SelectKey{}, err
		}
		if err := p.expectPunct(")"); err != nil {
			return ast.SelectKey{}, err
		}
		return ast.SelectKey{IsCurrent: true, CurrentOffset: off, CurrentWidth: w}, nil
	}
	if p.atIdent("latest") {
		p.next()
		if err := p.expectPunct("."); err != nil {
			return ast.SelectKey{}, err
		}
		f, err := p.expectIdent()
		if err != nil {
			return ast.SelectKey{}, err
		}
		return ast.SelectKey{Latest: f}, nil
	}
	ref, err := p.fieldRef()
	if err != nil {
		return ast.SelectKey{}, err
	}
	return ast.SelectKey{Field: &ref}, nil
}

func (p *parser) selectCase(nkeys int) (ast.SelectCase, error) {
	if p.atIdent("default") {
		p.next()
		if err := p.expectPunct(":"); err != nil {
			return ast.SelectCase{}, err
		}
		state, err := p.expectIdent()
		if err != nil {
			return ast.SelectCase{}, err
		}
		if err := p.expectPunct(";"); err != nil {
			return ast.SelectCase{}, err
		}
		return ast.SelectCase{Default: true, State: state}, nil
	}
	c := ast.SelectCase{}
	for i := 0; i < nkeys; i++ {
		if i > 0 {
			if err := p.expectPunct(","); err != nil {
				return ast.SelectCase{}, err
			}
		}
		v, err := p.expectNumber()
		if err != nil {
			return ast.SelectCase{}, err
		}
		var mask *big.Int
		if p.atIdent("mask") {
			p.next()
			mask, err = p.expectNumber()
			if err != nil {
				return ast.SelectCase{}, err
			}
		}
		c.Values = append(c.Values, v)
		c.Masks = append(c.Masks, mask)
	}
	if err := p.expectPunct(":"); err != nil {
		return ast.SelectCase{}, err
	}
	state, err := p.expectIdent()
	if err != nil {
		return ast.SelectCase{}, err
	}
	if err := p.expectPunct(";"); err != nil {
		return ast.SelectCase{}, err
	}
	c.State = state
	return c, nil
}

func (p *parser) action(prog *ast.Program) error {
	p.next() // action
	name, err := p.expectIdent()
	if err != nil {
		return err
	}
	if err := p.expectPunct("("); err != nil {
		return err
	}
	act := &ast.Action{Name: name}
	for !p.at(lexer.Punct, ")") {
		param, err := p.expectIdent()
		if err != nil {
			return err
		}
		act.Params = append(act.Params, param)
		if p.at(lexer.Punct, ",") {
			p.next()
		}
	}
	p.next() // )
	if err := p.expectPunct("{"); err != nil {
		return err
	}
	params := map[string]bool{}
	for _, prm := range act.Params {
		params[prm] = true
	}
	for !p.at(lexer.Punct, "}") {
		call, err := p.primitiveCall(params)
		if err != nil {
			return err
		}
		act.Body = append(act.Body, call)
	}
	p.next() // }
	prog.Actions = append(prog.Actions, act)
	return nil
}

func (p *parser) primitiveCall(params map[string]bool) (ast.PrimitiveCall, error) {
	name, err := p.expectIdent()
	if err != nil {
		return ast.PrimitiveCall{}, err
	}
	if err := p.expectPunct("("); err != nil {
		return ast.PrimitiveCall{}, err
	}
	call := ast.PrimitiveCall{Name: name}
	for !p.at(lexer.Punct, ")") {
		arg, err := p.exprArg(params)
		if err != nil {
			return ast.PrimitiveCall{}, err
		}
		call.Args = append(call.Args, arg)
		if p.at(lexer.Punct, ",") {
			p.next()
		}
	}
	p.next() // )
	if err := p.expectPunct(";"); err != nil {
		return ast.PrimitiveCall{}, err
	}
	return call, nil
}

// exprArg parses a primitive argument: a constant, an action parameter, a
// field reference, a header reference, or a bare name (field list, register,
// counter, meter). Disambiguation between these bare-name cases is deferred
// to HLIR resolution.
func (p *parser) exprArg(params map[string]bool) (ast.Expr, error) {
	if p.cur().Kind == lexer.Number {
		n, _ := p.expectNumber()
		return ast.Expr{Kind: ast.ExprConst, Const: n}, nil
	}
	save := p.pos
	ident, err := p.expectIdent()
	if err != nil {
		return ast.Expr{}, err
	}
	if p.at(lexer.Punct, ".") || p.at(lexer.Punct, "[") {
		p.pos = save
		// Could be a field ref (inst.field) or header ref with index and no
		// field (inst[3]); try field ref first.
		if fr, err := p.tryFieldRef(); err == nil {
			return ast.Expr{Kind: ast.ExprField, Field: fr}, nil
		}
		p.pos = save
		hr, err := p.headerRef()
		if err != nil {
			return ast.Expr{}, err
		}
		return ast.Expr{Kind: ast.ExprHeader, Header: hr}, nil
	}
	if params != nil && params[ident] {
		return ast.Expr{Kind: ast.ExprParam, Param: ident}, nil
	}
	return ast.Expr{Kind: ast.ExprName, Name: ident}, nil
}

// tryFieldRef attempts to parse a field ref without committing on failure.
func (p *parser) tryFieldRef() (ast.FieldRef, error) {
	save := p.pos
	fr, err := p.fieldRef()
	if err != nil {
		p.pos = save
		return ast.FieldRef{}, err
	}
	return fr, nil
}

func (p *parser) table(prog *ast.Program) error {
	p.next() // table
	name, err := p.expectIdent()
	if err != nil {
		return err
	}
	if err := p.expectPunct("{"); err != nil {
		return err
	}
	tbl := &ast.Table{Name: name}
	for !p.at(lexer.Punct, "}") {
		switch {
		case p.atIdent("reads"):
			p.next()
			if err := p.expectPunct("{"); err != nil {
				return err
			}
			for !p.at(lexer.Punct, "}") {
				re, err := p.readEntry()
				if err != nil {
					return err
				}
				tbl.Reads = append(tbl.Reads, re)
			}
			p.next() // }
		case p.atIdent("actions"):
			p.next()
			if err := p.expectPunct("{"); err != nil {
				return err
			}
			for !p.at(lexer.Punct, "}") {
				a, err := p.expectIdent()
				if err != nil {
					return err
				}
				if err := p.expectPunct(";"); err != nil {
					return err
				}
				tbl.Actions = append(tbl.Actions, a)
			}
			p.next() // }
		case p.atIdent("default_action"):
			p.next()
			if err := p.expectPunct(":"); err != nil {
				return err
			}
			a, err := p.expectIdent()
			if err != nil {
				return err
			}
			// Optional empty parameter list.
			if p.at(lexer.Punct, "(") {
				p.next()
				if err := p.expectPunct(")"); err != nil {
					return err
				}
			}
			if err := p.expectPunct(";"); err != nil {
				return err
			}
			tbl.Default = a
		case p.atIdent("size"):
			p.next()
			if err := p.expectPunct(":"); err != nil {
				return err
			}
			n, err := p.expectInt()
			if err != nil {
				return err
			}
			if err := p.expectPunct(";"); err != nil {
				return err
			}
			tbl.Size = n
		default:
			return p.errf("unexpected %s in table", p.cur())
		}
	}
	p.next() // }
	prog.Tables = append(prog.Tables, tbl)
	return nil
}

func (p *parser) readEntry() (ast.ReadEntry, error) {
	if p.atIdent("valid") {
		// valid(header) : exact;
		p.next()
		if err := p.expectPunct("("); err != nil {
			return ast.ReadEntry{}, err
		}
		h, err := p.headerRef()
		if err != nil {
			return ast.ReadEntry{}, err
		}
		if err := p.expectPunct(")"); err != nil {
			return ast.ReadEntry{}, err
		}
		if err := p.expectPunct(":"); err != nil {
			return ast.ReadEntry{}, err
		}
		// Match kind after valid() is typically "exact"; record as valid.
		if _, err := p.expectIdent(); err != nil {
			return ast.ReadEntry{}, err
		}
		if err := p.expectPunct(";"); err != nil {
			return ast.ReadEntry{}, err
		}
		return ast.ReadEntry{Header: &h, Match: ast.MatchValid}, nil
	}
	ref, err := p.fieldRef()
	if err != nil {
		return ast.ReadEntry{}, err
	}
	if err := p.expectPunct(":"); err != nil {
		return ast.ReadEntry{}, err
	}
	kind, err := p.expectIdent()
	if err != nil {
		return ast.ReadEntry{}, err
	}
	if err := p.expectPunct(";"); err != nil {
		return ast.ReadEntry{}, err
	}
	mk := ast.MatchKind(kind)
	switch mk {
	case ast.MatchExact, ast.MatchTernary, ast.MatchLPM, ast.MatchRange:
	case ast.MatchValid:
		return ast.ReadEntry{}, p.errf("valid match on field %s.%s: write valid(header)", ref.Instance, ref.Field)
	default:
		return ast.ReadEntry{}, p.errf("unknown match kind %q", kind)
	}
	return ast.ReadEntry{Field: &ref, Match: mk}, nil
}

func (p *parser) control(prog *ast.Program) error {
	p.next() // control
	name, err := p.expectIdent()
	if err != nil {
		return err
	}
	body, err := p.stmtBlock()
	if err != nil {
		return err
	}
	prog.Controls = append(prog.Controls, &ast.Control{Name: name, Body: body})
	return nil
}

func (p *parser) stmtBlock() ([]ast.Stmt, error) {
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	var out []ast.Stmt
	for !p.at(lexer.Punct, "}") {
		s, err := p.stmt()
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	p.next() // }
	return out, nil
}

func (p *parser) stmt() (ast.Stmt, error) {
	switch {
	case p.atIdent("apply"):
		p.next()
		if err := p.expectPunct("("); err != nil {
			return ast.Stmt{}, err
		}
		tbl, err := p.expectIdent()
		if err != nil {
			return ast.Stmt{}, err
		}
		if err := p.expectPunct(")"); err != nil {
			return ast.Stmt{}, err
		}
		s := ast.Stmt{Kind: ast.StmtApply, Table: tbl}
		if p.at(lexer.Punct, ";") {
			p.next()
			return s, nil
		}
		if err := p.expectPunct("{"); err != nil {
			return ast.Stmt{}, err
		}
		for !p.at(lexer.Punct, "}") {
			caseName, err := p.expectIdent()
			if err != nil {
				return ast.Stmt{}, err
			}
			body, err := p.stmtBlock()
			if err != nil {
				return ast.Stmt{}, err
			}
			ac := ast.ApplyCase{Body: body}
			switch caseName {
			case "hit":
				ac.Hit = true
			case "miss":
				ac.Miss = true
			default:
				ac.Action = caseName
			}
			s.ApplyCases = append(s.ApplyCases, ac)
		}
		p.next() // }
		return s, nil
	case p.atIdent("if"):
		p.next()
		if err := p.expectPunct("("); err != nil {
			return ast.Stmt{}, err
		}
		cond, err := p.boolExpr()
		if err != nil {
			return ast.Stmt{}, err
		}
		if err := p.expectPunct(")"); err != nil {
			return ast.Stmt{}, err
		}
		then, err := p.stmtBlock()
		if err != nil {
			return ast.Stmt{}, err
		}
		s := ast.Stmt{Kind: ast.StmtIf, Cond: cond, Then: then}
		if p.atIdent("else") {
			p.next()
			if p.atIdent("if") {
				// else if: parse as a nested single if statement.
				nested, err := p.stmt()
				if err != nil {
					return ast.Stmt{}, err
				}
				s.Else = []ast.Stmt{nested}
			} else {
				els, err := p.stmtBlock()
				if err != nil {
					return ast.Stmt{}, err
				}
				s.Else = els
			}
		}
		return s, nil
	case p.atIdent("else"):
		return ast.Stmt{}, p.errf("else without if")
	default:
		// Control function call: name();
		name, err := p.expectIdent()
		if err != nil {
			return ast.Stmt{}, err
		}
		if err := p.expectPunct("("); err != nil {
			return ast.Stmt{}, err
		}
		if err := p.expectPunct(")"); err != nil {
			return ast.Stmt{}, err
		}
		if err := p.expectPunct(";"); err != nil {
			return ast.Stmt{}, err
		}
		return ast.Stmt{Kind: ast.StmtCall, Control: name}, nil
	}
}

// boolExpr parses or-expressions (lowest precedence).
func (p *parser) boolExpr() (ast.BoolExpr, error) {
	left, err := p.boolAnd()
	if err != nil {
		return ast.BoolExpr{}, err
	}
	for p.atIdent("or") || p.at(lexer.Punct, "||") {
		p.next()
		right, err := p.boolAnd()
		if err != nil {
			return ast.BoolExpr{}, err
		}
		l := left
		left = ast.BoolExpr{Kind: ast.BoolOr, A: &l, B: &right}
	}
	return left, nil
}

func (p *parser) boolAnd() (ast.BoolExpr, error) {
	left, err := p.boolUnary()
	if err != nil {
		return ast.BoolExpr{}, err
	}
	for p.atIdent("and") || p.at(lexer.Punct, "&&") {
		p.next()
		right, err := p.boolUnary()
		if err != nil {
			return ast.BoolExpr{}, err
		}
		l := left
		left = ast.BoolExpr{Kind: ast.BoolAnd, A: &l, B: &right}
	}
	return left, nil
}

func (p *parser) boolUnary() (ast.BoolExpr, error) {
	if p.atIdent("not") || p.at(lexer.Punct, "!") {
		p.next()
		inner, err := p.boolUnary()
		if err != nil {
			return ast.BoolExpr{}, err
		}
		return ast.BoolExpr{Kind: ast.BoolNot, A: &inner}, nil
	}
	if p.at(lexer.Punct, "(") {
		// Could be a parenthesized bool expr; comparisons never start with (.
		p.next()
		inner, err := p.boolExpr()
		if err != nil {
			return ast.BoolExpr{}, err
		}
		if err := p.expectPunct(")"); err != nil {
			return ast.BoolExpr{}, err
		}
		return inner, nil
	}
	if p.atIdent("valid") {
		p.next()
		if err := p.expectPunct("("); err != nil {
			return ast.BoolExpr{}, err
		}
		h, err := p.headerRef()
		if err != nil {
			return ast.BoolExpr{}, err
		}
		if err := p.expectPunct(")"); err != nil {
			return ast.BoolExpr{}, err
		}
		return ast.BoolExpr{Kind: ast.BoolValid, Valid: &h}, nil
	}
	// Comparison: expr op expr.
	left, err := p.exprArg(nil)
	if err != nil {
		return ast.BoolExpr{}, err
	}
	opTok := p.cur()
	var op ast.CmpOp
	switch opTok.Text {
	case "==", "!=", "<", "<=", ">", ">=":
		op = ast.CmpOp(opTok.Text)
	default:
		return ast.BoolExpr{}, p.errf("expected comparison operator, found %s", opTok)
	}
	p.next()
	right, err := p.exprArg(nil)
	if err != nil {
		return ast.BoolExpr{}, err
	}
	return ast.BoolExpr{Kind: ast.BoolCmp, Left: &left, Op: op, Right: &right}, nil
}

func (p *parser) register(prog *ast.Program) error {
	p.next() // register
	name, err := p.expectIdent()
	if err != nil {
		return err
	}
	if err := p.expectPunct("{"); err != nil {
		return err
	}
	r := &ast.Register{Name: name}
	for !p.at(lexer.Punct, "}") {
		key, err := p.expectIdent()
		if err != nil {
			return err
		}
		if err := p.expectPunct(":"); err != nil {
			return err
		}
		switch key {
		case "width":
			r.Width, err = p.expectInt()
		case "instance_count":
			r.InstanceCount, err = p.expectInt()
		case "direct":
			r.DirectTable, err = p.expectIdent()
		default:
			return p.errf("unknown register property %q", key)
		}
		if err != nil {
			return err
		}
		if err := p.expectPunct(";"); err != nil {
			return err
		}
	}
	p.next() // }
	prog.Registers = append(prog.Registers, r)
	return nil
}

func (p *parser) counter(prog *ast.Program) error {
	p.next() // counter
	name, err := p.expectIdent()
	if err != nil {
		return err
	}
	if err := p.expectPunct("{"); err != nil {
		return err
	}
	c := &ast.Counter{Name: name}
	for !p.at(lexer.Punct, "}") {
		key, err := p.expectIdent()
		if err != nil {
			return err
		}
		if err := p.expectPunct(":"); err != nil {
			return err
		}
		switch key {
		case "type":
			kind, err := p.expectIdent()
			if err != nil {
				return err
			}
			c.Kind = ast.CounterKind(kind)
		case "instance_count":
			c.InstanceCount, err = p.expectInt()
			if err != nil {
				return err
			}
		case "direct":
			c.DirectTable, err = p.expectIdent()
			if err != nil {
				return err
			}
		default:
			return p.errf("unknown counter property %q", key)
		}
		if err := p.expectPunct(";"); err != nil {
			return err
		}
	}
	if c.Kind == "" {
		return p.errf("counter %s has no type", name)
	}
	p.next() // }
	prog.Counters = append(prog.Counters, c)
	return nil
}

func (p *parser) meter(prog *ast.Program) error {
	p.next() // meter
	name, err := p.expectIdent()
	if err != nil {
		return err
	}
	if err := p.expectPunct("{"); err != nil {
		return err
	}
	m := &ast.Meter{Name: name}
	for !p.at(lexer.Punct, "}") {
		key, err := p.expectIdent()
		if err != nil {
			return err
		}
		if err := p.expectPunct(":"); err != nil {
			return err
		}
		switch key {
		case "type":
			kind, err := p.expectIdent()
			if err != nil {
				return err
			}
			m.Kind = ast.MeterKind(kind)
		case "instance_count":
			m.InstanceCount, err = p.expectInt()
			if err != nil {
				return err
			}
		case "direct":
			m.DirectTable, err = p.expectIdent()
			if err != nil {
				return err
			}
		default:
			return p.errf("unknown meter property %q", key)
		}
		if err := p.expectPunct(";"); err != nil {
			return err
		}
	}
	if m.Kind == "" {
		return p.errf("meter %s has no type", name)
	}
	p.next() // }
	prog.Meters = append(prog.Meters, m)
	return nil
}
