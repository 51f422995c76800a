// Package parser implements a recursive-descent parser for the P4_14 subset
// defined in package ast. It accepts the four network functions evaluated by
// the HyPer4 paper and the source emitted by the persona generator.
package parser

import (
	"fmt"
	"math/big"

	"hyper4/internal/p4/ast"
	"hyper4/internal/p4/lexer"
)

// Parse parses P4_14 source into an AST. name is used in diagnostics.
func Parse(name, src string) (*ast.Program, error) {
	toks, err := lexer.New(src).All()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	p := &parser{name: name, toks: toks}
	prog := &ast.Program{Name: name}
	for !p.at(lexer.EOF, "") {
		if err := p.topLevel(prog); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
	}
	return prog, nil
}

type parser struct {
	name string
	toks []lexer.Token
	pos  int
}

func (p *parser) cur() lexer.Token { return p.toks[p.pos] }

func (p *parser) at(k lexer.Kind, text string) bool {
	t := p.cur()
	return t.Kind == k && (text == "" || t.Text == text)
}

func (p *parser) atIdent(text string) bool { return p.at(lexer.Ident, text) }

func (p *parser) next() lexer.Token {
	t := p.toks[p.pos]
	if t.Kind != lexer.EOF {
		p.pos++
	}
	return t
}

func (p *parser) errf(format string, args ...any) error {
	t := p.cur()
	return fmt.Errorf("line %d: %s", t.Line, fmt.Sprintf(format, args...))
}

func (p *parser) expectPunct(s string) error {
	if !p.at(lexer.Punct, s) {
		return p.errf("expected %q, found %s", s, p.cur())
	}
	p.next()
	return nil
}

func (p *parser) expectIdent() (string, error) {
	if p.cur().Kind != lexer.Ident {
		return "", p.errf("expected identifier, found %s", p.cur())
	}
	return p.next().Text, nil
}

func (p *parser) expectKeyword(kw string) error {
	if !p.atIdent(kw) {
		return p.errf("expected %q, found %s", kw, p.cur())
	}
	p.next()
	return nil
}

func (p *parser) expectNumber() (*big.Int, error) {
	if p.cur().Kind != lexer.Number {
		return nil, p.errf("expected number, found %s", p.cur())
	}
	return p.next().Num, nil
}

func (p *parser) expectInt() (int, error) {
	n, err := p.expectNumber()
	if err != nil {
		return 0, err
	}
	if !n.IsInt64() {
		return 0, p.errf("number %v too large", n)
	}
	return int(n.Int64()), nil
}

func (p *parser) topLevel(prog *ast.Program) error {
	switch {
	case p.atIdent("header_type"):
		return p.headerType(prog)
	case p.atIdent("header"):
		return p.instance(prog, false)
	case p.atIdent("metadata"):
		return p.instance(prog, true)
	case p.atIdent("field_list"):
		return p.fieldList(prog)
	case p.atIdent("field_list_calculation"):
		return p.fieldListCalc(prog)
	case p.atIdent("calculated_field"):
		return p.calculatedField(prog)
	case p.atIdent("parser"):
		return p.parserState(prog)
	case p.atIdent("action"):
		return p.action(prog)
	case p.atIdent("table"):
		return p.table(prog)
	case p.atIdent("control"):
		return p.control(prog)
	case p.atIdent("register"):
		return p.register(prog)
	case p.atIdent("counter"):
		return p.counter(prog)
	case p.atIdent("meter"):
		return p.meter(prog)
	default:
		return p.errf("unexpected %s at top level", p.cur())
	}
}

func (p *parser) headerType(prog *ast.Program) error {
	p.next() // header_type
	name, err := p.expectIdent()
	if err != nil {
		return err
	}
	if err := p.expectPunct("{"); err != nil {
		return err
	}
	if err := p.expectKeyword("fields"); err != nil {
		return err
	}
	if err := p.expectPunct("{"); err != nil {
		return err
	}
	ht := &ast.HeaderType{Name: name}
	for !p.at(lexer.Punct, "}") {
		fname, err := p.expectIdent()
		if err != nil {
			return err
		}
		if err := p.expectPunct(":"); err != nil {
			return err
		}
		w, err := p.expectInt()
		if err != nil {
			return err
		}
		if err := p.expectPunct(";"); err != nil {
			return err
		}
		ht.Fields = append(ht.Fields, ast.FieldDecl{Name: fname, Width: w})
	}
	p.next() // }
	if err := p.expectPunct("}"); err != nil {
		return err
	}
	prog.HeaderTypes = append(prog.HeaderTypes, ht)
	return nil
}

func (p *parser) instance(prog *ast.Program, metadata bool) error {
	p.next() // header | metadata
	typeName, err := p.expectIdent()
	if err != nil {
		return err
	}
	name, err := p.expectIdent()
	if err != nil {
		return err
	}
	inst := &ast.Instance{Name: name, TypeName: typeName, Metadata: metadata}
	if p.at(lexer.Punct, "[") {
		if metadata {
			return p.errf("metadata cannot be a stack")
		}
		p.next()
		n, err := p.expectInt()
		if err != nil {
			return err
		}
		if err := p.expectPunct("]"); err != nil {
			return err
		}
		inst.Count = n
	}
	if err := p.expectPunct(";"); err != nil {
		return err
	}
	prog.Instances = append(prog.Instances, inst)
	return nil
}

// fieldRef parses inst.field, inst[idx].field, inst[next].field, latest.field.
func (p *parser) fieldRef() (ast.FieldRef, error) {
	inst, err := p.expectIdent()
	if err != nil {
		return ast.FieldRef{}, err
	}
	ref := ast.FieldRef{Instance: inst, Index: ast.IndexNone}
	if p.at(lexer.Punct, "[") {
		p.next()
		switch {
		case p.atIdent("next"):
			p.next()
			ref.Index = ast.IndexNext
		case p.atIdent("last"):
			p.next()
			ref.Index = ast.IndexLast
		default:
			idx, err := p.expectInt()
			if err != nil {
				return ast.FieldRef{}, err
			}
			ref.Index = idx
		}
		if err := p.expectPunct("]"); err != nil {
			return ast.FieldRef{}, err
		}
	}
	if err := p.expectPunct("."); err != nil {
		return ast.FieldRef{}, err
	}
	f, err := p.expectIdent()
	if err != nil {
		return ast.FieldRef{}, err
	}
	ref.Field = f
	return ref, nil
}

// headerRef parses inst or inst[idx] or inst[next]/inst[last].
func (p *parser) headerRef() (ast.HeaderRef, error) {
	inst, err := p.expectIdent()
	if err != nil {
		return ast.HeaderRef{}, err
	}
	ref := ast.HeaderRef{Instance: inst, Index: ast.IndexNone}
	if p.at(lexer.Punct, "[") {
		p.next()
		switch {
		case p.atIdent("next"):
			p.next()
			ref.Index = ast.IndexNext
		case p.atIdent("last"):
			p.next()
			ref.Index = ast.IndexLast
		default:
			idx, err := p.expectInt()
			if err != nil {
				return ast.HeaderRef{}, err
			}
			ref.Index = idx
		}
		if err := p.expectPunct("]"); err != nil {
			return ast.HeaderRef{}, err
		}
	}
	return ref, nil
}

func (p *parser) fieldList(prog *ast.Program) error {
	p.next() // field_list
	name, err := p.expectIdent()
	if err != nil {
		return err
	}
	if err := p.expectPunct("{"); err != nil {
		return err
	}
	fl := &ast.FieldList{Name: name}
	for !p.at(lexer.Punct, "}") {
		if p.atIdent("payload") {
			p.next()
			fl.Entries = append(fl.Entries, ast.FieldListEntry{Payload: true})
		} else {
			// Either a field ref (has a dot) or a nested list name.
			save := p.pos
			ident, err := p.expectIdent()
			if err != nil {
				return err
			}
			if p.at(lexer.Punct, ".") || p.at(lexer.Punct, "[") {
				p.pos = save
				ref, err := p.fieldRef()
				if err != nil {
					return err
				}
				fl.Entries = append(fl.Entries, ast.FieldListEntry{Field: &ref})
			} else {
				fl.Entries = append(fl.Entries, ast.FieldListEntry{SubList: ident})
			}
		}
		if err := p.expectPunct(";"); err != nil {
			return err
		}
	}
	p.next() // }
	prog.FieldLists = append(prog.FieldLists, fl)
	return nil
}

func (p *parser) fieldListCalc(prog *ast.Program) error {
	p.next() // field_list_calculation
	name, err := p.expectIdent()
	if err != nil {
		return err
	}
	if err := p.expectPunct("{"); err != nil {
		return err
	}
	calc := &ast.FieldListCalc{Name: name}
	for !p.at(lexer.Punct, "}") {
		key, err := p.expectIdent()
		if err != nil {
			return err
		}
		switch key {
		case "input":
			if err := p.expectPunct("{"); err != nil {
				return err
			}
			in, err := p.expectIdent()
			if err != nil {
				return err
			}
			if err := p.expectPunct(";"); err != nil {
				return err
			}
			if err := p.expectPunct("}"); err != nil {
				return err
			}
			calc.Input = in
		case "algorithm":
			if err := p.expectPunct(":"); err != nil {
				return err
			}
			algo, err := p.expectIdent()
			if err != nil {
				return err
			}
			if err := p.expectPunct(";"); err != nil {
				return err
			}
			calc.Algorithm = ast.ChecksumAlgo(algo)
		case "output_width":
			if err := p.expectPunct(":"); err != nil {
				return err
			}
			w, err := p.expectInt()
			if err != nil {
				return err
			}
			if err := p.expectPunct(";"); err != nil {
				return err
			}
			calc.OutputWidth = w
		default:
			return p.errf("unknown field_list_calculation property %q", key)
		}
	}
	if calc.Input == "" || calc.Algorithm == "" {
		return p.errf("field_list_calculation %s needs an input and an algorithm", name)
	}
	p.next() // }
	prog.FieldListCalcs = append(prog.FieldListCalcs, calc)
	return nil
}

func (p *parser) calculatedField(prog *ast.Program) error {
	p.next() // calculated_field
	ref, err := p.fieldRef()
	if err != nil {
		return err
	}
	if err := p.expectPunct("{"); err != nil {
		return err
	}
	cf := &ast.CalculatedField{Field: ref}
	for !p.at(lexer.Punct, "}") {
		verb, err := p.expectIdent()
		if err != nil {
			return err
		}
		calc, err := p.expectIdent()
		if err != nil {
			return err
		}
		switch verb {
		case "verify":
			cf.Verify = calc
		case "update":
			cf.Update = calc
		default:
			return p.errf("unknown calculated_field verb %q", verb)
		}
		if p.atIdent("if") {
			p.next()
			if err := p.expectPunct("("); err != nil {
				return err
			}
			if err := p.expectKeyword("valid"); err != nil {
				return err
			}
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
			if err := p.expectPunct(")"); err != nil {
				return err
			}
			cf.IfValid = &h
		}
		if err := p.expectPunct(";"); err != nil {
			return err
		}
	}
	p.next() // }
	prog.CalculatedFields = append(prog.CalculatedFields, cf)
	return nil
}
