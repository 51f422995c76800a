// Package pretty renders a P4 AST back to P4_14 source text. The persona's
// source is printed through this package for hp4gen and for the Figure 7
// line counts; the persona tests hold that it parses back to the AST the
// generator built.
package pretty

import (
	"fmt"
	"strings"

	"hyper4/internal/p4/ast"
)

// Print renders a whole program.
func Print(p *ast.Program) string {
	var b strings.Builder
	for _, ht := range p.HeaderTypes {
		printHeaderType(&b, ht)
	}
	for _, inst := range p.Instances {
		printInstance(&b, inst)
	}
	if len(p.Instances) > 0 {
		b.WriteString("\n")
	}
	for _, fl := range p.FieldLists {
		printFieldList(&b, fl)
	}
	for _, c := range p.FieldListCalcs {
		printCalc(&b, c)
	}
	for _, cf := range p.CalculatedFields {
		printCalculatedField(&b, cf)
	}
	for _, r := range p.Registers {
		printRegister(&b, r)
	}
	for _, c := range p.Counters {
		printCounter(&b, c)
	}
	for _, m := range p.Meters {
		printMeter(&b, m)
	}
	for _, st := range p.ParserStates {
		printParserState(&b, st)
	}
	for _, a := range p.Actions {
		printAction(&b, a)
	}
	for _, t := range p.Tables {
		printTable(&b, t)
	}
	for _, c := range p.Controls {
		printControl(&b, c)
	}
	return b.String()
}

// CountLoC counts non-blank lines, the measure Figure 7 reports.
func CountLoC(src string) int {
	n := 0
	for _, line := range strings.Split(src, "\n") {
		if strings.TrimSpace(line) != "" {
			n++
		}
	}
	return n
}

func printHeaderType(b *strings.Builder, ht *ast.HeaderType) {
	fmt.Fprintf(b, "header_type %s {\n    fields {\n", ht.Name)
	for _, f := range ht.Fields {
		fmt.Fprintf(b, "        %s : %d;\n", f.Name, f.Width)
	}
	b.WriteString("    }\n}\n\n")
}

func printInstance(b *strings.Builder, inst *ast.Instance) {
	kw := "header"
	if inst.Metadata {
		kw = "metadata"
	}
	if inst.IsStack() {
		fmt.Fprintf(b, "%s %s %s[%d];\n", kw, inst.TypeName, inst.Name, inst.Count)
	} else {
		fmt.Fprintf(b, "%s %s %s;\n", kw, inst.TypeName, inst.Name)
	}
}

func printFieldList(b *strings.Builder, fl *ast.FieldList) {
	fmt.Fprintf(b, "field_list %s {\n", fl.Name)
	for _, e := range fl.Entries {
		switch {
		case e.Payload:
			b.WriteString("    payload;\n")
		case e.SubList != "":
			fmt.Fprintf(b, "    %s;\n", e.SubList)
		case e.Field != nil:
			fmt.Fprintf(b, "    %s;\n", fieldRef(*e.Field))
		}
	}
	b.WriteString("}\n\n")
}

func printCalc(b *strings.Builder, c *ast.FieldListCalc) {
	fmt.Fprintf(b, "field_list_calculation %s {\n    input {\n        %s;\n    }\n    algorithm : %s;\n    output_width : %d;\n}\n\n",
		c.Name, c.Input, c.Algorithm, c.OutputWidth)
}

func printCalculatedField(b *strings.Builder, cf *ast.CalculatedField) {
	fmt.Fprintf(b, "calculated_field %s {\n", fieldRef(cf.Field))
	for _, vu := range []struct{ verb, calc string }{{"verify", cf.Verify}, {"update", cf.Update}} {
		if vu.calc == "" {
			continue
		}
		fmt.Fprintf(b, "    %s %s", vu.verb, vu.calc)
		if cf.IfValid != nil {
			fmt.Fprintf(b, " if (valid(%s))", headerRef(*cf.IfValid))
		}
		b.WriteString(";\n")
	}
	b.WriteString("}\n\n")
}

func printRegister(b *strings.Builder, r *ast.Register) {
	fmt.Fprintf(b, "register %s {\n    width : %d;\n    instance_count : %d;\n", r.Name, r.Width, r.InstanceCount)
	if r.DirectTable != "" {
		fmt.Fprintf(b, "    direct : %s;\n", r.DirectTable)
	}
	b.WriteString("}\n\n")
}

func printCounter(b *strings.Builder, c *ast.Counter) {
	fmt.Fprintf(b, "counter %s {\n    type : %s;\n    instance_count : %d;\n", c.Name, c.Kind, c.InstanceCount)
	if c.DirectTable != "" {
		fmt.Fprintf(b, "    direct : %s;\n", c.DirectTable)
	}
	b.WriteString("}\n\n")
}

func printMeter(b *strings.Builder, m *ast.Meter) {
	fmt.Fprintf(b, "meter %s {\n    type : %s;\n    instance_count : %d;\n", m.Name, m.Kind, m.InstanceCount)
	if m.DirectTable != "" {
		fmt.Fprintf(b, "    direct : %s;\n", m.DirectTable)
	}
	b.WriteString("}\n\n")
}

func printParserState(b *strings.Builder, st *ast.ParserState) {
	fmt.Fprintf(b, "parser %s {\n", st.Name)
	for _, s := range st.Statements {
		if s.Extract != nil {
			fmt.Fprintf(b, "    extract(%s);\n", headerRef(*s.Extract))
		} else {
			fmt.Fprintf(b, "    set_metadata(%s, %s);\n", fieldRef(s.SetField), expr(s.SetValue))
		}
	}
	switch st.Return.Kind {
	case ast.ReturnDirect:
		fmt.Fprintf(b, "    return %s;\n", st.Return.State)
	case ast.ReturnSelect:
		keys := make([]string, len(st.Return.SelectKeys))
		for i, k := range st.Return.SelectKeys {
			switch {
			case k.IsCurrent:
				keys[i] = fmt.Sprintf("current(%d, %d)", k.CurrentOffset, k.CurrentWidth)
			case k.Latest != "":
				keys[i] = "latest." + k.Latest
			default:
				keys[i] = fieldRef(*k.Field)
			}
		}
		fmt.Fprintf(b, "    return select(%s) {\n", strings.Join(keys, ", "))
		for _, c := range st.Return.Cases {
			if c.Default {
				fmt.Fprintf(b, "        default : %s;\n", c.State)
				continue
			}
			vals := make([]string, len(c.Values))
			for i, v := range c.Values {
				vals[i] = fmt.Sprintf("0x%x", v)
				if c.Masks[i] != nil {
					vals[i] += fmt.Sprintf(" mask 0x%x", c.Masks[i])
				}
			}
			fmt.Fprintf(b, "        %s : %s;\n", strings.Join(vals, ", "), c.State)
		}
		b.WriteString("    }\n")
	}
	b.WriteString("}\n\n")
}

func printAction(b *strings.Builder, a *ast.Action) {
	fmt.Fprintf(b, "action %s(%s) {\n", a.Name, strings.Join(a.Params, ", "))
	for _, call := range a.Body {
		args := make([]string, len(call.Args))
		for i, arg := range call.Args {
			args[i] = expr(arg)
		}
		fmt.Fprintf(b, "    %s(%s);\n", call.Name, strings.Join(args, ", "))
	}
	b.WriteString("}\n\n")
}

func printTable(b *strings.Builder, t *ast.Table) {
	fmt.Fprintf(b, "table %s {\n", t.Name)
	if len(t.Reads) > 0 {
		b.WriteString("    reads {\n")
		for _, r := range t.Reads {
			if r.Match == ast.MatchValid {
				fmt.Fprintf(b, "        valid(%s) : exact;\n", headerRef(*r.Header))
			} else {
				fmt.Fprintf(b, "        %s : %s;\n", fieldRef(*r.Field), r.Match)
			}
		}
		b.WriteString("    }\n")
	}
	b.WriteString("    actions {\n")
	for _, a := range t.Actions {
		fmt.Fprintf(b, "        %s;\n", a)
	}
	b.WriteString("    }\n")
	if t.Default != "" {
		fmt.Fprintf(b, "    default_action : %s;\n", t.Default)
	}
	if t.Size > 0 {
		fmt.Fprintf(b, "    size : %d;\n", t.Size)
	}
	b.WriteString("}\n\n")
}

func printControl(b *strings.Builder, c *ast.Control) {
	fmt.Fprintf(b, "control %s {\n", c.Name)
	printStmts(b, c.Body, 1)
	b.WriteString("}\n\n")
}

func printStmts(b *strings.Builder, stmts []ast.Stmt, depth int) {
	ind := strings.Repeat("    ", depth)
	for _, s := range stmts {
		switch s.Kind {
		case ast.StmtApply:
			if len(s.ApplyCases) == 0 {
				fmt.Fprintf(b, "%sapply(%s);\n", ind, s.Table)
				continue
			}
			fmt.Fprintf(b, "%sapply(%s) {\n", ind, s.Table)
			for _, c := range s.ApplyCases {
				label := c.Action
				if c.Hit {
					label = "hit"
				}
				if c.Miss {
					label = "miss"
				}
				fmt.Fprintf(b, "%s    %s {\n", ind, label)
				printStmts(b, c.Body, depth+2)
				fmt.Fprintf(b, "%s    }\n", ind)
			}
			fmt.Fprintf(b, "%s}\n", ind)
		case ast.StmtIf:
			fmt.Fprintf(b, "%sif (%s) {\n", ind, boolExpr(s.Cond))
			printStmts(b, s.Then, depth+1)
			if len(s.Else) > 0 {
				fmt.Fprintf(b, "%s} else {\n", ind)
				printStmts(b, s.Else, depth+1)
			}
			fmt.Fprintf(b, "%s}\n", ind)
		case ast.StmtCall:
			fmt.Fprintf(b, "%s%s();\n", ind, s.Control)
		}
	}
}

func fieldRef(r ast.FieldRef) string {
	switch {
	case r.Index == ast.IndexNext:
		return fmt.Sprintf("%s[next].%s", r.Instance, r.Field)
	case r.Index == ast.IndexLast:
		return fmt.Sprintf("%s[last].%s", r.Instance, r.Field)
	case r.Index >= 0:
		return fmt.Sprintf("%s[%d].%s", r.Instance, r.Index, r.Field)
	default:
		return fmt.Sprintf("%s.%s", r.Instance, r.Field)
	}
}

func headerRef(r ast.HeaderRef) string {
	switch {
	case r.Index == ast.IndexNext:
		return r.Instance + "[next]"
	case r.Index == ast.IndexLast:
		return r.Instance + "[last]"
	case r.Index >= 0:
		return fmt.Sprintf("%s[%d]", r.Instance, r.Index)
	default:
		return r.Instance
	}
}

func expr(e ast.Expr) string {
	switch e.Kind {
	case ast.ExprConst:
		return fmt.Sprintf("0x%x", e.Const)
	case ast.ExprField:
		return fieldRef(e.Field)
	case ast.ExprParam:
		return e.Param
	case ast.ExprHeader:
		return headerRef(e.Header)
	case ast.ExprFieldList:
		return e.FieldList
	case ast.ExprName:
		return e.Name
	}
	return "?"
}

func boolExpr(b ast.BoolExpr) string {
	switch b.Kind {
	case ast.BoolCmp:
		return fmt.Sprintf("%s %s %s", expr(*b.Left), b.Op, expr(*b.Right))
	case ast.BoolValid:
		return fmt.Sprintf("valid(%s)", headerRef(*b.Valid))
	case ast.BoolAnd:
		return fmt.Sprintf("(%s) and (%s)", boolExpr(*b.A), boolExpr(*b.B))
	case ast.BoolOr:
		return fmt.Sprintf("(%s) or (%s)", boolExpr(*b.A), boolExpr(*b.B))
	case ast.BoolNot:
		return fmt.Sprintf("not (%s)", boolExpr(*b.A))
	}
	return "?"
}
