package persona

import (
	"fmt"
	"strings"

	"hyper4/internal/p4/ast"
	"hyper4/internal/p4/hlir"
)

// virtnetAndEgress emits the virtual-networking table (§4.6) and the egress
// machinery: recirculation, parsed-representation resize, and write-back
// (§4.4).
func (b *builder) virtnetAndEgress() {
	// Virtual networking: map (program, virtual egress port) to a physical
	// port, a virtual link to another virtual device, or a drop.
	b.prog.Actions = append(b.prog.Actions,
		&ast.Action{
			Name:   ActPhysFwd,
			Params: []string{"port"},
			Body: []ast.PrimitiveCall{
				call("modify_field", fexpr(hlir.StandardMetadata, hlir.FieldEgressSpec), pexpr("port")),
			},
		},
		&ast.Action{
			Name:   ActVirtFwd,
			Params: []string{"next_program", "next_vingress", "port"},
			Body: []ast.PrimitiveCall{
				call("modify_field", fexpr(InstMeta, "program"), pexpr("next_program")),
				call("modify_field", fexpr(InstMeta, "vdev_ingress"), pexpr("next_vingress")),
				call("modify_field", fexpr(InstMeta, "recirc"), cexpr(1)),
				// The packet must traverse egress to reach the recirculation
				// point; send it to a harmless port.
				call("modify_field", fexpr(hlir.StandardMetadata, hlir.FieldEgressSpec), pexpr("port")),
			},
		},
		&ast.Action{
			Name: ActVDrop,
			Body: []ast.PrimitiveCall{call("drop")},
		},
	)
	b.prog.Tables = append(b.prog.Tables, &ast.Table{
		Name: TblVirtnet,
		Reads: []ast.ReadEntry{
			{Field: ptr(fref(InstMeta, "program")), Match: ast.MatchExact},
			{Field: ptr(fref(InstMeta, "vdev_port")), Match: ast.MatchExact},
		},
		Actions: []string{ActPhysFwd, ActVirtFwd, ActMcastStart, ActVDrop},
		Default: ActVDrop,
		Size:    256,
	})

	// Recirculation trigger (egress).
	b.prog.Actions = append(b.prog.Actions, &ast.Action{
		Name: ActDoRecirc,
		Body: []ast.PrimitiveCall{
			call("modify_field", fexpr(InstMeta, "recirc"), cexpr(0)),
			call("recirculate", nexpr(FLRecirc)),
		},
	})
	b.prog.Tables = append(b.prog.Tables, &ast.Table{
		Name:    TblRecirc,
		Actions: []string{ActDoRecirc},
		Default: ActDoRecirc,
		Size:    1,
	})

	// Sticky-drop enforcement: packets flagged by a_exec_drop bypass the
	// virtual network entirely.
	b.prog.Tables = append(b.prog.Tables, &ast.Table{
		Name:    TblDropped,
		Actions: []string{ActVDrop},
		Default: ActVDrop,
		Size:    1,
	})

	b.csumMachinery()

	if b.c.FixedParser {
		return
	}

	// Resize: force the parsed representation to wb_bytes one-byte headers
	// (the "80 actions that each resize the parsed representation" of §6.2).
	for _, n := range b.c.ByteCounts() {
		a := &ast.Action{Name: ResizeAction(n)}
		for i := 0; i < n; i++ {
			a.Body = append(a.Body, call("add_header", ast.Expr{Kind: ast.ExprHeader, Header: ast.HeaderRef{Instance: InstExt, Index: i}}))
		}
		for i := n; i < b.c.ParseMax; i++ {
			a.Body = append(a.Body, call("remove_header", ast.Expr{Kind: ast.ExprHeader, Header: ast.HeaderRef{Instance: InstExt, Index: i}}))
		}
		b.prog.Actions = append(b.prog.Actions, a)
	}
	var resizeActs, wbActs []string
	for _, n := range b.c.ByteCounts() {
		resizeActs = append(resizeActs, ResizeAction(n))
		wbActs = append(wbActs, WritebackAction(n))
	}
	b.prog.Tables = append(b.prog.Tables, &ast.Table{
		Name: TblResize,
		Reads: []ast.ReadEntry{
			{Field: ptr(fref(InstMeta, "wb_bytes")), Match: ast.MatchExact},
		},
		Actions: resizeActs,
		Size:    len(b.c.ByteCounts()) + 1,
	})

	// Write-back (§4.4): copy the proxy metadata field back into the stack
	// of one-byte headers before deparsing.
	ew := b.c.ExtractedWidth()
	for _, n := range b.c.ByteCounts() {
		a := &ast.Action{Name: WritebackAction(n)}
		for i := 0; i < n; i++ {
			sh := int64(ew - 8*(i+1))
			a.Body = append(a.Body,
				call("shift_right", fexpr(InstScratch, "tmp"), fexpr(InstData, "extracted"), cexpr(sh)),
				call("modify_field", fexprIdx(InstExt, i, "b"), fexpr(InstScratch, "tmp")),
			)
		}
		b.prog.Actions = append(b.prog.Actions, a)
	}
	b.prog.Tables = append(b.prog.Tables, &ast.Table{
		Name: TblWriteback,
		Reads: []ast.ReadEntry{
			{Field: ptr(fref(InstMeta, "wb_bytes")), Match: ast.MatchExact},
		},
		Actions: wbActs,
		Size:    len(b.c.ByteCounts()) + 1,
	})
}

// csumMachinery emits the IPv4 header-checksum fix-up of §5.3 ("we can
// 'cheat' by directly adding support for the checksum requirements of well
// known protocols. This is what we have done with the IPv4 checksum field."):
// an egress table whose per-program entries recompute a csum16 over ten
// 16-bit words of the extracted-data field.
func (b *builder) csumMachinery() {
	ext := fexpr(InstData, "extracted")
	tmp := fexpr(InstScratch, "tmp")
	acc := fexpr(InstScratch, "acc")
	slshift := fexpr(InstScratch, "slshift")

	a := &ast.Action{
		Name: ActIPv4Csum,
		// ncmask zeroes the checksum field; shift0 right-aligns word 0 of
		// the header; cshift left-aligns the result into the checksum field.
		Params: []string{"ncmask", "shift0", "cshift"},
		Body: []ast.PrimitiveCall{
			call("bit_and", ext, ext, pexpr("ncmask")),
			call("modify_field", acc, cexpr(0)),
			call("modify_field", slshift, pexpr("shift0")),
		},
	}
	for i := 0; i < 10; i++ {
		a.Body = append(a.Body,
			call("shift_right", tmp, ext, slshift),
			call("bit_and", tmp, tmp, cexpr(0xffff)),
			call("add_to_field", acc, tmp),
			call("subtract_from_field", slshift, cexpr(16)),
		)
	}
	for i := 0; i < 3; i++ {
		a.Body = append(a.Body,
			call("shift_right", tmp, acc, cexpr(16)),
			call("bit_and", acc, acc, cexpr(0xffff)),
			call("add_to_field", acc, tmp),
		)
	}
	a.Body = append(a.Body,
		call("bit_xor", acc, acc, cexpr(0xffff)),
		call("modify_field", tmp, acc),
		call("shift_left", tmp, tmp, pexpr("cshift")),
		call("bit_or", ext, ext, tmp),
	)
	b.prog.Actions = append(b.prog.Actions, a)
	b.prog.Tables = append(b.prog.Tables, &ast.Table{
		Name: TblCsum,
		Reads: []ast.ReadEntry{
			{Field: ptr(fref(InstMeta, "program")), Match: ast.MatchExact},
		},
		Actions: []string{ActIPv4Csum},
		Size:    64,
	})
}

// controls assembles the ingress and egress control flow of Figure 6.
func (b *builder) controls() {
	var ing []ast.Stmt
	// Setup phase: assemble bytes, assign a virtual device, police the
	// device's buffer share (§4.5), walk the emulated parse tree.
	ing = append(ing, applyStmt(TblNorm))
	ing = append(ing, ifEq(InstMeta, "program", 0, applyStmt(TblAssign)))
	ing = append(ing, applyStmt(TblPolice))

	var guarded []ast.Stmt
	guarded = append(guarded, applyStmt(TblParseCtrl))
	// Match-action phase: K unrolled stages.
	for i := 1; i <= b.c.Stages; i++ {
		stage := b.stageDispatch(i)
		guarded = append(guarded, ifNe(InstMeta, "next_table", NTDone, stage...))
	}
	// Virtual networking phase (dropped packets bypass it).
	dropStmt := ifEq(InstMeta, "dropped", 1, applyStmt(TblDropped))
	dropStmt.Else = []ast.Stmt{applyStmt(TblVirtnet)}
	guarded = append(guarded, dropStmt)

	// Red packets are cut off before the parse loop so they cannot consume
	// further buffer passes through resubmission.
	police := ifNe(InstMeta, "color", 2, guarded...)
	police.Else = []ast.Stmt{applyStmt(TblPoliceDrop)}
	ing = append(ing, police)
	b.prog.Controls = append(b.prog.Controls, &ast.Control{Name: ast.ControlIngress, Body: ing})

	var eg []ast.Stmt
	eg = append(eg, ifEq(InstMeta, "csum", 1, applyStmt(TblCsum)))
	if !b.c.FixedParser {
		eg = append(eg, applyStmt(TblResize))
	}
	eg = append(eg, applyStmt(TblWriteback))
	// Virtual multicast (§4.6): the clone walks the sequence, the original
	// recirculates into the current target.
	cloneBranch := ifEq(hlir.StandardMetadata, hlir.FieldInstanceType, 2, applyStmt(TblMcastClone))
	cloneBranch.Else = []ast.Stmt{applyStmt(TblMcastOrig)}
	eg = append(eg, ifNe(InstMeta, "mcast", 0, cloneBranch))
	eg = append(eg, ifEq(InstMeta, "recirc", 1, applyStmt(TblRecirc)))
	b.prog.Controls = append(b.prog.Controls, &ast.Control{Name: ast.ControlEgress, Body: eg})
}

// stageDispatch emits one emulated stage: dispatch on next_table to the
// right match-table kind, then the primitive slots.
func (b *builder) stageDispatch(i int) []ast.Stmt {
	// Nested if/else chain over the match-table kinds.
	var dispatch ast.Stmt
	for k := len(StageKinds) - 1; k >= 0; k-- {
		kind := StageKinds[k]
		s := ifEq(InstMeta, "next_table", int64(kind.Code), applyStmt(StageTable(i, kind.Name)))
		if k < len(StageKinds)-1 {
			s.Else = []ast.Stmt{dispatch}
		}
		dispatch = s
	}
	out := []ast.Stmt{dispatch}
	for p := 1; p <= b.c.Primitives; p++ {
		out = append(out, ifNe(InstMeta, "prims_left", 0,
			applyStmt(PrimTable(i, p, "prep")),
			applyStmt(PrimTable(i, p, "exec")),
			applyStmt(PrimTable(i, p, "done")),
		))
	}
	return out
}

// baseCommands produces the persona's static entries: primitive-type
// dispatch rows, byte normalization rows, and resize/write-back rows. These
// are installed once, right after loading the persona, regardless of which
// programs it will emulate.
func baseCommands(c Config) string {
	var sb strings.Builder
	sb.WriteString("# HyPer4 persona base entries (generated)\n")
	if c.FixedParser {
		fixedBaseCommands(c, &sb)
	} else {
		for _, n := range c.ByteCounts() {
			fmt.Fprintf(&sb, "table_add %s %s %d =>\n", TblNorm, NormAction(n), n)
			fmt.Fprintf(&sb, "table_add %s %s %d =>\n", TblResize, ResizeAction(n), n)
			fmt.Fprintf(&sb, "table_add %s %s %d =>\n", TblWriteback, WritebackAction(n), n)
		}
	}
	for i := 1; i <= c.Stages; i++ {
		for p := 1; p <= c.Primitives; p++ {
			for _, op := range Opcodes {
				fmt.Fprintf(&sb, "table_add %s a_exec_%s %d =>\n", PrimTable(i, p, "exec"), op.Name, op.Code)
			}
			fmt.Fprintf(&sb, "table_set_default %s %s\n", PrimTable(i, p, "done"), ActPrimDone)
		}
	}
	fmt.Fprintf(&sb, "table_set_default %s %s\n", TblVirtnet, ActVDrop)
	fmt.Fprintf(&sb, "table_set_default %s %s\n", TblRecirc, ActDoRecirc)
	fmt.Fprintf(&sb, "table_set_default %s %s\n", TblDropped, ActVDrop)
	fmt.Fprintf(&sb, "table_set_default %s %s\n", TblPolice, ActPolice)
	fmt.Fprintf(&sb, "table_set_default %s %s\n", TblPoliceDrop, ActVDrop)
	return sb.String()
}
