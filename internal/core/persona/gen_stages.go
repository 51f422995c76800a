package persona

import (
	"hyper4/internal/p4/ast"
)

// stageActionsAndTables emits the general-purpose match-action machinery of
// §4.3: per stage, one match table per (match type × data type) kind; per
// primitive slot, the three tables (prep, exec, done).
func (b *builder) stageActionsAndTables() {
	// a_set_match: a stage-table hit binds the packet to an installed
	// virtual entry and primes primitive execution and the next stage.
	b.prog.Actions = append(b.prog.Actions, &ast.Action{
		Name:   ActSetMatch,
		Params: []string{"match_id", "prims_left", "next_table", "next_slot"},
		Body: []ast.PrimitiveCall{
			call("modify_field", fexpr(InstMeta, "match_id"), pexpr("match_id")),
			call("modify_field", fexpr(InstMeta, "prims_left"), pexpr("prims_left")),
			call("modify_field", fexpr(InstMeta, "next_table"), pexpr("next_table")),
			call("modify_field", fexpr(InstMeta, "next_slot"), pexpr("next_slot")),
		},
	})
	b.prepActions()
	b.execActions()
	// a_prim_done: the per-slot state transition.
	b.prog.Actions = append(b.prog.Actions, &ast.Action{
		Name: ActPrimDone,
		Body: []ast.PrimitiveCall{
			call("subtract_from_field", fexpr(InstMeta, "prims_left"), cexpr(1)),
		},
	})

	for i := 1; i <= b.c.Stages; i++ {
		b.stageMatchTables(i)
		for p := 1; p <= b.c.Primitives; p++ {
			b.primTables(i, p)
		}
	}
}

// stageMatchTables declares the per-stage match tables. Every kind matches
// hp4.program first — the code-isolation mechanism of §4.5 — then the wide
// data field appropriate to the kind, always via ternary so runtime masks
// can isolate the emulated fields (§4.1 "Matching").
func (b *builder) stageMatchTables(i int) {
	programRead := ast.ReadEntry{Field: ptr(fref(InstMeta, "program")), Match: ast.MatchExact}
	// The slot read disambiguates emulated tables of the same kind at the
	// same stage (e.g. the ARP proxy's arp_resp vs smac).
	slotRead := ast.ReadEntry{Field: ptr(fref(InstMeta, "next_slot")), Match: ast.MatchExact}
	kinds := []struct {
		name  string
		reads []ast.ReadEntry
	}{
		{"ed_exact", []ast.ReadEntry{programRead, slotRead, {Field: ptr(fref(InstData, "extracted")), Match: ast.MatchTernary}}},
		{"ed_ternary", []ast.ReadEntry{programRead, slotRead, {Field: ptr(fref(InstData, "extracted")), Match: ast.MatchTernary}}},
		{"meta_exact", []ast.ReadEntry{programRead, slotRead, {Field: ptr(fref(InstData, "emeta")), Match: ast.MatchTernary}}},
		{"meta_ternary", []ast.ReadEntry{programRead, slotRead, {Field: ptr(fref(InstData, "emeta")), Match: ast.MatchTernary}}},
		{"stdmeta", []ast.ReadEntry{programRead, slotRead,
			{Field: ptr(fref(InstMeta, "vdev_ingress")), Match: ast.MatchTernary},
			{Field: ptr(fref(InstMeta, "vdev_port")), Match: ast.MatchTernary}}},
		{"matchless", []ast.ReadEntry{programRead, slotRead}},
	}
	for _, k := range kinds {
		b.prog.Tables = append(b.prog.Tables, &ast.Table{
			Name:    StageTable(i, k.name),
			Reads:   k.reads,
			Actions: []string{ActSetMatch},
			Size:    512,
		})
	}
}

// primTables declares the three tables of one primitive slot (§4.3: "one to
// set the stage for primitive execution, another to execute the primitive,
// and another to perform a state transition").
func (b *builder) primTables(i, p int) {
	prepActions := make([]string, 0, len(Opcodes))
	execActions := make([]string, 0, len(Opcodes))
	for _, op := range Opcodes {
		prepActions = append(prepActions, "a_prep_"+op.Name)
		execActions = append(execActions, "a_exec_"+op.Name)
	}
	b.prog.Tables = append(b.prog.Tables,
		&ast.Table{
			Name: PrimTable(i, p, "prep"),
			Reads: []ast.ReadEntry{
				{Field: ptr(fref(InstMeta, "program")), Match: ast.MatchExact},
				{Field: ptr(fref(InstMeta, "match_id")), Match: ast.MatchExact},
			},
			Actions: prepActions,
			Size:    512,
		},
		&ast.Table{
			Name: PrimTable(i, p, "exec"),
			Reads: []ast.ReadEntry{
				{Field: ptr(fref(InstMeta, "prim_type")), Match: ast.MatchExact},
			},
			Actions: execActions,
			Size:    32,
		},
		&ast.Table{
			Name:    PrimTable(i, p, "done"),
			Actions: []string{ActPrimDone},
			Default: ActPrimDone,
			Size:    1,
		},
	)
}

// prepActions emits one a_prep_<op> per opcode: each loads the primitive's
// runtime-bound parameters, in the order its Opcodes shape lays them out,
// into scratch metadata and sets hp4.prim_type.
func (b *builder) prepActions() {
	for _, op := range Opcodes {
		var params []string
		if op.Dst != StoreNone {
			params = append(params, "dmask", "dshift")
		}
		if op.Src != StoreNone {
			params = append(params, "slshift", "srshift")
		}
		if op.HasConst() {
			params = append(params, "cval")
		}
		body := []ast.PrimitiveCall{call("modify_field", fexpr(InstMeta, "prim_type"), cexpr(int64(op.Code)))}
		for _, p := range params {
			body = append(body, call("modify_field", fexpr(InstScratch, p), pexpr(p)))
		}
		b.prog.Actions = append(b.prog.Actions, &ast.Action{Name: "a_prep_" + op.Name, Params: params, Body: body})
	}
}

// execActions emits one a_exec_<op> per opcode. Each operates on the wide
// fields using the scratch parameters loaded by the matching prep action.
// Source fields are isolated with a left/right double shift instead of a
// mask, and the destination-clearing mask is derived by complementing dmask
// in place, keeping the scratch (PHV overhead) small.
func (b *builder) execActions() {
	ew := b.c.ExtractedWidth()
	tmp := fexpr(InstScratch, "tmp")
	ext := fexpr(InstData, "extracted")
	emeta := fexpr(InstData, "emeta")
	dmask := fexpr(InstScratch, "dmask")
	dshift := fexpr(InstScratch, "dshift")
	slshift := fexpr(InstScratch, "slshift")
	srshift := fexpr(InstScratch, "srshift")
	cval := fexpr(InstScratch, "cval")
	// Every writeDest bit_xor shares this *big.Int (as fixed-parser personas
	// share fixedFamily's field slices), and Generate hands the AST to hlir,
	// sim, fuse and prove unparsed. That is safe: no consumer writes through
	// an AST constant or slice (sim and dpmu copy constants with
	// bitfield.FromBig, prove reads them with Bit, pretty with %x).
	ones := bexpr(onesConst(ew))

	add := func(name string, body ...ast.PrimitiveCall) {
		b.prog.Actions = append(b.prog.Actions, &ast.Action{Name: name, Body: body})
	}
	// readSrc leaves the source field's value low-aligned in tmp.
	readSrc := func(src ast.Expr) []ast.PrimitiveCall {
		return []ast.PrimitiveCall{
			call("modify_field", tmp, src),
			call("shift_left", tmp, tmp, slshift),
			call("shift_right", tmp, tmp, srshift),
		}
	}
	// writeDest inserts tmp's low-aligned value into the destination field.
	writeDest := func(dst ast.Expr) []ast.PrimitiveCall {
		return []ast.PrimitiveCall{
			call("shift_left", tmp, tmp, dshift),
			call("bit_and", tmp, tmp, dmask),
			call("bit_xor", dmask, dmask, ones), // dmask := ~dmask
			call("bit_and", dst, dst, dmask),
			call("bit_or", dst, dst, tmp),
		}
	}
	seq := func(parts ...[]ast.PrimitiveCall) []ast.PrimitiveCall {
		var out []ast.PrimitiveCall
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}

	add("a_exec_mod_ed_const", seq(
		[]ast.PrimitiveCall{call("modify_field", tmp, cval)},
		writeDest(ext))...)
	add("a_exec_mod_ed_ed", seq(readSrc(ext), writeDest(ext))...)
	add("a_exec_mod_ed_meta", seq(readSrc(emeta), writeDest(ext))...)
	add("a_exec_mod_meta_ed", seq(readSrc(ext), writeDest(emeta))...)
	add("a_exec_mod_meta_const", seq(
		[]ast.PrimitiveCall{call("modify_field", tmp, cval)},
		writeDest(emeta))...)
	add("a_exec_mod_meta_meta", seq(readSrc(emeta), writeDest(emeta))...)
	add("a_exec_mod_vport_const",
		call("modify_field", fexpr(InstMeta, "vdev_port"), cval))
	add("a_exec_mod_vport_vingress",
		call("modify_field", fexpr(InstMeta, "vdev_port"), fexpr(InstMeta, "vdev_ingress")))
	// field += const: isolate the destination field low-aligned, add, wrap
	// within the field width by shifting the carry out, and write back.
	addOp := func(name string, dst ast.Expr) {
		add(name, seq(
			readSrc(dst),
			[]ast.PrimitiveCall{
				call("add_to_field", tmp, cval),
				call("shift_left", tmp, tmp, srshift),
				call("shift_right", tmp, tmp, srshift),
			},
			writeDest(dst))...)
	}
	addOp("a_exec_add_ed_const", ext)
	addOp("a_exec_add_meta_const", emeta)
	// Drop is sticky, as on the native target: once an emulated action
	// drops, later virtual-port writes cannot resurrect the packet.
	add("a_exec_drop",
		call("modify_field", fexpr(InstMeta, "vdev_port"), cexpr(VPortDrop)),
		call("modify_field", fexpr(InstMeta, "dropped"), cexpr(1)))
	add("a_exec_no_op", call("no_op"))
}
