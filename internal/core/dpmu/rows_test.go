package dpmu

import (
	"math/big"
	"strings"
	"testing"

	"hyper4/internal/bitfield"
	"hyper4/internal/core/fuse"
	"hyper4/internal/core/hp4c"
	"hyper4/internal/core/persona"
	"hyper4/internal/core/persona/rows"
	"hyper4/internal/core/verify"
	"hyper4/internal/core/verify/prove"
	"hyper4/internal/functions"
	"hyper4/internal/sim"
)

// TestPrepEncodeDecodeRoundTrip feeds prepFor's rows, for every opcode
// over a grid of extracted-data and metadata geometries (widths past 64
// bits included), into the row model's prep decoder: it must recover the
// spec's destination and source geometry and its constant.
func TestPrepEncodeDecodeRoundTrip(t *testing.T) {
	d := newPersonaDPMU(t)
	ew := d.cfg.ExtractedWidth()
	geoms := map[persona.Store][][2]int{ // (offset, width) pairs
		persona.StoreED:   {{0, 1}, {5, 3}, {96, 48}, {100, 65}, {0, 128}, {ew - 70, 70}, {ew - 1, 1}},
		persona.StoreMeta: {{0, 1}, {3, 9}, {0, 64}, {64, 100}, {persona.MetaWidth - 65, 65}},
	}
	arg := bitfield.FromUint(48, 0x0a0b0c0d0e0f)
	for _, oc := range persona.Opcodes {
		dsts, srcs := [][2]int{{0, 0}}, [][2]int{{0, 0}}
		if oc.Dst != persona.StoreNone {
			dsts = geoms[oc.Dst]
		}
		copyOp := oc.Src != persona.StoreNone && !oc.HasConst()
		if copyOp {
			srcs = geoms[oc.Src]
		}
		for _, dg := range dsts {
			for _, sg := range srcs {
				specs := []hp4c.PrimSpec{{Op: oc.Code, DstOff: dg[0], DstW: dg[1], SrcOff: sg[0], SrcW: sg[1], ArgIndex: -1}}
				if oc.HasConst() {
					specs[0].Const = big.NewInt(0x1234_5678_9abc)
					specs = append(specs,
						hp4c.PrimSpec{Op: oc.Code, DstOff: dg[0], DstW: dg[1], ArgIndex: 0},
						hp4c.PrimSpec{Op: oc.Code, DstOff: dg[0], DstW: dg[1], ArgIndex: 0, Negate: true})
				}
				for _, spec := range specs {
					action, args, err := d.prepFor(spec, []bitfield.Value{arg})
					if err != nil {
						t.Fatalf("%s %+v: prepFor: %v", oc.Name, spec, err)
					}
					op, err := rows.DecodePrep(&sim.Entry{Action: action, Args: args}, ew)
					if err != nil {
						t.Fatalf("%s %+v: decode: %v", oc.Name, spec, err)
					}
					if op.Code != oc.Code || op.Dst != oc.Dst || op.Src != oc.Src {
						t.Errorf("%s: decoded opcode %d (%d←%d)", oc.Name, op.Code, op.Dst, op.Src)
					}
					if oc.Dst != persona.StoreNone && (op.DstOff != spec.DstOff || op.DstW != spec.DstW) {
						t.Errorf("%s %+v: destination [%d,+%d)", oc.Name, spec, op.DstOff, op.DstW)
					}
					if copyOp && (op.SrcOff != spec.SrcOff || op.SrcW != spec.SrcW) {
						t.Errorf("%s %+v: source [%d,+%d)", oc.Name, spec, op.SrcOff, op.SrcW)
					}
					if oc.HasConst() {
						want := arg.Uint64()
						switch {
						case spec.Const != nil:
							want = spec.Const.Uint64()
						case spec.Negate: // 2^DstW - arg, mod 2^DstW, in 64 bits
							want = -want & (uint64(1)<<spec.DstW - 1)
						}
						if op.Const != want {
							t.Errorf("%s %+v: constant %#x, want %#x", oc.Name, spec, op.Const, want)
						}
					}
				}
			}
		}
	}
}

// TestFusedRejectsUndecodableRows corrupts one row of a proven router at a
// time. Each corruption is a row the encoder could not have produced, so
// both consumers of the row model must refuse it: fuse.Build reports the
// vdev unfusable naming that table and handle, and the prover does not
// report proven.
func TestFusedRejectsUndecodableRows(t *testing.T) {
	d, _, _ := proveHarness(t, functions.Router, 7, false)
	v := d.vdevs["dev"]
	ew := d.cfg.ExtractedWidth()

	// findPrep returns a live prep row of the router running action.
	findPrep := func(action string) (string, *sim.Entry) {
		t.Helper()
		for stage := 1; stage <= d.cfg.Stages; stage++ {
			for prim := 1; prim <= d.cfg.Primitives; prim++ {
				table := persona.PrimTable(stage, prim, "prep")
				es, err := d.SW.TableEntriesOrdered(table)
				if err != nil {
					t.Fatal(err)
				}
				for _, e := range es {
					if e.Action == action && e.Params[0].Value.Uint64() == uint64(v.PID) {
						return table, e
					}
				}
			}
		}
		t.Fatalf("router installs no %s row", action)
		return "", nil
	}
	csumRow := func() (string, *sim.Entry) {
		es, err := d.SW.TableEntriesOrdered(persona.TblCsum)
		if err != nil || len(es) != 1 {
			t.Fatalf("want one te_csum row, got %d (%v)", len(es), err)
		}
		return persona.TblCsum, es[0]
	}
	set := func(e *sim.Entry, i int, v bitfield.Value) []bitfield.Value {
		args := append([]bitfield.Value(nil), e.Args...)
		args[i] = v
		return args
	}
	shift := func(n uint64) bitfield.Value { return bitfield.FromUint(persona.ShiftWidth, n) }

	cases := []struct {
		name, detail string
		row          func() (string, *sim.Entry)
		corrupt      func(e *sim.Entry) (string, []bitfield.Value)
	}{
		{"non-contiguous dmask", "contiguous", func() (string, *sim.Entry) { return findPrep("a_prep_mod_ed_const") },
			func(e *sim.Entry) (string, []bitfield.Value) {
				op, _ := rows.DecodePrep(e, ew)
				hole := e.Args[0].Clone()
				hole.SetBit(op.DstOff+1, 0) // a hole inside the (extracted-data) run
				return e.Action, set(e, 0, hole)
			}},
		{"dshift disagrees", "dshift", func() (string, *sim.Entry) { return findPrep("a_prep_mod_ed_const") },
			func(e *sim.Entry) (string, []bitfield.Value) {
				return e.Action, set(e, 1, shift(e.Args[1].Uint64()+1))
			}},
		{"add shift mismatch", "add shift", func() (string, *sim.Entry) { return findPrep("a_prep_add_ed_const") },
			func(e *sim.Entry) (string, []bitfield.Value) {
				return e.Action, set(e, 2, shift(e.Args[2].Uint64()+8))
			}},
		{"wrong arity", "arity", func() (string, *sim.Entry) { return findPrep("a_prep_mod_ed_const") },
			func(e *sim.Entry) (string, []bitfield.Value) { return e.Action, e.Args[:len(e.Args)-1] }},
		{"unknown prep action", "unknown prep action", func() (string, *sim.Entry) { return findPrep("a_prep_mod_ed_const") },
			func(e *sim.Entry) (string, []bitfield.Value) { return "a_prep_mod_ed_bogus", e.Args }},
		{"bad te_csum mask", "ncmask", csumRow,
			func(e *sim.Entry) (string, []bitfield.Value) {
				m := e.Args[0].Clone()
				m.SetBit(0, 0)
				return e.Action, set(e, 0, m)
			}},
	}
	vdevs := []fuse.VDev{{Name: "dev", PID: v.PID}}
	if eng, fs := fuse.Build(d.SW, d.cfg, vdevs); eng == nil {
		t.Fatalf("the uncorrupted router does not fuse: %v", fs)
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			table, e := c.row()
			action, args := e.Action, e.Args
			// The rows are corrupted in place: sim's own writes check arity
			// and action names, which is exactly what a corrupt row escaped.
			e.Action, e.Args = c.corrupt(e)
			defer func() { e.Action, e.Args = action, args }()

			eng, findings := fuse.Build(d.SW, d.cfg, vdevs)
			if eng != nil {
				t.Error("the corrupted vdev still fused")
			}
			named := false
			for _, f := range findings {
				if f.Code == verify.CodeUnfusable && f.Table == table && f.Handle == e.Handle && strings.Contains(f.Detail, c.detail) {
					named = true
				}
			}
			if !named {
				t.Errorf("no %s finding names %s row %d (%q): %v", verify.CodeUnfusable, table, e.Handle, c.detail, findings)
			}
			res, err := d.Prove("prover", "dev", prove.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if res.Proven {
				t.Error("the prover proved a vdev with an undecodable row")
			}
		})
	}
}
