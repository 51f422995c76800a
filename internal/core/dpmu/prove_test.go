package dpmu

import (
	"fmt"
	"math/rand"
	"regexp"
	"strings"
	"testing"

	"hyper4/internal/bitfield"
	"hyper4/internal/core/hp4c"
	"hyper4/internal/core/persona"
	"hyper4/internal/core/verify"
	"hyper4/internal/core/verify/prove"
	"hyper4/internal/functions"
	"hyper4/internal/sim"
)

// proveHarness loads one builtin into a fresh persona DPMU, installs a
// synthesized entry program (skipping rows the DPMU rejects), and wires the
// identity proof window: physical ports 8..15 assigned one-to-one, virtual
// ports 1..15 mapped to their physical namesakes.
func proveHarness(t *testing.T, fn string, seed int64, skew bool) (*DPMU, *hp4c.Compiled, []prove.Row) {
	t.Helper()
	d := newPersonaDPMU(t)
	comp := compileFn(t, fn)
	if _, err := d.Load("dev", comp, "prover", 0); err != nil {
		t.Fatal(err)
	}
	d.SetTranslationSkew(skew)
	var accepted []prove.Row
	for _, r := range prove.Synthesize(comp.Prog, seed) {
		_, err := d.TableAdd("prover", "dev", EntrySpec{
			Table: r.Table, Action: r.Action, Params: r.Params, Args: r.Args, Priority: r.Priority,
		})
		if err == nil {
			accepted = append(accepted, r)
		}
	}
	d.SetTranslationSkew(false)
	for p := 8; p < 16; p++ {
		if err := d.AssignPort("prover", Assignment{PhysPort: p, VDev: "dev", VIngress: p}); err != nil {
			t.Fatal(err)
		}
	}
	for vp := 1; vp < 16; vp++ {
		if err := d.MapVPort("prover", "dev", vp, vp); err != nil {
			t.Fatal(err)
		}
	}
	return d, comp, accepted
}

// TestProveBuiltins is the headline equivalence claim: for every builtin
// function under a synthesized entry program, the prover shows native ≡
// persona over the whole modeled packet space, with zero findings.
func TestProveBuiltins(t *testing.T) {
	for _, fn := range functions.Names() {
		t.Run(fn, func(t *testing.T) {
			d, _, _ := proveHarness(t, fn, 7, false)
			res, err := d.Prove("prover", "dev", prove.Options{})
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range res.Findings {
				t.Errorf("finding: %s", f)
			}
			if !res.Proven {
				t.Fatalf("equivalence not proven (%d regions compared)", res.Regions)
			}
			if res.Regions == 0 {
				t.Fatal("no regions compared; the proof is vacuous")
			}
		})
	}
}

// TestProveSkewConfirmsDivergence plants a compiler-class translation bug —
// the DPMU drops the LPM priority offset, so overlapping prefixes win in
// installation order instead of longest-first — and requires the prover to
// find it AND confirm it with a concrete replayed packet.
func TestProveSkewConfirmsDivergence(t *testing.T) {
	d := newPersonaDPMU(t)
	comp := compileFn(t, functions.Router)
	if _, err := d.Load("dev", comp, "prover", 0); err != nil {
		t.Fatal(err)
	}
	d.SetTranslationSkew(true)
	// Overlapping prefixes, same caller priority: native resolves by longest
	// prefix, the skewed translation by installation order.
	wide := EntrySpec{
		Table:  "ipv4_lpm",
		Action: "set_nhop",
		Params: []sim.MatchParam{sim.LPM(bitfield.FromUint(32, 0x0a000000), 8)},
		Args: []bitfield.Value{
			bitfield.FromUint(32, 0x0a000001), bitfield.FromUint(9, 1),
		},
		Priority: 1,
	}
	narrow := EntrySpec{
		Table:  "ipv4_lpm",
		Action: "set_nhop",
		Params: []sim.MatchParam{sim.LPM(bitfield.FromUint(32, 0x0a010101), 32)},
		Args: []bitfield.Value{
			bitfield.FromUint(32, 0x0a010102), bitfield.FromUint(9, 2),
		},
		Priority: 1,
	}
	for _, s := range []EntrySpec{wide, narrow} {
		if _, err := d.TableAdd("prover", "dev", s); err != nil {
			t.Fatal(err)
		}
	}
	d.SetTranslationSkew(false)
	for p := 8; p < 16; p++ {
		if err := d.AssignPort("prover", Assignment{PhysPort: p, VDev: "dev", VIngress: p}); err != nil {
			t.Fatal(err)
		}
	}
	for vp := 1; vp < 16; vp++ {
		if err := d.MapVPort("prover", "dev", vp, vp); err != nil {
			t.Fatal(err)
		}
	}
	res, err := d.Prove("prover", "dev", prove.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Proven {
		t.Fatal("planted translation skew went unnoticed")
	}
	confirmed := false
	for _, f := range res.Findings {
		if f.Code == verify.CodeProveDiverge && f.Severity == verify.SevError &&
			strings.Contains(f.Detail, "confirmed by replay") {
			confirmed = true
		}
	}
	if !confirmed {
		t.Fatalf("no replay-confirmed divergence among %d findings: %v", len(res.Findings), res.Findings)
	}
}

// TestProveFuzz cross-checks the prover against concrete execution over a
// bounded corpus: when a synthesized program proves equivalent, random
// packets must agree byte-for-byte between an independent native replica and
// the persona; when it does not, every error-grade finding already carries a
// replay-confirmed counterexample (compare.go enforces that), so none may be
// present without a divergence the concrete machines reproduce.
func TestProveFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for _, fn := range functions.Names() {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", fn, seed), func(t *testing.T) {
				d, comp, accepted := proveHarness(t, fn, seed, false)
				res, err := d.Prove("prover", "dev", prove.Options{})
				if err != nil {
					t.Fatal(err)
				}
				for _, f := range res.Findings {
					if f.Severity == verify.SevError {
						t.Errorf("synthesized program diverged: %s", f)
					}
				}
				if !res.Proven {
					t.Fatalf("synthesized program not proven: %v", res.Findings)
				}
				native, err := functions.NewSwitch("native", fn)
				if err != nil {
					t.Fatal(err)
				}
				for _, r := range accepted {
					if _, err := native.TableAdd(r.Table, r.Action, cloneParams(r.Params), r.Args, r.Priority); err != nil {
						t.Fatalf("native replica rejects %s/%s: %v", r.Table, r.Action, err)
					}
				}
				L := prove.ModelBytes(d.Config(), comp.MaxBytes)
				for i := 0; i < 40; i++ {
					frame := make([]byte, L)
					rng.Read(frame)
					port := 8 + rng.Intn(8)
					nOut, _, err := native.Process(frame, port)
					if err != nil {
						t.Fatal(err)
					}
					pOut, _, err := d.SW.Process(frame, port)
					if err != nil {
						t.Fatal(err)
					}
					if !sameOutputs(nOut, pOut) {
						t.Fatalf("proven equivalent, but packet %d (port %d) diverges:\nnative:  %s\npersona: %s\nframe: %x",
							i, port, renderOutputs(nOut), renderOutputs(pOut), frame)
					}
				}
			})
		}
	}
}

// TestProveMissingExecRow deletes every a_exec_* row the persona's
// primitive dispatch hits. The persona then drops frames native forwards,
// so the prover must not report proven, and an inconclusive finding must
// name the exec table the decode found empty.
func TestProveMissingExecRow(t *testing.T) {
	for _, fn := range functions.Names() {
		t.Run(fn, func(t *testing.T) {
			d, _, _ := proveHarness(t, fn, 7, false)
			for stage := 1; stage <= d.cfg.Stages; stage++ {
				for prim := 1; prim <= d.cfg.Primitives; prim++ {
					table := persona.PrimTable(stage, prim, "exec")
					rows, err := d.SW.TableEntriesOrdered(table)
					if err != nil {
						t.Fatal(err)
					}
					for _, e := range rows {
						if err := d.SW.TableDelete(table, e.Handle); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
			res, err := d.Prove("prover", "dev", prove.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if res.Proven {
				t.Fatal("proven with every exec row deleted")
			}
			execTable := regexp.MustCompile(`t\d+_p\d+_exec`)
			for _, f := range res.Findings {
				if f.Code == verify.CodeProveInconclusive && execTable.MatchString(f.Detail) {
					return
				}
			}
			t.Fatalf("no inconclusive finding names an exec table: %v", res.Findings)
		})
	}
}
