package fuse_test

import (
	"os"
	"testing"

	"hyper4/internal/core/ctl"
	"hyper4/internal/core/dpmu"
	"hyper4/internal/core/fuse"
	"hyper4/internal/core/hp4c"
	"hyper4/internal/core/persona"
	"hyper4/internal/core/persona/rows"
	"hyper4/internal/core/verify/prove"
	"hyper4/internal/functions"
	"hyper4/internal/sim"
)

func newDPMU(t *testing.T) *dpmu.DPMU {
	t.Helper()
	p, err := persona.Generate(persona.Reference)
	if err != nil {
		t.Fatal(err)
	}
	sw, err := sim.New("hp4", p.Program)
	if err != nil {
		t.Fatal(err)
	}
	d, err := dpmu.New(sw, p)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestFusedDecodeComplete replaces the old plan proof, whose job was to
// catch rows the fuser silently skipped. For every builtin under a
// synthesized entry program, and for the composed arp→fw→router chain the
// chain_chan benchmark runs, every live persona row carrying a vdev's PID
// must be in its decoded model exactly once, and the fused plan must hold
// exactly the model's parse, stage (with every prep and exec row), virtnet
// and checksum rows.
func TestFusedDecodeComplete(t *testing.T) {
	for _, fn := range functions.Names() {
		t.Run(fn, func(t *testing.T) {
			d := newDPMU(t)
			prog, err := functions.Load(fn)
			if err != nil {
				t.Fatal(err)
			}
			comp, err := hp4c.Compile(prog, persona.Reference)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := d.Load("dev", comp, "op", 0); err != nil {
				t.Fatal(err)
			}
			for _, r := range prove.Synthesize(comp.Prog, 7) {
				// Rows the DPMU rejects are skipped, as in the prover's harness.
				_, _ = d.TableAdd("op", "dev", dpmu.EntrySpec{
					Table: r.Table, Action: r.Action, Params: r.Params, Args: r.Args, Priority: r.Priority,
				})
			}
			for p := 8; p < 16; p++ {
				if err := d.AssignPort("op", dpmu.Assignment{PhysPort: p, VDev: "dev", VIngress: p}); err != nil {
					t.Fatal(err)
				}
			}
			for vp := 1; vp < 16; vp++ {
				if err := d.MapVPort("op", "dev", vp, vp); err != nil {
					t.Fatal(err)
				}
			}
			checkDecodeComplete(t, d)
		})
	}
	t.Run("chain_chan", func(t *testing.T) {
		d := newDPMU(t)
		script, err := os.ReadFile("../../../examples/scripts/composition.txt")
		if err != nil {
			t.Fatal(err)
		}
		if err := ctl.NewCLI(ctl.New(d), "op").ExecAll(string(script)); err != nil {
			t.Fatal(err)
		}
		checkDecodeComplete(t, d)
	})
}

func checkDecodeComplete(t *testing.T, d *dpmu.DPMU) {
	t.Helper()
	cfg := d.Config()
	d.SetFusion(true)
	var vdevs []fuse.VDev
	for _, v := range d.FusionStatus().VDevs {
		if !v.Fused {
			t.Errorf("vdev %s did not fuse; the plan check is vacuous", v.Name)
		}
		vdevs = append(vdevs, fuse.VDev{Name: v.Name, PID: v.PID})
	}
	eng, _ := fuse.Build(d.SW, cfg, vdevs)
	tables, err := rows.Load(d.SW, cfg)
	if err != nil {
		t.Fatal(err)
	}
	keyed := []string{persona.TblParseCtrl, persona.TblVirtnet, persona.TblCsum}
	for i := 1; i <= cfg.Stages; i++ {
		for _, k := range persona.StageKinds {
			keyed = append(keyed, persona.StageTable(i, k.Name))
		}
		for p := 1; p <= cfg.Primitives; p++ {
			keyed = append(keyed, persona.PrimTable(i, p, "prep"))
		}
	}
	for _, vd := range vdevs {
		m := tables.VDev(vd.PID)
		for _, e := range m.Errs {
			t.Errorf("%s: %v", vd.Name, e)
		}
		// inModel counts the model's PID-keyed rows; exec rows are shared by
		// every vdev and keyed by opcode, so only the plan check sees them.
		inModel := map[*sim.Entry]int{}
		var parse, stage, vnet []*sim.Entry
		var csum *sim.Entry
		for _, prs := range m.Parse {
			for _, r := range prs {
				parse = append(parse, r.Entry)
				inModel[r.Entry]++
			}
		}
		for _, s := range m.Slots {
			for _, r := range s.Rows {
				stage = append(stage, r.Entry)
				inModel[r.Entry]++
				for _, op := range r.Ops {
					stage = append(stage, op.Prep, op.Exec)
					inModel[op.Prep]++
				}
			}
		}
		for _, r := range m.Routes {
			vnet = append(vnet, r.Entry)
			inModel[r.Entry]++
		}
		if m.Csum != nil {
			csum = m.Csum.Entry
			inModel[csum]++
		}
		// Every live PID-keyed row is in the model exactly once.
		live := 0
		for _, table := range keyed {
			entries, err := d.SW.TableEntriesOrdered(table)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range entries {
				if e.Params[0].Value.Uint64() != uint64(vd.PID) {
					continue
				}
				live++
				if n := inModel[e]; n != 1 {
					t.Errorf("%s: %s row %d is in the model %d times", vd.Name, table, e.Handle, n)
				}
			}
		}
		if live != len(inModel) {
			t.Errorf("%s: model holds %d PID-keyed rows, the switch %d", vd.Name, len(inModel), live)
		}

		pParse, pStage, pVnet, pCsum, ok := eng.PlanEntries(vd.PID)
		if !ok {
			t.Fatalf("%s: no plan", vd.Name)
		}
		for _, c := range []struct {
			what        string
			plan, model []*sim.Entry
		}{
			{"parse", pParse, parse},
			{"stage", pStage, stage},
			{"virtnet", pVnet, vnet},
			{"checksum", []*sim.Entry{pCsum}, []*sim.Entry{csum}},
		} {
			if !sameMultiset(c.plan, c.model) {
				t.Errorf("%s: plan holds %d %s rows, the model %d, and they differ", vd.Name, len(c.plan), c.what, len(c.model))
			}
		}
	}
}

func sameMultiset(a, b []*sim.Entry) bool {
	n := map[*sim.Entry]int{}
	for _, e := range a {
		n[e]++
	}
	for _, e := range b {
		n[e]--
	}
	for _, c := range n {
		if c != 0 {
			return false
		}
	}
	return true
}
