package verify_test

// The corpus tests: every artifact the repo ships must verify clean, and a
// set of deliberately planted defects must each trip exactly the finding
// class built for it. The external test package lets these tests drive the
// full stack (dpmu imports verify, so an internal test package would cycle).

import (
	"os"
	"strconv"
	"strings"
	"testing"

	"hyper4/internal/bitfield"
	"hyper4/internal/core/ctl"
	"hyper4/internal/core/dpmu"
	"hyper4/internal/core/hp4c"
	"hyper4/internal/core/persona"
	"hyper4/internal/core/verify"
	"hyper4/internal/functions"
	"hyper4/internal/p4/ast"
	"hyper4/internal/sim"
)

// newStack builds a persona switch, DPMU and management CLI for script
// replay, failing the test on any setup error.
func newStack(t *testing.T) (*dpmu.DPMU, *ctl.CLI) {
	t.Helper()
	pers, err := persona.Generate(persona.Reference)
	if err != nil {
		t.Fatalf("persona: %v", err)
	}
	sw, err := sim.New("sw0", pers.Program)
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
	d, err := dpmu.New(sw, pers)
	if err != nil {
		t.Fatalf("dpmu: %v", err)
	}
	return d, ctl.NewCLI(ctl.New(d), "operator")
}

// codes collects the finding codes present, for containment assertions.
func codes(fs []verify.Finding) map[string]bool {
	m := map[string]bool{}
	for _, f := range fs {
		m[f.Code] = true
	}
	return m
}

// TestCleanBuiltins: every built-in function compiles to a program the
// structural verifier accepts without findings.
func TestCleanBuiltins(t *testing.T) {
	names := append(functions.Names(), functions.Composed)
	for _, name := range names {
		cfg := persona.Reference
		if name == functions.Composed {
			// The sequential composition needs the longer pipeline it is
			// benchmarked with; the Reference stage budget is per-function.
			cfg.Stages = 6
		}
		prog, err := functions.Load(name)
		if err != nil {
			t.Fatalf("%s: load: %v", name, err)
		}
		comp, err := hp4c.Compile(prog, cfg)
		if err != nil {
			t.Fatalf("%s: compile: %v", name, err)
		}
		if fs := verify.Program(comp); len(fs) != 0 {
			t.Errorf("%s: want clean, got %d findings, first: %s", name, len(fs), fs[0])
		}
	}
}

// TestCleanCompositionScript: the shipped composition example replays onto a
// live persona switch and the full verifier (entries, topology, tenancy,
// parse rows) reports nothing.
func TestCleanCompositionScript(t *testing.T) {
	src, err := os.ReadFile("../../../examples/scripts/composition.txt")
	if err != nil {
		t.Fatalf("read script: %v", err)
	}
	d, cli := newStack(t)
	if err := cli.ExecAll(string(src)); err != nil {
		t.Fatalf("replay: %v", err)
	}
	if fs := verify.Check(d.VerifySource()); len(fs) != 0 {
		t.Errorf("want clean, got %d findings, first: %s", len(fs), fs[0])
	}
}

// TestPlantedShadowedEntry: a catch-all ternary entry that wins precedence
// makes a later, more specific entry dead — the shadow analysis must name
// the dead entry, and only it. At equal priority the earlier install wins
// the tie whatever the masks.
func TestPlantedShadowedEntry(t *testing.T) {
	for name, specific := range map[string]string{
		// Specific dst-port filter at priority 2 can never match.
		"lower_priority": "fw table_add tcp_filter _drop 0&&&0 5201&&&0xffff => 2",
		"equal_priority": "fw table_add tcp_filter _nop 0&&&0 5201&&&0xffff => 1",
	} {
		t.Run(name, func(t *testing.T) {
			d, cli := newStack(t)
			var handle string
			for _, l := range []string{
				"load fw firewall",
				// Catch-all (all bits masked out) at priority 1.
				"fw table_add tcp_filter _drop 0&&&0 0&&&0 => 1",
				specific,
			} {
				out, err := cli.Exec(l)
				if err != nil {
					t.Fatalf("%q: %v", l, err)
				}
				handle = strings.TrimPrefix(out, "handle ")
			}
			var shadowed []string
			for _, f := range verify.Check(d.VerifySource()) {
				if f.Code != verify.CodeShadowed {
					continue
				}
				if f.VDev != "fw" || f.Table != "tcp_filter" {
					t.Errorf("shadow finding misattributed: %s", f)
				}
				shadowed = append(shadowed, strconv.Itoa(f.Handle))
			}
			if len(shadowed) != 1 || shadowed[0] != handle {
				t.Fatalf("shadowed handles %v, want [%s] (the specific entry)", shadowed, handle)
			}
		})
	}
}

// TestPlantedVNetCycle: linking two devices into a loop must produce a
// vnet-cycle error (and therefore fail the verify admission op).
func TestPlantedVNetCycle(t *testing.T) {
	d, cli := newStack(t)
	lines := []string{
		"load a l2_switch",
		"load b l2_switch",
		"link a 10 b 1",
		"link b 10 a 1",
	}
	for _, l := range lines {
		if _, err := cli.Exec(l); err != nil {
			t.Fatalf("%q: %v", l, err)
		}
	}
	fs := verify.Check(d.VerifySource())
	if !codes(fs)[verify.CodeVNetCycle] {
		t.Fatalf("want a %s finding, got %v", verify.CodeVNetCycle, fs)
	}
	if !verify.HasErrors(fs) {
		t.Fatalf("a cycle must be an error-severity finding")
	}
}

// TestPlantedForeignPID: a persona row stamped with a program ID no loaded
// device owns — the §4.5 isolation property the tenancy check enforces —
// must surface as foreign-pid. The row is planted through the raw switch
// runtime, below the DPMU's bookkeeping, exactly like a misbehaving native
// controller would.
func TestPlantedForeignPID(t *testing.T) {
	d, cli := newStack(t)
	if _, err := cli.Exec("load l2 l2_switch"); err != nil {
		t.Fatalf("load: %v", err)
	}
	params := []sim.MatchParam{
		{Kind: ast.MatchExact, Value: bitfield.FromUint(persona.ProgramWidth, 999)},
		{Kind: ast.MatchExact, Value: bitfield.FromUint(persona.StateWidth, 1)},
	}
	args := []bitfield.Value{
		bitfield.FromUint(16, 1), bitfield.FromUint(16, 0),
		bitfield.FromUint(16, 0), bitfield.FromUint(16, 0),
	}
	tbl := persona.StageTable(1, persona.KindName(persona.NTMatchless))
	if _, err := d.SW.TableAdd(tbl, persona.ActSetMatch, params, args, 0); err != nil {
		t.Fatalf("raw add into %s: %v", tbl, err)
	}
	fs := verify.Check(d.VerifySource())
	if !codes(fs)[verify.CodeForeignPID] {
		t.Fatalf("want a %s finding, got %v", verify.CodeForeignPID, fs)
	}
}

// TestProgramFindingsUndeclared: a compiled artifact whose slot dispatches
// an action the persona does not declare is rejected structurally. The
// defect is planted by mutating a good compile in memory.
func TestProgramFindingsUndeclared(t *testing.T) {
	prog, err := functions.Load(functions.L2Switch)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	comp, err := hp4c.Compile(prog, persona.Reference)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	// Rekey one slot's successor map to an action the program never
	// declares: the slot now dispatches on a phantom action name.
	planted := false
	for _, slots := range comp.Slots {
		for _, slot := range slots {
			for act, succ := range slot.Next {
				delete(slot.Next, act)
				slot.Next["no_such_action"] = succ
				planted = true
				break
			}
			if planted {
				break
			}
		}
		if planted {
			break
		}
	}
	if !planted {
		t.Fatal("no slot with successors to mutate")
	}
	fs := verify.Program(comp)
	if !codes(fs)[verify.CodeUndeclaredAction] {
		t.Fatalf("want a %s finding, got %v", verify.CodeUndeclaredAction, fs)
	}
}

// TestPassBound: a chain longer than the configured pass budget is flagged
// before any packet pays for the discovery.
func TestPassBound(t *testing.T) {
	d, cli := newStack(t)
	lines := []string{
		"load a l2_switch",
		"load b l2_switch",
		"link a 10 b 1",
	}
	for _, l := range lines {
		if _, err := cli.Exec(l); err != nil {
			t.Fatalf("%q: %v", l, err)
		}
	}
	src := d.VerifySource()
	src.PassBound = 1 // two chained devices cannot fit one pass
	fs := verify.Check(src)
	if !codes(fs)[verify.CodePassBound] {
		t.Fatalf("want a %s finding, got %v", verify.CodePassBound, fs)
	}
}
