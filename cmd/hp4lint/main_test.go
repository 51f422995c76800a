package main

import (
	"strings"
	"testing"
)

// lint runs hp4lint in-process and returns its exit code and combined
// output. Paths are relative to this package's directory.
func lint(args ...string) (int, string) {
	var out strings.Builder
	code := run(args, &out, &out)
	return code, out.String()
}

// guests are the four shipped guest functions.
var guests = []string{"../../p4src/l2_switch.p4", "../../p4src/firewall.p4", "../../p4src/router.p4", "../../p4src/arp_proxy.p4"}

// TestLintSmoke: every artifact the repo ships lints clean — the four guest
// functions at the reference persona geometry, the sequential composition
// at its wider pipeline, and the composition example script replayed onto
// a live persona switch.
func TestLintSmoke(t *testing.T) {
	for _, args := range [][]string{
		guests,
		{"-stages", "6", "../../p4src/composed.p4"},
		{"-script", "../../examples/scripts/composition.txt"},
	} {
		if code, out := lint(args...); code != 0 {
			t.Errorf("hp4lint %v: exit %d, want 0\n%s", args, code, out)
		}
	}
}

// TestProveSmoke (DESIGN.md §16) covers hp4lint's -prove paths: a builtin
// and every shipped guest .p4 prove native = persona under a synthesized
// entry set, and a deliberately planted LPM-priority translation bug fails
// the lint (exit 1, not a crash) with a replay-confirmed concrete
// counterexample — the prover never cries wolf, so the planted finding must
// carry a witness packet both concrete machines disagree on. The proof of
// every builtin is TestProveBuiltins in internal/core/dpmu.
func TestProveSmoke(t *testing.T) {
	for _, args := range [][]string{
		{"-prove", "-builtin", "router"},
		append([]string{"-prove"}, guests...),
	} {
		if code, out := lint(args...); code != 0 {
			t.Errorf("hp4lint %v: exit %d, want 0\n%s", args, code, out)
		}
	}
	code, out := lint("-prove", "-prove-skew", "-builtin", "router")
	if code != 1 {
		t.Errorf("planted skew: exit %d, want 1\n%s", code, out)
	}
	if !strings.Contains(out, "confirmed by replay") {
		t.Errorf("planted skew: no replay-confirmed witness\n%s", out)
	}
}
