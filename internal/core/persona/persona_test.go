package persona

import (
	"strings"
	"testing"

	"hyper4/internal/sim"
	"hyper4/internal/sim/runtime"
)

func TestGenerateReference(t *testing.T) {
	p, err := Generate(Reference)
	if err != nil {
		t.Fatal(err)
	}
	if p.LoC() < 3000 {
		t.Errorf("reference persona LoC = %d, expected thousands (paper: ~6400)", p.LoC())
	}
	if p.TableCount < 100 {
		t.Errorf("reference persona tables = %d, expected >100 (paper: 346)", p.TableCount)
	}
	t.Logf("reference persona: %d LoC, %d tables, %d actions", p.LoC(), p.TableCount, p.ActionCount)
}

func TestPersonaLoadsAndAcceptsBaseCommands(t *testing.T) {
	p, err := Generate(Config{Stages: 2, Primitives: 3, ParseDefault: 20, ParseStep: 10, ParseMax: 40})
	if err != nil {
		t.Fatal(err)
	}
	sw, err := sim.New("persona", p.Program)
	if err != nil {
		t.Fatal(err)
	}
	rt := runtime.New(sw)
	if err := rt.ExecAll(p.BaseCommands); err != nil {
		t.Fatalf("base commands: %v", err)
	}
	// An unconfigured persona drops everything.
	out, tr, err := sw.Process(make([]byte, 64), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Errorf("unconfigured persona should drop: %+v", out)
	}
	if tr.Applies == 0 {
		t.Error("persona should apply setup tables even when unconfigured")
	}
}

func TestByteCounts(t *testing.T) {
	c := Reference
	counts := c.ByteCounts()
	want := []int{20, 30, 40, 50, 60, 70, 80, 90, 100}
	if len(counts) != len(want) {
		t.Fatalf("counts = %v", counts)
	}
	for i := range want {
		if counts[i] != want[i] {
			t.Fatalf("counts = %v, want %v", counts, want)
		}
	}
}

func TestRoundBytes(t *testing.T) {
	c := Reference
	cases := []struct {
		in   int
		want int
		ok   bool
	}{
		{14, 20, true}, {20, 20, true}, {21, 30, true}, {34, 40, true},
		{54, 60, true}, {100, 100, true}, {101, 0, false},
	}
	for _, tc := range cases {
		got, ok := c.RoundBytes(tc.in)
		if got != tc.want || ok != tc.ok {
			t.Errorf("RoundBytes(%d) = %d,%v want %d,%v", tc.in, got, ok, tc.want, tc.ok)
		}
	}
}

func TestGenerateValidation(t *testing.T) {
	bad := []Config{
		{Stages: 0, Primitives: 1, ParseDefault: 20, ParseStep: 10, ParseMax: 100},
		{Stages: 1, Primitives: 0, ParseDefault: 20, ParseStep: 10, ParseMax: 100},
		{Stages: 1, Primitives: 1, ParseDefault: 0, ParseStep: 10, ParseMax: 100},
		{Stages: 1, Primitives: 1, ParseDefault: 20, ParseStep: 10, ParseMax: 10},
	}
	for _, c := range bad {
		if _, err := Generate(c); err == nil {
			t.Errorf("config %+v should be rejected", c)
		}
	}
}

// TestFigure7Shape verifies the paper's Figure 7 claim: persona LoC grows
// linearly in both the number of stages and the primitives per stage.
func TestFigure7Shape(t *testing.T) {
	loc := func(stages, prims int) int {
		p, err := Generate(Config{Stages: stages, Primitives: prims, ParseDefault: 20, ParseStep: 20, ParseMax: 40})
		if err != nil {
			t.Fatal(err)
		}
		return p.LoC()
	}
	l1 := loc(1, 1)
	l3 := loc(3, 1)
	l5 := loc(5, 1)
	if !(l1 < l3 && l3 < l5) {
		t.Errorf("LoC not increasing in stages: %d %d %d", l1, l3, l5)
	}
	// Linearity: increments should match.
	if d1, d2 := l3-l1, l5-l3; d1 != d2 {
		t.Errorf("LoC growth in stages not linear: +%d then +%d", d1, d2)
	}
	p1 := loc(2, 1)
	p5 := loc(2, 5)
	p9 := loc(2, 9)
	if !(p1 < p5 && p5 < p9) {
		t.Errorf("LoC not increasing in primitives: %d %d %d", p1, p5, p9)
	}
	if d1, d2 := p5-p1, p9-p5; d1 != d2 {
		t.Errorf("LoC growth in primitives not linear: +%d then +%d", d1, d2)
	}
}

// TestFigure8Shape verifies table-count growth (Figure 8).
func TestFigure8Shape(t *testing.T) {
	tables := func(stages, prims int) int {
		p, err := Generate(Config{Stages: stages, Primitives: prims, ParseDefault: 20, ParseStep: 20, ParseMax: 40})
		if err != nil {
			t.Fatal(err)
		}
		return p.TableCount
	}
	base := tables(1, 1)
	perStage := tables(2, 1) - base
	if perStage <= 0 {
		t.Fatalf("per-stage table increment = %d", perStage)
	}
	if got := tables(4, 1); got != base+3*perStage {
		t.Errorf("tables(4,1) = %d, want %d (linear)", got, base+3*perStage)
	}
	perPrim := tables(1, 2) - base
	if perPrim != 3 {
		t.Errorf("per-primitive tables = %d, want 3 (§4.3: prep/exec/done)", perPrim)
	}
}

func TestSourceMentionsKeyTables(t *testing.T) {
	p, err := Generate(Config{Stages: 1, Primitives: 1, ParseDefault: 20, ParseStep: 20, ParseMax: 20})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"table t_norm", "table t_assign", "table t_parse_ctrl",
		"table t1_ed_exact", "table t1_p1_prep", "table t1_p1_exec", "table t1_p1_done",
		"table t_virtnet", "table te_resize", "table te_writeback",
		"resubmit(fl_resubmit)", "recirculate(fl_recirc)",
	} {
		if !strings.Contains(p.Source(), want) {
			t.Errorf("persona source missing %q", want)
		}
	}
}
