package persona

import (
	"fmt"
	"reflect"
	"testing"

	"hyper4/internal/p4/hlir"
	"hyper4/internal/p4/parser"
)

// TestGenerateRoundTrip is the oracle for Generate resolving the built AST
// without printing it: the printed source must parse back to exactly the
// AST that was resolved, and resolving the parse must give exactly
// p.Program. A printer or parser change that loses or alters anything in
// the persona fails here.
func TestGenerateRoundTrip(t *testing.T) {
	partial := Reference
	partial.FixedParser = true
	configs := []Config{Reference, partial}
	// Figure 7/8 sweep corners.
	for _, sp := range [][2]int{{1, 1}, {5, 1}, {2, 9}} {
		configs = append(configs, Config{Stages: sp[0], Primitives: sp[1], ParseDefault: 20, ParseStep: 20, ParseMax: 40})
	}
	// The rest of internal/bench's ablation personas: the parse-grid sweep
	// (its step 10 is Reference).
	for _, step := range []int{2, 5, 20, 40} {
		configs = append(configs, Config{Stages: Reference.Stages, Primitives: Reference.Primitives, ParseDefault: 20, ParseStep: step, ParseMax: 100})
	}
	for _, c := range configs {
		name := fmt.Sprintf("stages=%d/prims=%d/parse=%d-%d-%d/fixed=%v", c.Stages, c.Primitives, c.ParseDefault, c.ParseStep, c.ParseMax, c.FixedParser)
		t.Run(name, func(t *testing.T) {
			p, err := Generate(c)
			if err != nil {
				t.Fatal(err)
			}
			parsed, err := parser.Parse("hyper4_persona", p.Source())
			if err != nil {
				t.Fatalf("printed source does not parse: %v", err)
			}
			if !reflect.DeepEqual(parsed, p.Program.AST) {
				t.Fatal("printed source does not parse back to the built AST")
			}
			resolved, err := hlir.Resolve(parsed)
			if err != nil {
				t.Fatalf("parsed source does not resolve: %v", err)
			}
			if !reflect.DeepEqual(resolved, p.Program) {
				t.Fatal("resolving the parsed source differs from p.Program")
			}
		})
	}
}

// TestGenerateAllocs keeps the cold-start path free of printing and parsing:
// building, resolving and the base commands take about 12k allocations for
// the reference persona, a print-and-parse round trip about 75k more.
func TestGenerateAllocs(t *testing.T) {
	const limit = 20000
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := Generate(Reference); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > limit {
		t.Errorf("Generate(Reference) = %.0f allocs, want <= %d", allocs, limit)
	}
}

var generated *Persona

func BenchmarkGenerate(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p, err := Generate(Reference)
		if err != nil {
			b.Fatal(err)
		}
		generated = p
	}
}
