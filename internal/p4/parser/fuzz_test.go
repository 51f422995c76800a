package parser_test

import (
	"testing"

	"hyper4/internal/core/persona"
	"hyper4/internal/functions"
	"hyper4/internal/p4/parser"
	"hyper4/internal/p4/pretty"
)

// FuzzParseP4 feeds arbitrary text to the P4 front end: the parser must
// never panic, and every program it accepts must print to source that
// parses back and prints identically (Print(Parse(Print(x))) == Print(x)).
func FuzzParseP4(f *testing.F) {
	for _, src := range functions.Sources {
		f.Add(src)
	}
	p, err := persona.Generate(persona.Config{Stages: 1, Primitives: 1, ParseDefault: 20, ParseStep: 20, ParseMax: 20})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(p.Source())
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := parser.Parse("fuzz", src)
		if err != nil {
			return
		}
		printed := pretty.Print(prog)
		again, err := parser.Parse("fuzz_printed", printed)
		if err != nil {
			t.Fatalf("printed program does not parse: %v\n%s", err, printed)
		}
		if reprinted := pretty.Print(again); reprinted != printed {
			t.Fatalf("print is not a fixpoint:\n--- first\n%s\n--- second\n%s", printed, reprinted)
		}
	})
}
