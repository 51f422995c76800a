// Command hp4gen generates the HyPer4 persona's P4 source for a
// configuration — the role of the paper's 900-line Python configuration
// script (§5.1).
//
// Usage:
//
//	hp4gen [-stages N] [-primitives N] [-default N] [-step N] [-max N]
//	       [-o persona.p4] [-base base.txt] [-loc]
//
// With -loc, only the structural summary (LoC, tables, actions) is printed —
// the data behind Figures 7 and 8.
package main

import (
	"flag"
	"fmt"
	"os"

	"hyper4/internal/core/persona"
)

func main() {
	stages := flag.Int("stages", persona.Reference.Stages, "emulated match-action stages")
	prims := flag.Int("primitives", persona.Reference.Primitives, "max primitives per compound action")
	pdef := flag.Int("default", persona.Reference.ParseDefault, "default parse bytes")
	pstep := flag.Int("step", persona.Reference.ParseStep, "parse byte step")
	pmax := flag.Int("max", persona.Reference.ParseMax, "max parse bytes")
	fixed := flag.Bool("fixed", false, "partial virtualization: directly-implemented parser (§7.1)")
	out := flag.String("o", "", "write persona P4 source to this file (default stdout)")
	base := flag.String("base", "", "write the persona base-entry command file here")
	locOnly := flag.Bool("loc", false, "print only the structural summary")
	flag.Parse()

	cfg := persona.Config{
		Stages: *stages, Primitives: *prims,
		ParseDefault: *pdef, ParseStep: *pstep, ParseMax: *pmax,
		FixedParser: *fixed,
	}
	p, err := persona.Generate(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hp4gen:", err)
		os.Exit(1)
	}
	if *locOnly {
		fmt.Printf("stages=%d primitives=%d loc=%d tables=%d actions=%d\n",
			cfg.Stages, cfg.Primitives, p.LoC(), p.TableCount, p.ActionCount)
		return
	}
	if *base != "" {
		if err := os.WriteFile(*base, []byte(p.BaseCommands), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "hp4gen:", err)
			os.Exit(1)
		}
	}
	if *out == "" {
		fmt.Print(p.Source())
		return
	}
	if err := os.WriteFile(*out, []byte(p.Source()), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "hp4gen:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "hp4gen: wrote %d LoC, %d tables, %d actions to %s\n",
		p.LoC(), p.TableCount, p.ActionCount, *out)
}
