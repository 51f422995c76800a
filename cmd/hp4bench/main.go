// Command hp4bench regenerates every table and figure of the paper's
// evaluation (§6), printing measured values next to the published ones.
//
// Usage:
//
//	hp4bench                 # everything except the slow Table 5
//	hp4bench -all            # everything, Table 5 at paper-like sizing
//	hp4bench -only table1    # one experiment: table1 table2 table3 table4
//	                         # table5 figure7 figure8 space passes rmt
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"hyper4/internal/bench"
)

func main() {
	all := flag.Bool("all", false, "include the slow Table 5 measurement at paper-like sizing")
	only := flag.String("only", "", "run a single experiment")
	runs := flag.Int("runs", 10, "Table 5 repetitions")
	pings := flag.Int("pings", 1000, "Table 5 ping count")
	mbytes := flag.Int64("mbytes", 2, "Table 5 iperf megabytes per run")
	flag.Parse()

	experiments := []struct {
		name string
		slow bool
		run  func() error
	}{
		{"table1", false, table1},
		{"table2", false, table2},
		{"table3", false, table3},
		{"table4", false, table4},
		{"space", false, space},
		{"figure7", false, figure7},
		{"figure8", false, figure8},
		{"passes", false, passes},
		{"rmt", false, rmtRun},
		{"ablations", false, ablations},
		{"table5", true, func() error {
			return table5(bench.Table5Opts{
				Runs: *runs, IperfBytes: *mbytes << 20, Pings: *pings,
				MSS: 1400, SwitchOverhead: 100 * time.Microsecond,
			})
		}},
	}
	ran := false
	for _, e := range experiments {
		if *only != "" && e.name != *only {
			continue
		}
		if *only == "" && e.slow && !*all {
			fmt.Printf("== %s skipped (use -all or -only table5) ==\n\n", e.name)
			continue
		}
		ran = true
		fmt.Printf("== %s ==\n", e.name)
		if err := e.run(); err != nil {
			fmt.Fprintf(os.Stderr, "hp4bench %s: %v\n", e.name, err)
			os.Exit(1)
		}
		fmt.Println()
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "hp4bench: unknown experiment %q\n", *only)
		os.Exit(2)
	}
}

func table1() error {
	rows, err := bench.Table1()
	if err != nil {
		return err
	}
	fmt.Println("Table 1: matches for most complex processing, native vs HyPer4")
	fmt.Printf("%-12s %8s %8s %8s %8s %7s\n", "program", "native", "paper", "hp4", "paper", "ratio")
	for _, r := range rows {
		fmt.Printf("%-12s %8d %8d %8d %8d %6.1fx\n",
			r.Program, r.Native, r.PaperNative, r.HyPer4, r.PaperHyPer4,
			float64(r.HyPer4)/float64(r.Native))
	}
	return nil
}

func table2() error {
	cells, err := bench.Table23()
	if err != nil {
		return err
	}
	fmt.Println("Table 2: persona tables referenced by BOTH programs (diagonal = total)")
	for _, c := range cells {
		if c.A == c.B {
			fmt.Printf("%-12s x %-12s total = %d\n", c.A, c.B, c.TotalA)
		} else {
			fmt.Printf("%-12s x %-12s shared = %d\n", c.A, c.B, c.Shared)
		}
	}
	return nil
}

func table3() error {
	cells, err := bench.Table23()
	if err != nil {
		return err
	}
	fmt.Println("Table 3: persona tables uniquely referenced per pair")
	for _, c := range cells {
		if c.A == c.B {
			continue
		}
		fmt.Printf("%-12s vs %-12s unique: %d / %d\n", c.A, c.B, c.UniqueA, c.UniqueB)
	}
	return nil
}

func table4() error {
	rows, err := bench.Table4()
	if err != nil {
		return err
	}
	fmt.Println("Table 4: ternary match usage (bits per packet, most complex path)")
	fmt.Printf("%-12s %10s %10s %10s %10s %9s %9s\n",
		"program", "total", "paper", "active", "paper", "matches", "paper")
	for _, r := range rows {
		fmt.Printf("%-12s %10d %10d %10d %10d %9d %9d\n",
			r.Program, r.TotalBits, r.PaperTotal, r.ActiveBits, r.PaperActive,
			r.TernaryMatches, r.PaperMatches)
	}
	return nil
}

func table5(opts bench.Table5Opts) error {
	rows, err := bench.Table5(opts)
	if err != nil {
		return err
	}
	fmt.Printf("Table 5: bandwidth (iperf-like, %d MB) and latency (ping flood, %d pings), %d runs\n",
		opts.IperfBytes>>20, opts.Pings, opts.Runs)
	fmt.Printf("%-10s | %21s | %21s | %18s | %18s | penalty (paper) | lat ratio (paper)\n",
		"", "native Mbps ±σ", "hp4 Mbps ±σ", "native ping ±σ", "hp4 ping ±σ")
	for _, r := range rows {
		fmt.Printf("%-10s | %12.1f ± %6.2f | %12.1f ± %6.2f | %10v ± %5v | %10v ± %5v | %6.0f%% (%3.0f%%) | %6.1fx (%.1fx)\n",
			r.Scenario,
			r.NativeMbps, r.NativeMbpsSD, r.HP4Mbps, r.HP4MbpsSD,
			r.NativeLat.Round(time.Microsecond), r.NativeLatSD.Round(time.Microsecond),
			r.HP4Lat.Round(time.Microsecond), r.HP4LatSD.Round(time.Microsecond),
			100*r.BandwidthPenalty, 100*r.PaperPenalty, r.LatencyRatio, r.PaperLatency)
	}
	return nil
}

func figure7() error {
	points, err := bench.FigureSweep()
	if err != nil {
		return err
	}
	fmt.Println("Figure 7: persona LoC by stages and primitives per stage")
	fmt.Printf("%8s %11s %10s %10s %10s\n", "stages", "primitives", "total LoC", "drop LoC", "mod LoC")
	for _, p := range points {
		fmt.Printf("%8d %11d %10d %10d %10d\n", p.Stages, p.Primitives, p.LoC, p.DropLoC, p.ModLoC)
	}
	fmt.Println("(paper: ~6400 LoC at 4 stages x 9 primitives; linear growth in both axes)")
	return nil
}

func figure8() error {
	points, err := bench.FigureSweep()
	if err != nil {
		return err
	}
	fmt.Println("Figure 8: persona tables declared by stages and primitives per stage")
	// Render as a grid: rows = stages, cols = primitives.
	prims := []int{1, 3, 5, 7, 9}
	fmt.Printf("%8s", "stages\\p")
	for _, p := range prims {
		fmt.Printf(" %6d", p)
	}
	fmt.Println()
	grid := map[[2]int]int{}
	for _, pt := range points {
		grid[[2]int{pt.Stages, pt.Primitives}] = pt.Tables
	}
	for s := 1; s <= 5; s++ {
		fmt.Printf("%8d", s)
		for _, p := range prims {
			fmt.Printf(" %6d", grid[[2]int{s, p}])
		}
		fmt.Println()
	}
	fmt.Println("(paper: 346 tables at 4 stages x 9 primitives)")
	return nil
}

func space() error {
	s, err := bench.Space()
	if err != nil {
		return err
	}
	fmt.Println("Space analysis (§6.2):")
	fmt.Printf("  persona tables:          %d (paper: 346)\n", s.Tables)
	fmt.Printf("  persona actions:         %d (paper: 130, of which 80 resize; ours: %d resize)\n", s.Actions, s.ResizeActions)
	fmt.Printf("  persona LoC:             %d (paper: ~6400)\n", s.LoC)
	fmt.Printf("  entry on extracted data: >= %d bits (value+mask over %d bits; paper: 1600)\n", s.EntryBitsED, s.ExtractedWidth)
	fmt.Printf("  entry on emulated meta:  >= %d bits (value+mask over %d bits; paper: 512)\n", s.EntryBitsMeta, s.MetaWidth)
	return nil
}

func passes() error {
	rows, err := bench.PassCounts()
	if err != nil {
		return err
	}
	fmt.Println("§6.4 resubmit/recirculate counts:")
	fmt.Printf("%-30s %10s %8s %10s %8s\n", "case", "resubmits", "paper", "recircs", "paper")
	for _, r := range rows {
		mark := ""
		if r.Resubmits == r.PaperResub && r.Recirculates == r.PaperRecirc {
			mark = "  (exact)"
		}
		fmt.Printf("%-30s %10d %8d %10d %8d%s\n",
			r.Case, r.Resubmits, r.PaperResub, r.Recirculates, r.PaperRecirc, mark)
	}
	return nil
}

func ablations() error {
	grid, err := bench.GridAblation()
	if err != nil {
		return err
	}
	fmt.Println("Ablation: parse-grid step (firewall TCP workload)")
	fmt.Printf("%6s %12s %14s %10s %11s\n", "step", "persona LoC", "parser states", "tcp bytes", "resubmits")
	for _, r := range grid {
		fmt.Printf("%6d %12d %14d %10d %11d\n", r.Step, r.PersonaLoC, r.ParserStates, r.TCPBytes, r.TCPResubmits)
	}
	fmt.Println("\nAblation: co-resident virtual devices (per-packet cost of one slice)")
	dens, err := bench.DeviceDensity([]int{1, 2, 4, 8, 16})
	if err != nil {
		return err
	}
	fmt.Printf("%8s %12s %9s %13s\n", "devices", "ns/packet", "applies", "persona rows")
	for _, r := range dens {
		fmt.Printf("%8d %12.0f %9d %13d\n", r.Devices, r.NsPerPkt, r.Applies, r.TotalRows)
	}
	fmt.Println("\nAblation: partial virtualization (§7.1, fixed parser vs full persona)")
	part, err := bench.PartialVirtualization()
	if err != nil {
		return err
	}
	fmt.Printf("%-10s %22s %22s %9s\n", "program", "full (app/pass/resub)", "partial (app/pass/resub)", "speedup")
	for _, r := range part {
		fmt.Printf("%-10s %10d/%d/%d %.0fns %12d/%d/%d %.0fns %8.1fx\n",
			r.Program, r.FullApplies, r.FullPasses, r.FullResubmits, r.FullNsPerPkt,
			r.PartApplies, r.PartPasses, r.PartResubmits, r.PartNsPerPkt,
			r.FullNsPerPkt/r.PartNsPerPkt)
	}
	return nil
}

func rmtRun() error {
	a, err := bench.RMTAnalysis()
	if err != nil {
		return err
	}
	fmt.Println("§6.5 deploying on RMT (arp_proxy, most complex packet):")
	fmt.Printf("  PHV: %d of %d bits (extracted %d + emeta %d + overhead %d; paper: 3312 of 4096)\n",
		a.PHV.Total, a.Spec.PHVBits, a.PHV.Extracted, a.PHV.Emeta, a.PHV.Overhead)
	fmt.Printf("  ingress: %d HyPer4 stages -> %d physical (paper: 46 -> 51), budget %d\n",
		a.IngressHP4Stages, a.IngressPhys, a.Spec.IngressStages)
	fmt.Printf("  egress:  %d HyPer4 stages -> %d physical (paper: 2)\n", a.EgressHP4Stages, a.EgressPhys)
	verdict := "fits"
	if !a.FitsIngressStages {
		verdict = fmt.Sprintf("exceeds ingress budget by %.0f%% (paper: 60%%)", a.IngressOverPct)
	}
	fmt.Printf("  verdict: %s\n", verdict)
	wide := 0
	for _, t := range a.Tables {
		if t.PhysStages > 1 {
			wide++
		}
	}
	fmt.Printf("  %d of %d applied tables need multiple physical stages\n", wide, len(a.Tables))
	return nil
}
