package bench

import (
	"testing"

	"hyper4/internal/functions"
)

// TestTable1Shape verifies Table 1's shape: emulation inflates the match
// count by roughly 6–7× for the simple functions and ~12× for the ARP proxy.
func TestTable1Shape(t *testing.T) {
	rows, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows: %d", len(rows))
	}
	for _, r := range rows {
		t.Logf("%-10s native=%d (paper %d)  hp4=%d (paper %d)  ratio=%.1fx",
			r.Program, r.Native, r.PaperNative, r.HyPer4, r.PaperHyPer4,
			float64(r.HyPer4)/float64(r.Native))
		if r.Native != r.PaperNative {
			t.Errorf("%s native = %d, paper %d", r.Program, r.Native, r.PaperNative)
		}
		ratio := float64(r.HyPer4) / float64(r.Native)
		if ratio < 3 {
			t.Errorf("%s emulation ratio %.1f too low; paper ≈6–12x", r.Program, ratio)
		}
		// Within 2x of the paper's absolute count.
		if r.HyPer4 < r.PaperHyPer4/2 || r.HyPer4 > r.PaperHyPer4*2 {
			t.Errorf("%s hp4 = %d, paper %d (outside 2x band)", r.Program, r.HyPer4, r.PaperHyPer4)
		}
	}
	// The ARP proxy is the most expensive, as in the paper.
	var arp, l2 int
	for _, r := range rows {
		switch r.Program {
		case functions.ARPProxy:
			arp = r.HyPer4
		case functions.L2Switch:
			l2 = r.HyPer4
		}
	}
	if arp <= l2 {
		t.Errorf("arp_proxy (%d) should cost more than l2_switch (%d)", arp, l2)
	}
}

// TestTable23Shape verifies the sharing property behind Tables 2 and 3: most
// program pairs share more persona tables than they uniquely reference.
func TestTable23Shape(t *testing.T) {
	cells, err := Table23()
	if err != nil {
		t.Fatal(err)
	}
	sharedWins, total := 0, 0
	for _, c := range cells {
		if c.A == c.B {
			if c.Shared != c.TotalA {
				t.Errorf("diagonal %s: shared=%d total=%d", c.A, c.Shared, c.TotalA)
			}
			continue
		}
		t.Logf("%s × %s: shared=%d uniqueA=%d uniqueB=%d", c.A, c.B, c.Shared, c.UniqueA, c.UniqueB)
		total += 2
		if c.Shared > c.UniqueA {
			sharedWins++
		}
		if c.Shared > c.UniqueB {
			sharedWins++
		}
	}
	// Paper: "in eight out of twelve cases, more tables are shared between
	// programs than not".
	if sharedWins*2 < total {
		t.Errorf("sharing should dominate: %d of %d cases", sharedWins, total)
	}
}

// TestTable4Shape verifies ternary-pressure ordering: every program ternary-
// matches hundreds of wildcarded bits with a much smaller active set.
func TestTable4Shape(t *testing.T) {
	rows, err := Table4()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		t.Logf("%-10s total=%d (paper %d) active=%d (paper %d) matches=%d (paper %d)",
			r.Program, r.TotalBits, r.PaperTotal, r.ActiveBits, r.PaperActive,
			r.TernaryMatches, r.PaperMatches)
		if r.TotalBits < 800 {
			t.Errorf("%s total ternary bits = %d; the wide field alone is 800", r.Program, r.TotalBits)
		}
		if r.ActiveBits >= r.TotalBits/4 {
			t.Errorf("%s active bits (%d) should be a small fraction of total (%d)", r.Program, r.ActiveBits, r.TotalBits)
		}
		if r.TernaryMatches < 1 {
			t.Errorf("%s ternary matches = %d", r.Program, r.TernaryMatches)
		}
	}
}

// TestPassCounts asserts §6.4's exact resubmit/recirculate counts.
func TestPassCounts(t *testing.T) {
	rows, err := PassCounts()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Resubmits != r.PaperResub || r.Recirculates != r.PaperRecirc {
			t.Errorf("%s: resubmits=%d recirc=%d, paper %d/%d",
				r.Case, r.Resubmits, r.Recirculates, r.PaperResub, r.PaperRecirc)
		}
	}
}

// TestTable5Shape runs a reduced Table 5 and asserts the headline claim:
// HyPer4 costs most of the bandwidth and multiplies latency. Five
// alternating runs give each mode a best run: a single 50-ping run puts the
// native l2 latency anywhere from 8 to 60 µs when the scheduler preempts it.
func TestTable5Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rows, err := Table5(Table5Opts{Runs: 5, IperfBytes: 256 * 1024, Pings: 50, MSS: 1400})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		t.Logf("%-10s native %.1f Mbps / hp4 %.1f Mbps (penalty %.0f%%, paper %.0f%%)  lat %v -> %v (%.1fx, paper %.1fx)",
			r.Scenario, r.NativeMbps, r.HP4Mbps, 100*r.BandwidthPenalty, 100*r.PaperPenalty,
			r.NativeLat, r.HP4Lat, r.LatencyRatio, r.PaperLatency)
		if r.BandwidthPenalty < 0.5 {
			t.Errorf("%s: bandwidth penalty %.2f, expected large (paper %.2f)", r.Scenario, r.BandwidthPenalty, r.PaperPenalty)
		}
		if r.LatencyRatio < 2 {
			t.Errorf("%s: latency ratio %.2f, expected >2 (paper %.1f)", r.Scenario, r.LatencyRatio, r.PaperLatency)
		}
	}
}

// TestFigureSweepShape asserts linear growth (Figures 7 and 8).
func TestFigureSweepShape(t *testing.T) {
	points, err := FigureSweep()
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 25 {
		t.Fatalf("points = %d", len(points))
	}
	byKey := map[[2]int]FigurePoint{}
	for _, p := range points {
		byKey[[2]int{p.Stages, p.Primitives}] = p
	}
	// Linearity in stages at fixed primitives.
	d1 := byKey[[2]int{2, 9}].LoC - byKey[[2]int{1, 9}].LoC
	d2 := byKey[[2]int{5, 9}].LoC - byKey[[2]int{4, 9}].LoC
	if d1 != d2 || d1 <= 0 {
		t.Errorf("stage growth not linear: +%d vs +%d", d1, d2)
	}
	// Linearity in primitives at fixed stages.
	e1 := byKey[[2]int{4, 3}].LoC - byKey[[2]int{4, 1}].LoC
	e2 := byKey[[2]int{4, 9}].LoC - byKey[[2]int{4, 7}].LoC
	if e1 != e2 || e1 <= 0 {
		t.Errorf("primitive growth not linear: +%d vs +%d", e1, e2)
	}
	// Figure 7(b)/(c): per-primitive support code also grows.
	if byKey[[2]int{5, 9}].DropLoC <= byKey[[2]int{1, 1}].DropLoC {
		t.Error("drop-primitive LoC should grow with the sweep")
	}
	if byKey[[2]int{5, 9}].ModLoC <= byKey[[2]int{1, 1}].ModLoC {
		t.Error("modify_field LoC should grow with the sweep")
	}
	// Figure 8: tables grow linearly too.
	t1 := byKey[[2]int{2, 5}].Tables - byKey[[2]int{1, 5}].Tables
	t2 := byKey[[2]int{5, 5}].Tables - byKey[[2]int{4, 5}].Tables
	if t1 != t2 || t1 <= 0 {
		t.Errorf("table growth not linear: +%d vs +%d", t1, t2)
	}
	ref := byKey[[2]int{4, 9}]
	t.Logf("reference point (4 stages, 9 prims): %d LoC (paper ~6400), %d tables (paper 346)", ref.LoC, ref.Tables)
}

func TestSpace(t *testing.T) {
	s, err := Space()
	if err != nil {
		t.Fatal(err)
	}
	if s.EntryBitsED != 1600 {
		t.Errorf("extracted entry bits = %d, paper: 1600", s.EntryBitsED)
	}
	if s.EntryBitsMeta != 512 {
		t.Errorf("metadata entry bits = %d, paper: 512", s.EntryBitsMeta)
	}
	if s.LoC < 4000 || s.LoC > 12000 {
		t.Errorf("persona LoC = %d, paper ~6400", s.LoC)
	}
	t.Logf("space: %d tables, %d actions (%d resize), %d LoC", s.Tables, s.Actions, s.ResizeActions, s.LoC)
}

func TestRMTAnalysisShape(t *testing.T) {
	a, err := RMTAnalysis()
	if err != nil {
		t.Fatal(err)
	}
	if !a.FitsPHV {
		t.Errorf("PHV should fit: %+v", a.PHV)
	}
	if a.FitsIngressStages {
		t.Errorf("arp proxy should exceed RMT ingress stages: %d", a.IngressPhys)
	}
	t.Logf("RMT: PHV %d/%d, ingress stages %d→%d phys (paper 46→51), egress %d→%d, over %.0f%%",
		a.PHV.Total, a.Spec.PHVBits, a.IngressHP4Stages, a.IngressPhys,
		a.EgressHP4Stages, a.EgressPhys, a.IngressOverPct)
}

// TestGridAblation verifies the parse-grid tradeoff: finer steps cost
// source lines, and the TCP path's extracted bytes shrink toward the exact
// 54-byte requirement.
func TestGridAblation(t *testing.T) {
	rows, err := GridAblation()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		t.Logf("step=%2d: persona %d LoC, %d parser states, tcp bytes=%d, resubmits=%d",
			r.Step, r.PersonaLoC, r.ParserStates, r.TCPBytes, r.TCPResubmits)
		if r.TCPBytes < 54 {
			t.Errorf("step %d extracted %d bytes < requirement 54", r.Step, r.TCPBytes)
		}
		if r.TCPResubmits != 2 {
			t.Errorf("step %d resubmits = %d (decision points fix the count)", r.Step, r.TCPResubmits)
		}
	}
	if rows[0].PersonaLoC <= rows[len(rows)-1].PersonaLoC {
		t.Error("finer grid should cost more LoC")
	}
	if rows[0].TCPBytes > rows[len(rows)-1].TCPBytes {
		t.Error("finer grid should not extract more bytes")
	}
}

// TestDeviceDensity verifies the amortization claim: adding devices grows
// installed state but leaves the per-packet cost of one slice near-flat.
func TestDeviceDensity(t *testing.T) {
	rows, err := DeviceDensity([]int{1, 4, 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		t.Logf("devices=%d: %.0f ns/pkt, %d applies, %d persona rows", r.Devices, r.NsPerPkt, r.Applies, r.TotalRows)
	}
	if rows[2].TotalRows <= rows[0].TotalRows {
		t.Error("more devices should install more rows")
	}
	if rows[0].Applies != rows[2].Applies {
		t.Errorf("per-packet stage count should not depend on co-resident devices: %d vs %d",
			rows[0].Applies, rows[2].Applies)
	}
	// Per-packet cost should grow far slower than device count (sub-2x for 8x devices).
	if rows[2].NsPerPkt > rows[0].NsPerPkt*2 {
		t.Errorf("per-packet cost grew too much with density: %.0f -> %.0f ns", rows[0].NsPerPkt, rows[2].NsPerPkt)
	}
}

// TestPartialVirtualizationAblation verifies §7.1's claim: the fixed-parser
// persona removes every parse resubmission and cuts per-packet work.
func TestPartialVirtualizationAblation(t *testing.T) {
	rows, err := PartialVirtualization()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		t.Logf("%-10s full: %d applies / %d passes / %d resubmits / %.0f ns; partial: %d / %d / %d / %.0f ns",
			r.Program, r.FullApplies, r.FullPasses, r.FullResubmits, r.FullNsPerPkt,
			r.PartApplies, r.PartPasses, r.PartResubmits, r.PartNsPerPkt)
		if r.PartResubmits != 0 {
			t.Errorf("%s partial resubmits = %d, want 0", r.Program, r.PartResubmits)
		}
		if r.FullResubmits == 0 {
			t.Errorf("%s full resubmits = 0; workload should need reparsing", r.Program)
		}
		if r.PartApplies >= r.FullApplies {
			t.Errorf("%s partial applies %d should be below full %d", r.Program, r.PartApplies, r.FullApplies)
		}
		if r.PartNsPerPkt >= r.FullNsPerPkt {
			t.Errorf("%s partial should be faster: %.0f vs %.0f ns", r.Program, r.PartNsPerPkt, r.FullNsPerPkt)
		}
	}
}
