package bench

import (
	"fmt"

	"hyper4/internal/core/hp4c"
	"hyper4/internal/core/persona"
	"hyper4/internal/functions"
	"hyper4/internal/sim"
)

// Table1Row is one row of the paper's Table 1: match-action stages incurred
// by the most complex packet, natively vs emulated.
type Table1Row struct {
	Program     string
	Native      int
	HyPer4      int
	PaperNative int
	PaperHyPer4 int
}

// paperTable1 holds the published values.
var paperTable1 = map[string][2]int{
	functions.L2Switch: {2, 13},
	functions.Firewall: {3, 22},
	functions.Router:   {4, 28},
	functions.ARPProxy: {4, 48},
}

// Table1 measures the number of matches (table applications) for the most
// complex processing per function, natively and under HyPer4.
func Table1() ([]Table1Row, error) {
	var rows []Table1Row
	for _, fn := range functions.Names() {
		row := Table1Row{Program: fn,
			PaperNative: paperTable1[fn][0], PaperHyPer4: paperTable1[fn][1]}
		for _, mode := range []Mode{Native, HyPer4} {
			sw, err := FunctionSwitch(fn, mode)
			if err != nil {
				return nil, fmt.Errorf("table1 %s %s: %w", fn, mode, err)
			}
			maxApplies := 0
			for _, p := range WorkloadPackets(fn) {
				_, tr, err := sw.Process(p, 1)
				if err != nil {
					return nil, fmt.Errorf("table1 %s %s: %w", fn, mode, err)
				}
				if tr.Applies > maxApplies {
					maxApplies = tr.Applies
				}
			}
			if mode == Native {
				row.Native = maxApplies
			} else {
				row.HyPer4 = maxApplies
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// ReferencedTables returns the set of persona tables a compiled program
// references: the shared setup/egress machinery plus, per stage slot, the
// slot's match table and the primitive tables its actions can exercise.
// This is the quantity behind the paper's Tables 2 and 3.
func ReferencedTables(comp *hp4c.Compiled) map[string]bool {
	cfg := comp.Cfg
	out := map[string]bool{
		persona.TblNorm:      true,
		persona.TblAssign:    true,
		persona.TblParseCtrl: true,
		persona.TblVirtnet:   true,
		persona.TblDropped:   true,
		persona.TblRecirc:    true,
		persona.TblResize:    true,
		persona.TblWriteback: true,
	}
	if comp.NeedsIPv4Csum {
		out[persona.TblCsum] = true
	}
	for _, slot := range comp.SlotList {
		out[persona.StageTable(slot.Stage, persona.KindName(slot.Kind))] = true
		// The widest action bound to this table determines how many
		// primitive slots its entries can exercise.
		maxPrims := 0
		tbl := comp.Prog.Tables[slot.Table]
		for _, act := range tbl.Actions {
			if ca := comp.Actions[act]; ca != nil && len(ca.Prims) > maxPrims {
				maxPrims = len(ca.Prims)
			}
		}
		if maxPrims > cfg.Primitives {
			maxPrims = cfg.Primitives
		}
		for p := 1; p <= maxPrims; p++ {
			out[persona.PrimTable(slot.Stage, p, "prep")] = true
			out[persona.PrimTable(slot.Stage, p, "exec")] = true
			out[persona.PrimTable(slot.Stage, p, "done")] = true
		}
	}
	return out
}

// Table23Cell is one cell of Tables 2/3: for a program pair, how many
// persona tables both reference (shared) and how many each references that
// the other does not (unique).
type Table23Cell struct {
	A, B           string
	Shared         int
	UniqueA        int
	UniqueB        int
	TotalA, TotalB int
}

// Table23 computes the shared/unique persona-table counts for every pair of
// the four functions (paper Tables 2 and 3).
func Table23() ([]Table23Cell, error) {
	names := functions.Names()
	refs := map[string]map[string]bool{}
	for _, fn := range names {
		comp, err := compiled(fn, persona.Reference)
		if err != nil {
			return nil, err
		}
		refs[fn] = ReferencedTables(comp)
	}
	var cells []Table23Cell
	for i, a := range names {
		for _, b := range names[i:] {
			cell := Table23Cell{A: a, B: b, TotalA: len(refs[a]), TotalB: len(refs[b])}
			for t := range refs[a] {
				if refs[b][t] {
					cell.Shared++
				} else {
					cell.UniqueA++
				}
			}
			for t := range refs[b] {
				if !refs[a][t] {
					cell.UniqueB++
				}
			}
			cells = append(cells, cell)
		}
	}
	return cells, nil
}

// Table4Row is one row of the paper's Table 4: ternary match pressure for
// the most complex packet of each program under HyPer4.
type Table4Row struct {
	Program        string
	TotalBits      int // includes wildcarded bits
	ActiveBits     int // mask bits actively compared
	TernaryMatches int

	PaperTotal, PaperActive, PaperMatches int
}

var paperTable4 = map[string][3]int{
	functions.L2Switch: {808, 56, 2},
	functions.Router:   {1224, 80, 4},
	functions.ARPProxy: {1848, 66, 5},
	functions.Firewall: {1928, 59, 6},
}

// Table4 measures ternary match usage under emulation.
func Table4() ([]Table4Row, error) {
	order := []string{functions.L2Switch, functions.Router, functions.ARPProxy, functions.Firewall}
	var rows []Table4Row
	for _, fn := range order {
		sw, err := FunctionSwitch(fn, HyPer4)
		if err != nil {
			return nil, err
		}
		var best *sim.Trace
		for _, p := range WorkloadPackets(fn) {
			_, tr, err := sw.Process(p, 1)
			if err != nil {
				return nil, err
			}
			if best == nil || tr.TernaryBitsTotal > best.TernaryBitsTotal {
				best = tr
			}
		}
		pv := paperTable4[fn]
		rows = append(rows, Table4Row{
			Program:        fn,
			TotalBits:      best.TernaryBitsTotal,
			ActiveBits:     best.TernaryBitsActive,
			TernaryMatches: best.TernaryMatches,
			PaperTotal:     pv[0], PaperActive: pv[1], PaperMatches: pv[2],
		})
	}
	return rows, nil
}
