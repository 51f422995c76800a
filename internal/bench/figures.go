package bench

import (
	"fmt"
	"strings"

	"hyper4/internal/core/persona"
	"hyper4/internal/pkt"
	"hyper4/internal/rmt"
	"hyper4/internal/sim"
)

// swProc is the part of sim.Switch the pass-count probes use.
type swProc interface {
	Process(data []byte, port int) ([]sim.Output, *sim.Trace, error)
}

// icmpEcho builds the ping packet used by several experiments.
func icmpEcho() []byte {
	return pkt.Pad(pkt.Serialize(
		&pkt.Ethernet{Dst: h2MAC, Src: h1MAC, EtherType: pkt.EtherTypeIPv4},
		&pkt.IPv4{TTL: 64, Protocol: pkt.IPProtoICMP, Src: h1IP, Dst: h2IP},
		&pkt.ICMP{Type: pkt.ICMPEchoRequest, ID: 9, Seq: 1},
	))
}

// FigurePoint is one (stages, primitives) sample of Figures 7 and 8.
type FigurePoint struct {
	Stages     int
	Primitives int
	LoC        int // Figure 7(a): total persona source lines
	DropLoC    int // Figure 7(b): lines supporting the drop primitive
	ModLoC     int // Figure 7(c): lines supporting modify_field
	Tables     int // Figure 8: declared tables
	Actions    int
}

// FigureSweep generates personas across the paper's sweep: stages 1–5 and
// primitives-per-action 1,3,5,7,9 (Figures 7 and 8 share it).
func FigureSweep() ([]FigurePoint, error) {
	var out []FigurePoint
	for stages := 1; stages <= 5; stages++ {
		for _, prims := range []int{1, 3, 5, 7, 9} {
			cfg := persona.Config{
				Stages: stages, Primitives: prims,
				ParseDefault: persona.Reference.ParseDefault,
				ParseStep:    persona.Reference.ParseStep,
				ParseMax:     persona.Reference.ParseMax,
			}
			p, err := persona.Generate(cfg)
			if err != nil {
				return nil, fmt.Errorf("figure sweep %d/%d: %w", stages, prims, err)
			}
			out = append(out, FigurePoint{
				Stages:     stages,
				Primitives: prims,
				LoC:        p.LoC(),
				DropLoC:    primitiveLoC(p.Source(), "drop"),
				ModLoC:     primitiveLoC(p.Source(), "mod_ed_const"),
				Tables:     p.TableCount,
				Actions:    p.ActionCount,
			})
		}
	}
	return out, nil
}

// primitiveLoC counts source lines attributable to one primitive opcode:
// every line mentioning its prep/exec action names. Per-opcode actions are
// constant-size, but each primitive slot's prep and exec tables list them,
// so the count grows linearly in stages × primitives — the shape Figure
// 7(b)/(c) reports.
func primitiveLoC(src, op string) int {
	prep, exec := "a_prep_"+op, "a_exec_"+op
	n := 0
	for _, line := range strings.Split(src, "\n") {
		if strings.Contains(line, prep) || strings.Contains(line, exec) {
			n++
		}
	}
	return n
}

// SpaceRow summarizes §6.2's space analysis for the reference persona.
type SpaceRow struct {
	Tables         int // paper: 346
	Actions        int // paper: 130
	ResizeActions  int // paper: 80
	LoC            int // §5.1: ~6400
	EntryBitsED    int // ternary entry on extracted data: value+mask (paper: ≥1600)
	EntryBitsMeta  int // ternary entry on emulated metadata (paper: ≥512)
	ExtractedWidth int
	MetaWidth      int
}

// Space computes the reference persona's space figures.
func Space() (SpaceRow, error) {
	p, err := persona.Generate(persona.Reference)
	if err != nil {
		return SpaceRow{}, err
	}
	return SpaceRow{
		Tables:         p.TableCount,
		Actions:        p.ActionCount,
		ResizeActions:  len(persona.Reference.ByteCounts()),
		LoC:            p.LoC(),
		EntryBitsED:    2 * persona.Reference.ExtractedWidth(),
		EntryBitsMeta:  2 * persona.MetaWidth,
		ExtractedWidth: persona.Reference.ExtractedWidth(),
		MetaWidth:      persona.MetaWidth,
	}, nil
}

// RMTAnalysis reproduces §6.5 for the ARP proxy's most complex packet.
func RMTAnalysis() (*rmt.Analysis, error) {
	sw, err := FunctionSwitch("arp_proxy", HyPer4)
	if err != nil {
		return nil, err
	}
	// The proxied request exercises the nine-primitive reply — the most
	// demanding path §6.5 analyzes.
	_, tr, err := sw.Process(WorkloadPackets("arp_proxy")[0], 1)
	if err != nil {
		return nil, err
	}
	return rmt.AnalyzeTrace(sw, tr, rmt.RMT)
}
