// Package rmt reproduces the paper's §6.5 analysis: can a realistic
// RMT-style ASIC run HyPer4? The analysis compares the persona's packet
// header vector (PHV) demand to RMT's 4096-bit PHV, and the number of
// physical match-action stages a program's most complex packet needs to
// RMT's 32+32 stages — accounting for HyPer4 match-action stages whose
// ternary match exceeds one physical stage's 640-bit TCAM capacity.
package rmt

import (
	"fmt"

	"hyper4/internal/core/persona"
	"hyper4/internal/p4/ast"
	"hyper4/internal/p4/hlir"
	"hyper4/internal/sim"
)

// Spec describes an RMT-like target.
type Spec struct {
	Name          string
	PHVBits       int
	IngressStages int
	EgressStages  int
	SRAMMatchBits int // per-stage exact-match width
	TCAMMatchBits int // per-stage ternary width (mask bits count double)
}

// RMT is the chip described in the paper's reference [12], as §6.5 cites it.
var RMT = Spec{
	Name:          "RMT",
	PHVBits:       4096,
	IngressStages: 32,
	EgressStages:  32,
	SRAMMatchBits: 640,
	TCAMMatchBits: 640,
}

// PHVUsage breaks down the persona's packet-header-vector demand.
type PHVUsage struct {
	Extracted int // the wide extracted-data field
	Emeta     int // the wide emulated-metadata field
	Overhead  int // control metadata + scratch + standard metadata
	Total     int
}

// TableCost is the physical cost of one applied persona table.
type TableCost struct {
	Table      string
	Egress     bool
	SRAMBits   int
	TCAMBits   int // value+mask bits
	PhysStages int
}

// Analysis is the full §6.5 result for one program's most complex packet.
type Analysis struct {
	Spec Spec
	PHV  PHVUsage

	IngressHP4Stages int // persona tables applied in ingress
	EgressHP4Stages  int
	IngressPhys      int // physical stages after width expansion
	EgressPhys       int
	Tables           []TableCost

	FitsPHV           bool
	FitsIngressStages bool
	// IngressOverPct is how far over (or under, negative) the ingress
	// stage budget the requirement lands, in percent.
	IngressOverPct float64
}

// AnalyzePHV computes the PHV breakdown for a persona program.
func AnalyzePHV(p *hlir.Program, spec Spec) PHVUsage {
	var u PHVUsage
	for name, inst := range p.Instances {
		if !inst.Decl.Metadata {
			continue
		}
		w := inst.Width()
		switch name {
		case persona.InstData:
			// Split the data instance into its two fields.
			if f := inst.Type.Field("extracted"); f != nil {
				u.Extracted = f.Width
			}
			if f := inst.Type.Field("emeta"); f != nil {
				u.Emeta = f.Width
			}
			u.Overhead += w - u.Extracted - u.Emeta
		default:
			u.Overhead += w
		}
	}
	u.Total = u.Extracted + u.Emeta + u.Overhead
	return u
}

// AnalyzeTrace computes the physical stage requirement for one packet trace
// on a switch (typically the persona emulating a program's most complex
// packet, per Table 1).
func AnalyzeTrace(sw *sim.Switch, tr *sim.Trace, spec Spec) (*Analysis, error) {
	a := &Analysis{Spec: spec, PHV: AnalyzePHV(sw.Program(), spec)}
	for _, ap := range tr.ApplyLog {
		reads, err := sim.TableReads(sw.Program(), ap.Table)
		if err != nil {
			return nil, fmt.Errorf("rmt: %w", err)
		}
		cost := TableCost{Table: ap.Table, Egress: ap.Egress}
		for _, r := range reads {
			switch r.Kind {
			case ast.MatchExact, ast.MatchValid:
				cost.SRAMBits += r.Width
			default:
				// Ternary (and LPM/range realized in TCAM): value + mask.
				cost.TCAMBits += 2 * r.Width
			}
		}
		cost.PhysStages = physStages(cost, spec)
		a.Tables = append(a.Tables, cost)
		if ap.Egress {
			a.EgressHP4Stages++
			a.EgressPhys += cost.PhysStages
		} else {
			a.IngressHP4Stages++
			a.IngressPhys += cost.PhysStages
		}
	}
	a.FitsPHV = a.PHV.Total <= spec.PHVBits
	a.FitsIngressStages = a.IngressPhys <= spec.IngressStages
	a.IngressOverPct = 100 * (float64(a.IngressPhys)/float64(spec.IngressStages) - 1)
	return a, nil
}

// physStages returns how many physical stages one table application needs:
// the wider of its SRAM and TCAM demand, each divided by the per-stage
// capacity (§6.5: a 1600-bit TCAM match needs three 640-bit stages).
func physStages(c TableCost, spec Spec) int {
	n := 1
	if s := ceilDiv(c.SRAMBits, spec.SRAMMatchBits); s > n {
		n = s
	}
	if t := ceilDiv(c.TCAMBits, spec.TCAMMatchBits); t > n {
		n = t
	}
	return n
}

func ceilDiv(a, b int) int {
	if a <= 0 {
		return 0
	}
	return (a + b - 1) / b
}
