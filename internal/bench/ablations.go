package bench

import (
	"fmt"
	"time"

	"hyper4/internal/core/dpmu"
	"hyper4/internal/core/hp4c"
	"hyper4/internal/core/persona"
	"hyper4/internal/functions"
	"hyper4/internal/pkt"
	"hyper4/internal/sim"
)

// GridAblationRow shows the parse-grid tradeoff (§5.1's default/step/max
// parameters): a finer step wastes fewer extracted bytes but needs more
// parser states and source lines; a coarser step resubmits no less (the
// resubmit count depends on decision points, not grid size) but drags more
// bytes per pass.
type GridAblationRow struct {
	Step         int
	PersonaLoC   int
	ParserStates int
	TCPResubmits int
	TCPBytes     int // bytes extracted for the firewall's TCP path
}

// GridAblation sweeps the parse step for the firewall workload.
func GridAblation() ([]GridAblationRow, error) {
	var rows []GridAblationRow
	for _, step := range []int{2, 5, 10, 20, 40} {
		cfg := persona.Config{
			Stages:       persona.Reference.Stages,
			Primitives:   persona.Reference.Primitives,
			ParseDefault: 20,
			ParseStep:    step,
			ParseMax:     100,
		}
		p, err := persona.Generate(cfg)
		if err != nil {
			return nil, fmt.Errorf("grid ablation step=%d: %w", step, err)
		}
		prog, err := functions.Load(functions.Firewall)
		if err != nil {
			return nil, err
		}
		comp, err := hp4c.Compile(prog, cfg)
		if err != nil {
			return nil, fmt.Errorf("grid ablation step=%d: %w", step, err)
		}
		sw, err := sim.New("s", p.Program)
		if err != nil {
			return nil, err
		}
		d, err := dpmu.New(sw, p)
		if err != nil {
			return nil, err
		}
		if _, err := d.Load("fw", comp, "ab", 0); err != nil {
			return nil, err
		}
		fc := functions.NewFirewallControllerFunc(d.Installer("ab", "fw"))
		if err := fc.AddHost(h2MAC, 2); err != nil {
			return nil, err
		}
		if err := d.AssignPort("ab", dpmu.Assignment{PhysPort: -1, VDev: "fw", VIngress: 1}); err != nil {
			return nil, err
		}
		if err := d.MapVPort("ab", "fw", 2, 2); err != nil {
			return nil, err
		}
		_, tr, err := sw.Process(WorkloadPackets(functions.Firewall)[0], 1)
		if err != nil {
			return nil, fmt.Errorf("grid ablation step=%d: %w", step, err)
		}
		tcpBytes := 0
		for _, pp := range comp.Paths {
			if pp.Valid["tcp"] {
				tcpBytes = pp.Bytes
			}
		}
		rows = append(rows, GridAblationRow{
			Step:         step,
			PersonaLoC:   p.LoC(),
			ParserStates: len(cfg.ByteCounts()) + 1,
			TCPResubmits: tr.Resubmits,
			TCPBytes:     tcpBytes,
		})
	}
	return rows, nil
}

// DensityRow shows how per-packet cost scales with the number of virtual
// devices sharing the persona — the amortization argument of §1 ("the cost
// may be amortized over many programs sharing the same physical substrate").
type DensityRow struct {
	Devices   int
	NsPerPkt  float64
	Applies   int
	TotalRows int // persona entries installed
}

// DeviceDensity loads n L2 switches side by side (a port slice each) and
// measures the cost of traffic through the first slice. Every density is
// built first and then timed in alternating rounds, so host drift lands on
// all of them alike.
func DeviceDensity(counts []int) ([]DensityRow, error) {
	rows := make([]DensityRow, len(counts))
	sws := make([]*sim.Switch, len(counts))
	frame := pkt.Pad(pkt.Serialize(&pkt.Ethernet{Dst: h2MAC, Src: h1MAC, EtherType: 0x0800}))
	for k, n := range counts {
		sw, d, err := newPersonaSwitch("s")
		if err != nil {
			return nil, err
		}
		comp, err := compiled(functions.L2Switch)
		if err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			name := fmt.Sprintf("l2_%d", i)
			if _, err := d.Load(name, comp, "ab", 0); err != nil {
				return nil, err
			}
			c := functions.NewL2ControllerFunc(d.Installer("ab", name))
			base := i*2 + 1
			if err := c.AddHost(h1MAC, base); err != nil {
				return nil, err
			}
			if err := c.AddHost(h2MAC, base+1); err != nil {
				return nil, err
			}
			for _, port := range []int{base, base + 1} {
				if err := d.AssignPort("ab", dpmu.Assignment{PhysPort: port, VDev: name, VIngress: port}); err != nil {
					return nil, err
				}
				if err := d.MapVPort("ab", name, port, port); err != nil {
					return nil, err
				}
			}
		}
		_, tr, err := sw.Process(frame, 1) // also the warm-up
		if err != nil {
			return nil, err
		}
		total := 0
		for _, tbl := range sw.TableNames() {
			c, _ := sw.TableEntryCount(tbl)
			total += c
		}
		rows[k] = DensityRow{Devices: n, Applies: tr.Applies, TotalRows: total}
		sws[k] = sw
	}
	ns, err := nsPerPkt(frame, 20, sws...)
	if err != nil {
		return nil, err
	}
	for k := range rows {
		rows[k].NsPerPkt = ns[k]
	}
	return rows, nil
}

// timingRounds is how many alternating rounds nsPerPkt runs. A round is
// short next to a scheduler time slice (well under a millisecond per
// switch), so across many rounds each switch gets some that no preemption
// or GC pause touched.
const timingRounds = 25

// nsPerPkt runs p through each switch iters times per round, the switches
// back to back within a round and the first one rotating, and returns each
// one's fastest round in ns per packet. A comparison of the results then
// sees the same host on every side: a slow spell hits whichever switches
// it overlaps, and the minimum drops it.
func nsPerPkt(p []byte, iters int, sws ...*sim.Switch) ([]float64, error) {
	best := make([]float64, len(sws))
	for r := 0; r < timingRounds; r++ {
		for k := range sws {
			i := (r + k) % len(sws)
			start := time.Now()
			for j := 0; j < iters; j++ {
				if _, _, err := sws[i].Process(p, 1); err != nil {
					return nil, err
				}
			}
			if ns := float64(time.Since(start).Nanoseconds()) / float64(iters); r == 0 || ns < best[i] {
				best[i] = ns
			}
		}
	}
	return best, nil
}

// PartialRow compares full virtualization against the §7.1 partial
// (fixed-parser) persona for one function's most complex packet.
type PartialRow struct {
	Program string

	FullApplies, FullPasses, FullResubmits int
	FullNsPerPkt                           float64
	PartApplies, PartPasses, PartResubmits int
	PartNsPerPkt                           float64
}

// partialCfg is the reference configuration with the fixed parser.
var partialCfg = persona.Config{
	Stages: persona.Reference.Stages, Primitives: persona.Reference.Primitives,
	ParseDefault: persona.Reference.ParseDefault,
	ParseStep:    persona.Reference.ParseStep,
	ParseMax:     persona.Reference.ParseMax,
	FixedParser:  true,
}

// PartialVirtualization measures §7.1's tradeoff for the firewall and
// router (the two functions whose parse paths need resubmission under full
// virtualization). The two personas are timed in alternating rounds.
func PartialVirtualization() ([]PartialRow, error) {
	build := func(fn string, cfg persona.Config) (*sim.Switch, error) {
		p, err := persona.Generate(cfg)
		if err != nil {
			return nil, err
		}
		sw, err := sim.New("s", p.Program)
		if err != nil {
			return nil, err
		}
		d, err := dpmu.New(sw, p)
		if err != nil {
			return nil, err
		}
		prog, err := functions.Load(fn)
		if err != nil {
			return nil, err
		}
		comp, err := hp4c.Compile(prog, cfg)
		if err != nil {
			return nil, err
		}
		if _, err := d.Load("dev", comp, "ab", 0); err != nil {
			return nil, err
		}
		switch fn {
		case functions.Firewall:
			c := functions.NewFirewallControllerFunc(d.Installer("ab", "dev"))
			if err := c.AddHost(h2MAC, 2); err != nil {
				return nil, err
			}
			if err := c.BlockTCPDstPort(9999); err != nil {
				return nil, err
			}
		case functions.Router:
			c := functions.NewRouterControllerFunc(d.Installer("ab", "dev"))
			if err := c.Init(); err != nil {
				return nil, err
			}
			if err := c.AddRoute(h2IP, 32, h2IP, 2); err != nil {
				return nil, err
			}
			if err := c.AddNextHop(h2IP, h2MAC); err != nil {
				return nil, err
			}
			if err := c.AddPortMAC(2, s2MAC); err != nil {
				return nil, err
			}
		}
		if err := d.AssignPort("ab", dpmu.Assignment{PhysPort: -1, VDev: "dev", VIngress: 1}); err != nil {
			return nil, err
		}
		if err := d.MapVPort("ab", "dev", 2, 2); err != nil {
			return nil, err
		}
		return sw, nil
	}
	var rows []PartialRow
	for _, fn := range []string{functions.Firewall, functions.Router} {
		p := WorkloadPackets(fn)[0]
		full, err := build(fn, persona.Reference)
		if err != nil {
			return nil, fmt.Errorf("partial ablation %s full: %w", fn, err)
		}
		part, err := build(fn, partialCfg)
		if err != nil {
			return nil, fmt.Errorf("partial ablation %s partial: %w", fn, err)
		}
		_, ft, err := full.Process(p, 1) // also the warm-up
		if err != nil {
			return nil, err
		}
		_, pt, err := part.Process(p, 1)
		if err != nil {
			return nil, err
		}
		ns, err := nsPerPkt(p, 10, full, part)
		if err != nil {
			return nil, err
		}
		rows = append(rows, PartialRow{
			Program:       fn,
			FullApplies:   ft.Applies,
			FullPasses:    ft.Passes,
			FullResubmits: ft.Resubmits,
			FullNsPerPkt:  ns[0],
			PartApplies:   pt.Applies,
			PartPasses:    pt.Passes,
			PartResubmits: pt.Resubmits,
			PartNsPerPkt:  ns[1],
		})
	}
	return rows, nil
}
