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
// measures the cost of traffic through the first slice.
func DeviceDensity(counts []int) ([]DensityRow, error) {
	var rows []DensityRow
	for _, n := range counts {
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
		frame := pkt.Pad(pkt.Serialize(&pkt.Ethernet{Dst: h2MAC, Src: h1MAC, EtherType: 0x0800}))
		// Warm up, then time the fastest of a few rounds: one round takes a
		// few milliseconds, so a single preemption or GC pause can double it.
		if _, _, err := sw.Process(frame, 1); err != nil {
			return nil, err
		}
		const iters, rounds = 200, 5
		var elapsed time.Duration
		var applies int
		for r := 0; r < rounds; r++ {
			start := time.Now()
			for i := 0; i < iters; i++ {
				_, tr, err := sw.Process(frame, 1)
				if err != nil {
					return nil, err
				}
				applies = tr.Applies
			}
			if took := time.Since(start); r == 0 || took < elapsed {
				elapsed = took
			}
		}
		total := 0
		for _, tbl := range sw.TableNames() {
			c, _ := sw.TableEntryCount(tbl)
			total += c
		}
		rows = append(rows, DensityRow{
			Devices:   n,
			NsPerPkt:  float64(elapsed.Nanoseconds()) / iters,
			Applies:   applies,
			TotalRows: total,
		})
	}
	return rows, nil
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
// virtualization).
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
	measure := func(sw *sim.Switch, p []byte) (applies, passes, resubmits int, ns float64, err error) {
		const iters = 100
		if _, _, err = sw.Process(p, 1); err != nil { // warm up
			return
		}
		start := time.Now()
		for i := 0; i < iters; i++ {
			var tr *sim.Trace
			if _, tr, err = sw.Process(p, 1); err != nil {
				return
			}
			applies, passes, resubmits = tr.Applies, tr.Passes, tr.Resubmits
		}
		ns = float64(time.Since(start).Nanoseconds()) / iters
		return
	}
	var rows []PartialRow
	for _, fn := range []string{functions.Firewall, functions.Router} {
		p := WorkloadPackets(fn)[0]
		row := PartialRow{Program: fn}
		full, err := build(fn, persona.Reference)
		if err != nil {
			return nil, fmt.Errorf("partial ablation %s full: %w", fn, err)
		}
		row.FullApplies, row.FullPasses, row.FullResubmits, row.FullNsPerPkt, err = measure(full, p)
		if err != nil {
			return nil, err
		}
		part, err := build(fn, partialCfg)
		if err != nil {
			return nil, fmt.Errorf("partial ablation %s partial: %w", fn, err)
		}
		row.PartApplies, row.PartPasses, row.PartResubmits, row.PartNsPerPkt, err = measure(part, p)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}
