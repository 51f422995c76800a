package bench

import (
	"fmt"
	"time"

	"hyper4/internal/core/dpmu"
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
		d, p, err := newDPMU("s", cfg)
		if err != nil {
			return nil, fmt.Errorf("grid ablation step=%d: %w", step, err)
		}
		fw := func(add functions.Installer) error {
			return functions.NewFirewallControllerFunc(add).AddHost(h2MAC, 2)
		}
		if err := install(d, vdev{name: "fw", fn: functions.Firewall,
			populate: fw, assigns: anyPort(1), ports: []int{2}}); err != nil {
			return nil, fmt.Errorf("grid ablation step=%d: %w", step, err)
		}
		comp, err := compiled(functions.Firewall, cfg)
		if err != nil {
			return nil, err
		}
		_, tr, err := d.SW.Process(WorkloadPackets(functions.Firewall)[0], 1)
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
		d, _, err := newDPMU("s", persona.Reference)
		if err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			base := i*2 + 1
			if err := install(d, vdev{
				name:     fmt.Sprintf("l2_%d", i),
				fn:       functions.L2Switch,
				populate: addHosts([]hostEntry{{h1MAC, base}, {h2MAC, base + 1}}),
				assigns:  []dpmu.Assignment{{PhysPort: base, VIngress: base}, {PhysPort: base + 1, VIngress: base + 1}},
				ports:    []int{base, base + 1},
			}); err != nil {
				return nil, err
			}
		}
		sw := d.SW
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
	populate := map[string]func(functions.Installer) error{
		functions.Firewall: func(add functions.Installer) error {
			c := functions.NewFirewallControllerFunc(add)
			if err := c.AddHost(h2MAC, 2); err != nil {
				return err
			}
			return c.BlockTCPDstPort(9999)
		},
		functions.Router: func(add functions.Installer) error {
			c := functions.NewRouterControllerFunc(add)
			if err := c.Init(); err != nil {
				return err
			}
			if err := c.AddRoute(h2IP, 32, h2IP, 2); err != nil {
				return err
			}
			if err := c.AddNextHop(h2IP, h2MAC); err != nil {
				return err
			}
			return c.AddPortMAC(2, s2MAC)
		},
	}
	build := func(fn string, cfg persona.Config) (*sim.Switch, error) {
		d, _, err := newDPMU("s", cfg)
		if err != nil {
			return nil, err
		}
		if err := install(d, vdev{name: "dev", fn: fn,
			populate: populate[fn], assigns: anyPort(1), ports: []int{2}}); err != nil {
			return nil, err
		}
		return d.SW, nil
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
