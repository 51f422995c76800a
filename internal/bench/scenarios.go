// Package bench is the experiment harness: one function per table and
// figure of the paper's evaluation (§6), each returning structured rows that
// cmd/hp4bench prints and the repository's benchmarks assert on.
package bench

import (
	"fmt"

	"hyper4/internal/core/dpmu"
	"hyper4/internal/core/hp4c"
	"hyper4/internal/core/persona"
	"hyper4/internal/functions"
	"hyper4/internal/netsim"
	"hyper4/internal/pkt"
	"hyper4/internal/sim"
)

// Mode selects native execution or HyPer4 emulation.
type Mode int

// Execution modes.
const (
	Native Mode = iota
	HyPer4
)

// String names the mode for labels and sub-benchmarks.
func (m Mode) String() string {
	if m == Native {
		return "native"
	}
	return "hp4"
}

// Fixed addresses used across scenarios.
var (
	h1MAC = pkt.MustMAC("00:00:00:00:00:01")
	h2MAC = pkt.MustMAC("00:00:00:00:00:02")
	h1IP  = pkt.MustIP4("10.0.0.1")
	h2IP  = pkt.MustIP4("10.0.0.2")
	s2MAC = pkt.MustMAC("aa:aa:aa:aa:aa:02")
)

// compileCache avoids recompiling functions for every scenario.
var compileCache = map[string]*hp4c.Compiled{}

func compiled(fn string) (*hp4c.Compiled, error) {
	if c, ok := compileCache[fn]; ok {
		return c, nil
	}
	prog, err := functions.Load(fn)
	if err != nil {
		return nil, err
	}
	c, err := hp4c.Compile(prog, persona.Reference)
	if err != nil {
		return nil, err
	}
	compileCache[fn] = c
	return c, nil
}

// newPersonaSwitch builds a persona switch with a DPMU.
func newPersonaSwitch(name string) (*sim.Switch, *dpmu.DPMU, error) {
	p, err := persona.Generate(persona.Reference)
	if err != nil {
		return nil, nil, err
	}
	sw, err := sim.New(name, p.Program)
	if err != nil {
		return nil, nil, err
	}
	d, err := dpmu.New(sw, p)
	if err != nil {
		return nil, nil, err
	}
	return sw, d, nil
}

// hostEntry binds a MAC to an egress port of an L2 switch.
type hostEntry struct {
	mac  pkt.MAC
	port int
}

// l2Switch builds a (native or emulated) L2 switch with the given
// forwarding entries.
func l2Switch(name string, mode Mode, hosts []hostEntry) (*sim.Switch, error) {
	if mode == Native {
		sw, err := functions.NewSwitch(name, functions.L2Switch)
		if err != nil {
			return nil, err
		}
		c := functions.NewL2Controller(sw)
		for _, h := range hosts {
			if err := c.AddHost(h.mac, h.port); err != nil {
				return nil, err
			}
		}
		return sw, nil
	}
	sw, d, err := newPersonaSwitch(name)
	if err != nil {
		return nil, err
	}
	comp, err := compiled(functions.L2Switch)
	if err != nil {
		return nil, err
	}
	if _, err := d.Load("l2", comp, "bench", 0); err != nil {
		return nil, err
	}
	c := functions.NewL2ControllerFunc(d.Installer("bench", "l2"))
	// Ports are mapped in host order (deduplicated) so repeated builds
	// install virtual-network rows deterministically and dump identically.
	seen := map[int]bool{}
	var ports []int
	for _, h := range hosts {
		if err := c.AddHost(h.mac, h.port); err != nil {
			return nil, err
		}
		if !seen[h.port] {
			seen[h.port] = true
			ports = append(ports, h.port)
		}
	}
	if err := d.AssignPort("bench", dpmu.Assignment{PhysPort: -1, VDev: "l2", VIngress: 0}); err != nil {
		return nil, err
	}
	for _, port := range ports {
		if err := d.MapVPort("bench", "l2", port, port); err != nil {
			return nil, err
		}
	}
	return sw, nil
}

// firewallSwitch builds a (native or emulated) firewall blocking TCP port
// 9999 with hosts h1@1, h2@2.
func firewallSwitch(name string, mode Mode) (*sim.Switch, error) {
	populate := func(c *functions.FirewallController) error {
		if err := c.AddHost(h1MAC, 1); err != nil {
			return err
		}
		if err := c.AddHost(h2MAC, 2); err != nil {
			return err
		}
		return c.BlockTCPDstPort(9999)
	}
	if mode == Native {
		sw, err := functions.NewSwitch(name, functions.Firewall)
		if err != nil {
			return nil, err
		}
		if err := populate(functions.NewFirewallController(sw)); err != nil {
			return nil, err
		}
		return sw, nil
	}
	sw, d, err := newPersonaSwitch(name)
	if err != nil {
		return nil, err
	}
	comp, err := compiled(functions.Firewall)
	if err != nil {
		return nil, err
	}
	if _, err := d.Load("fw", comp, "bench", 0); err != nil {
		return nil, err
	}
	if err := populate(functions.NewFirewallControllerFunc(d.Installer("bench", "fw"))); err != nil {
		return nil, err
	}
	if err := d.AssignPort("bench", dpmu.Assignment{PhysPort: -1, VDev: "fw", VIngress: 0}); err != nil {
		return nil, err
	}
	for _, port := range []int{1, 2} {
		if err := d.MapVPort("bench", "fw", port, port); err != nil {
			return nil, err
		}
	}
	return sw, nil
}

// composedSwitch builds the middle switch of Example 1 C: the sequential
// composition arp_proxy → firewall → router. Trunk ports 1 (toward h1) and
// 2 (toward h2).
func composedSwitch(name string, mode Mode) (*sim.Switch, error) {
	if mode == Native {
		sw, err := functions.NewSwitch(name, functions.Composed)
		if err != nil {
			return nil, err
		}
		c, err := functions.NewComposedController(sw)
		if err != nil {
			return nil, err
		}
		if err := c.AddProxiedHost(h2IP, h2MAC); err != nil {
			return nil, err
		}
		if err := c.BlockTCPDstPort(9999); err != nil {
			return nil, err
		}
		for _, r := range []struct {
			ip   pkt.IP4
			port int
			mac  pkt.MAC
		}{{h1IP, 1, h1MAC}, {h2IP, 2, h2MAC}} {
			if err := c.AddRoute(r.ip, 32, r.ip, r.port); err != nil {
				return nil, err
			}
			if err := c.AddNextHop(r.ip, r.mac); err != nil {
				return nil, err
			}
			if err := c.AddPortMAC(r.port, s2MAC); err != nil {
				return nil, err
			}
		}
		return sw, nil
	}

	sw, d, err := newPersonaSwitch(name)
	if err != nil {
		return nil, err
	}
	const owner = "bench"
	for _, fn := range []string{functions.ARPProxy, functions.Firewall, functions.Router} {
		comp, err := compiled(fn)
		if err != nil {
			return nil, err
		}
		if _, err := d.Load(fn, comp, owner, 0); err != nil {
			return nil, err
		}
	}
	ac := functions.NewARPControllerFunc(d.Installer(owner, functions.ARPProxy))
	if err := ac.Init(); err != nil {
		return nil, err
	}
	if err := ac.AddProxiedHost(h2IP, h2MAC); err != nil {
		return nil, err
	}
	// All switched traffic — including replies addressed to the router's
	// own MAC — continues to the next function in the chain.
	for _, mac := range []pkt.MAC{h1MAC, h2MAC, s2MAC} {
		if err := ac.AddHost(mac, 10); err != nil {
			return nil, err
		}
	}
	fc := functions.NewFirewallControllerFunc(d.Installer(owner, functions.Firewall))
	if err := fc.BlockTCPDstPort(9999); err != nil {
		return nil, err
	}
	for _, mac := range []pkt.MAC{h1MAC, h2MAC, s2MAC} {
		if err := fc.AddHost(mac, 10); err != nil {
			return nil, err
		}
	}
	rc := functions.NewRouterControllerFunc(d.Installer(owner, functions.Router))
	if err := rc.Init(); err != nil {
		return nil, err
	}
	for _, r := range []struct {
		ip   pkt.IP4
		port int
		mac  pkt.MAC
	}{{h1IP, 1, h1MAC}, {h2IP, 2, h2MAC}} {
		if err := rc.AddRoute(r.ip, 32, r.ip, r.port); err != nil {
			return nil, err
		}
		if err := rc.AddNextHop(r.ip, r.mac); err != nil {
			return nil, err
		}
		if err := rc.AddPortMAC(r.port, s2MAC); err != nil {
			return nil, err
		}
	}
	for _, port := range []int{1, 2} {
		if err := d.AssignPort(owner, dpmu.Assignment{PhysPort: port, VDev: functions.ARPProxy, VIngress: port}); err != nil {
			return nil, err
		}
		if err := d.MapVPort(owner, functions.ARPProxy, port, port); err != nil {
			return nil, err
		}
		if err := d.MapVPort(owner, functions.Router, port, port); err != nil {
			return nil, err
		}
	}
	if err := d.LinkVPorts(owner, functions.ARPProxy, 10, functions.Firewall, 1); err != nil {
		return nil, err
	}
	if err := d.LinkVPorts(owner, functions.Firewall, 10, functions.Router, 1); err != nil {
		return nil, err
	}
	return sw, nil
}

// Scenario names for Table 5.
const (
	ScenarioL2       = "l2_sw"
	ScenarioFirewall = "firewall"
	ScenarioEx1B     = "Ex. 1 B"
	ScenarioEx1C     = "Ex. 1 C"
)

// Scenarios lists the Table 5 rows in paper order.
func Scenarios() []string {
	return []string{ScenarioL2, ScenarioFirewall, ScenarioEx1B, ScenarioEx1C}
}

// BuildNet constructs the topology for a Table 5 scenario: h1 and h2 at the
// edges, with one or three switches between them.
func BuildNet(scenario string, mode Mode) (*netsim.Network, error) {
	n := netsim.New()
	n.AddHost("h1", h1MAC, h1IP)
	n.AddHost("h2", h2MAC, h2IP)
	hosts := []hostEntry{{h1MAC, 1}, {h2MAC, 2}}
	switch scenario {
	case ScenarioL2:
		sw, err := l2Switch("s1", mode, hosts)
		if err != nil {
			return nil, err
		}
		n.AddSwitch("s1", sw)
		if err := connectEdge(n, "s1", "s1"); err != nil {
			return nil, err
		}
	case ScenarioFirewall:
		sw, err := firewallSwitch("s1", mode)
		if err != nil {
			return nil, err
		}
		n.AddSwitch("s1", sw)
		if err := connectEdge(n, "s1", "s1"); err != nil {
			return nil, err
		}
	case ScenarioEx1B, ScenarioEx1C:
		// h1 - s1(l2) - s2 - s3(l2) - h2; s2 is a firewall (B) or the
		// composed chain (C).
		// Edge switches also forward the middle router's MAC toward it, so
		// replies addressed to the router (Ex. 1 C) cross the trunk.
		s1, err := l2Switch("s1", mode, []hostEntry{{h1MAC, 1}, {h2MAC, 2}, {s2MAC, 2}})
		if err != nil {
			return nil, err
		}
		s3, err := l2Switch("s3", mode, []hostEntry{{h1MAC, 1}, {h2MAC, 2}, {s2MAC, 1}})
		if err != nil {
			return nil, err
		}
		var s2 *sim.Switch
		if scenario == ScenarioEx1B {
			s2, err = firewallSwitch("s2", mode)
		} else {
			s2, err = composedSwitch("s2", mode)
		}
		if err != nil {
			return nil, err
		}
		n.AddSwitch("s1", s1)
		n.AddSwitch("s2", s2)
		n.AddSwitch("s3", s3)
		if err := n.Connect("s1", 1, "h1"); err != nil {
			return nil, err
		}
		if err := n.Connect("s3", 2, "h2"); err != nil {
			return nil, err
		}
		if err := n.ConnectSwitches("s1", 2, "s2", 1); err != nil {
			return nil, err
		}
		if err := n.ConnectSwitches("s2", 2, "s3", 1); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("bench: unknown scenario %q", scenario)
	}
	return n, nil
}

func connectEdge(n *netsim.Network, s1, s2 string) error {
	if err := n.Connect(s1, 1, "h1"); err != nil {
		return err
	}
	return n.Connect(s2, 2, "h2")
}
