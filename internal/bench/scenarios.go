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

// compileKey names one compilation: a function for a persona configuration.
type compileKey struct {
	fn  string
	cfg persona.Config
}

// compileCache avoids recompiling functions for every scenario.
var compileCache = map[compileKey]*hp4c.Compiled{}

func compiled(fn string, cfg persona.Config) (*hp4c.Compiled, error) {
	key := compileKey{fn, cfg}
	if c, ok := compileCache[key]; ok {
		return c, nil
	}
	prog, err := functions.Load(fn)
	if err != nil {
		return nil, err
	}
	c, err := hp4c.Compile(prog, cfg)
	if err != nil {
		return nil, err
	}
	compileCache[key] = c
	return c, nil
}

// newDPMU builds a switch named name running the persona for cfg and
// returns its DPMU (the switch is d.SW) and the persona.
func newDPMU(name string, cfg persona.Config) (*dpmu.DPMU, *persona.Persona, error) {
	p, err := persona.Generate(cfg)
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
	return d, p, nil
}

// owner owns every virtual device a scenario installs.
const owner = "bench"

// vdev is one function a scenario configures: its population, written once
// against an installer, and — when emulated — the virtual device's name,
// the assignments that steer physical ports to it (VDev is filled in), and
// the virtual ports it maps one to one onto physical ports.
type vdev struct {
	name     string
	fn       string
	populate func(functions.Installer) error
	assigns  []dpmu.Assignment
	ports    []int
}

// anyPort assigns every physical port to a vdev at virtual ingress port vin.
func anyPort(vin int) []dpmu.Assignment {
	return []dpmu.Assignment{{PhysPort: -1, VIngress: vin}}
}

// install loads v on d and populates it through its installer, then
// assigns its ports and maps its virtual ports.
func install(d *dpmu.DPMU, v vdev) error {
	comp, err := compiled(v.fn, d.Config())
	if err != nil {
		return err
	}
	if _, err := d.Load(v.name, comp, owner, 0); err != nil {
		return err
	}
	if err := v.populate(d.Installer(owner, v.name)); err != nil {
		return err
	}
	for _, a := range v.assigns {
		a.VDev = v.name
		if err := d.AssignPort(owner, a); err != nil {
			return err
		}
	}
	for _, port := range v.ports {
		if err := d.MapVPort(owner, v.name, port, port); err != nil {
			return err
		}
	}
	return nil
}

// deploy builds switch name running v: natively, populated through
// functions.Native, or as the one virtual device on a reference persona.
func deploy(name string, mode Mode, v vdev) (*sim.Switch, error) {
	if mode == Native {
		sw, err := functions.NewSwitch(name, v.fn)
		if err != nil {
			return nil, err
		}
		if err := v.populate(functions.Native(sw)); err != nil {
			return nil, err
		}
		return sw, nil
	}
	d, _, err := newDPMU(name, persona.Reference)
	if err != nil {
		return nil, err
	}
	if err := install(d, v); err != nil {
		return nil, err
	}
	return d.SW, nil
}

// hostEntry binds a MAC to an egress port of an L2 switch.
type hostEntry struct {
	mac  pkt.MAC
	port int
}

// addHosts populates an L2 switch with hosts.
func addHosts(hosts []hostEntry) func(functions.Installer) error {
	return func(add functions.Installer) error {
		c := functions.NewL2ControllerFunc(add)
		for _, h := range hosts {
			if err := c.AddHost(h.mac, h.port); err != nil {
				return err
			}
		}
		return nil
	}
}

// l2Switch builds a (native or emulated) L2 switch with the given
// forwarding entries.
func l2Switch(name string, mode Mode, hosts []hostEntry) (*sim.Switch, error) {
	// Ports are mapped in host order (deduplicated) so repeated builds
	// install virtual-network rows deterministically and dump identically.
	seen := map[int]bool{}
	var ports []int
	for _, h := range hosts {
		if !seen[h.port] {
			seen[h.port] = true
			ports = append(ports, h.port)
		}
	}
	return deploy(name, mode, vdev{name: "l2", fn: functions.L2Switch,
		populate: addHosts(hosts), assigns: anyPort(0), ports: ports})
}

// firewallSwitch builds a (native or emulated) firewall blocking TCP port
// 9999 with hosts h1@1, h2@2.
func firewallSwitch(name string, mode Mode) (*sim.Switch, error) {
	populate := func(add functions.Installer) error {
		c := functions.NewFirewallControllerFunc(add)
		if err := c.AddHost(h1MAC, 1); err != nil {
			return err
		}
		if err := c.AddHost(h2MAC, 2); err != nil {
			return err
		}
		return c.BlockTCPDstPort(9999)
	}
	return deploy(name, mode, vdev{name: "fw", fn: functions.Firewall,
		populate: populate, assigns: anyPort(0), ports: []int{1, 2}})
}

// composedSwitch builds the middle switch of Example 1 C: the sequential
// composition arp_proxy → firewall → router. Trunk ports 1 (toward h1) and
// 2 (toward h2). Natively it is one program, composed.p4, which has no L2
// tables; emulated it is three virtual devices linked in a chain.
func composedSwitch(name string, mode Mode) (*sim.Switch, error) {
	if mode == Native {
		sw, err := functions.NewSwitch(name, functions.Composed)
		if err != nil {
			return nil, err
		}
		c := functions.NewComposedControllerFunc(functions.Native(sw))
		if err := c.Init(); err != nil {
			return nil, err
		}
		if err := c.AddProxiedHost(h2IP, h2MAC); err != nil {
			return nil, err
		}
		if err := c.BlockTCPDstPort(9999); err != nil {
			return nil, err
		}
		if err := addRoutes(c.RouterController); err != nil {
			return nil, err
		}
		return sw, nil
	}

	d, _, err := newDPMU(name, persona.Reference)
	if err != nil {
		return nil, err
	}
	// All switched traffic — including replies addressed to the router's
	// own MAC — continues to the next function in the chain.
	chained := []hostEntry{{h1MAC, 10}, {h2MAC, 10}, {s2MAC, 10}}
	arp := func(add functions.Installer) error {
		c := functions.NewARPControllerFunc(add)
		if err := c.Init(); err != nil {
			return err
		}
		if err := c.AddProxiedHost(h2IP, h2MAC); err != nil {
			return err
		}
		for _, h := range chained {
			if err := c.AddHost(h.mac, h.port); err != nil {
				return err
			}
		}
		return nil
	}
	fw := func(add functions.Installer) error {
		c := functions.NewFirewallControllerFunc(add)
		if err := c.BlockTCPDstPort(9999); err != nil {
			return err
		}
		for _, h := range chained {
			if err := c.AddHost(h.mac, h.port); err != nil {
				return err
			}
		}
		return nil
	}
	for _, v := range []vdev{
		{name: functions.ARPProxy, fn: functions.ARPProxy, populate: arp,
			assigns: []dpmu.Assignment{{PhysPort: 1, VIngress: 1}, {PhysPort: 2, VIngress: 2}},
			ports:   []int{1, 2}},
		{name: functions.Firewall, fn: functions.Firewall, populate: fw},
		{name: functions.Router, fn: functions.Router, populate: router, ports: []int{1, 2}},
	} {
		if err := install(d, v); err != nil {
			return nil, err
		}
	}
	if err := d.LinkVPorts(owner, functions.ARPProxy, 10, functions.Firewall, 1); err != nil {
		return nil, err
	}
	if err := d.LinkVPorts(owner, functions.Firewall, 10, functions.Router, 1); err != nil {
		return nil, err
	}
	return d.SW, nil
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
