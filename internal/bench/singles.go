package bench

import (
	"fmt"

	"hyper4/internal/core/dpmu"
	"hyper4/internal/functions"
	"hyper4/internal/pkt"
	"hyper4/internal/sim"
)

// arpSwitch builds a (native or emulated) ARP proxy answering for h2,
// switching h1/h2 at ports 1/2.
func arpSwitch(name string, mode Mode) (*sim.Switch, error) {
	populate := func(c *functions.ARPController) error {
		if err := c.Init(); err != nil {
			return err
		}
		if err := c.AddProxiedHost(h2IP, h2MAC); err != nil {
			return err
		}
		if err := c.AddHost(h1MAC, 1); err != nil {
			return err
		}
		return c.AddHost(h2MAC, 2)
	}
	if mode == Native {
		sw, err := functions.NewSwitch(name, functions.ARPProxy)
		if err != nil {
			return nil, err
		}
		nc, err := functions.NewARPController(sw)
		if err != nil {
			return nil, err
		}
		if err := nc.AddProxiedHost(h2IP, h2MAC); err != nil {
			return nil, err
		}
		if err := nc.AddHost(h1MAC, 1); err != nil {
			return nil, err
		}
		if err := nc.AddHost(h2MAC, 2); err != nil {
			return nil, err
		}
		return sw, nil
	}
	sw, d, err := newPersonaSwitch(name)
	if err != nil {
		return nil, err
	}
	comp, err := compiled(functions.ARPProxy)
	if err != nil {
		return nil, err
	}
	if _, err := d.Load("arp", comp, "bench", 0); err != nil {
		return nil, err
	}
	if err := populate(functions.NewARPControllerFunc(d.Installer("bench", "arp"))); err != nil {
		return nil, err
	}
	if err := d.AssignPort("bench", dpmu.Assignment{PhysPort: -1, VDev: "arp", VIngress: 1}); err != nil {
		return nil, err
	}
	for _, port := range []int{1, 2} {
		if err := d.MapVPort("bench", "arp", port, port); err != nil {
			return nil, err
		}
	}
	return sw, nil
}

// routerSwitch builds a (native or emulated) router with routes for h1/h2.
func routerSwitch(name string, mode Mode) (*sim.Switch, error) {
	populate := func(c *functions.RouterController) error {
		if err := c.Init(); err != nil {
			return err
		}
		for _, r := range []struct {
			ip   pkt.IP4
			port int
			mac  pkt.MAC
		}{{h1IP, 1, h1MAC}, {h2IP, 2, h2MAC}} {
			if err := c.AddRoute(r.ip, 32, r.ip, r.port); err != nil {
				return err
			}
			if err := c.AddNextHop(r.ip, r.mac); err != nil {
				return err
			}
			if err := c.AddPortMAC(r.port, s2MAC); err != nil {
				return err
			}
		}
		return nil
	}
	if mode == Native {
		sw, err := functions.NewSwitch(name, functions.Router)
		if err != nil {
			return nil, err
		}
		c, err := functions.NewRouterController(sw)
		if err != nil {
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
	comp, err := compiled(functions.Router)
	if err != nil {
		return nil, err
	}
	if _, err := d.Load("r", comp, "bench", 0); err != nil {
		return nil, err
	}
	if err := populate(functions.NewRouterControllerFunc(d.Installer("bench", "r"))); err != nil {
		return nil, err
	}
	if err := d.AssignPort("bench", dpmu.Assignment{PhysPort: -1, VDev: "r", VIngress: 1}); err != nil {
		return nil, err
	}
	for _, port := range []int{1, 2} {
		if err := d.MapVPort("bench", "r", port, port); err != nil {
			return nil, err
		}
	}
	return sw, nil
}

// FunctionSwitch builds a configured switch for one of the paper's four
// functions in either mode.
func FunctionSwitch(fn string, mode Mode) (*sim.Switch, error) {
	switch fn {
	case functions.L2Switch:
		return l2Switch("s", mode, []hostEntry{{h1MAC, 1}, {h2MAC, 2}})
	case functions.Firewall:
		return firewallSwitch("s", mode)
	case functions.ARPProxy:
		return arpSwitch("s", mode)
	case functions.Router:
		return routerSwitch("s", mode)
	}
	return nil, fmt.Errorf("bench: unknown function %q", fn)
}

// WorkloadPackets returns the packets driving Table 1 and Table 4 for one
// function: the traffic whose most complex path the paper measures.
func WorkloadPackets(fn string) [][]byte {
	tcp := pkt.Pad(pkt.Serialize(
		&pkt.Ethernet{Dst: h2MAC, Src: h1MAC, EtherType: pkt.EtherTypeIPv4},
		&pkt.IPv4{TTL: 64, Protocol: pkt.IPProtoTCP, Src: h1IP, Dst: h2IP},
		&pkt.TCP{SrcPort: 4000, DstPort: 5201},
		pkt.Payload("data"),
	))
	udp := pkt.Pad(pkt.Serialize(
		&pkt.Ethernet{Dst: h2MAC, Src: h1MAC, EtherType: pkt.EtherTypeIPv4},
		&pkt.IPv4{TTL: 64, Protocol: pkt.IPProtoUDP, Src: h1IP, Dst: h2IP},
		&pkt.UDP{SrcPort: 4000, DstPort: 53},
	))
	arpProxied := pkt.Pad(pkt.Serialize(
		&pkt.Ethernet{Dst: pkt.Broadcast, Src: h1MAC, EtherType: pkt.EtherTypeARP},
		&pkt.ARP{Op: pkt.ARPRequest, SenderHW: h1MAC, SenderIP: h1IP, TargetIP: h2IP},
	))
	arpOther := pkt.Pad(pkt.Serialize(
		&pkt.Ethernet{Dst: h2MAC, Src: h1MAC, EtherType: pkt.EtherTypeARP},
		&pkt.ARP{Op: pkt.ARPRequest, SenderHW: h1MAC, SenderIP: h1IP, TargetIP: pkt.MustIP4("10.0.0.99")},
	))
	switch fn {
	case functions.L2Switch:
		return [][]byte{tcp}
	case functions.Firewall:
		return [][]byte{tcp, udp}
	case functions.Router:
		return [][]byte{udp, tcp}
	case functions.ARPProxy:
		return [][]byte{arpProxied, arpOther}
	}
	return nil
}
