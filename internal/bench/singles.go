package bench

import (
	"fmt"

	"hyper4/internal/functions"
	"hyper4/internal/pkt"
	"hyper4/internal/sim"
)

// arpSwitch builds a (native or emulated) ARP proxy answering for h2,
// switching h1/h2 at ports 1/2.
func arpSwitch(name string, mode Mode) (*sim.Switch, error) {
	populate := func(add functions.Installer) error {
		c := functions.NewARPControllerFunc(add)
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
	return deploy(name, mode, vdev{name: "arp", fn: functions.ARPProxy,
		populate: populate, assigns: anyPort(1), ports: []int{1, 2}})
}

// addRoutes routes h1 and h2 out ports 1 and 2 with s2's source MAC.
func addRoutes(c *functions.RouterController) error {
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

// router populates a router with its TTL checks and addRoutes' routes.
func router(add functions.Installer) error {
	c := functions.NewRouterControllerFunc(add)
	if err := c.Init(); err != nil {
		return err
	}
	return addRoutes(c)
}

// routerSwitch builds a (native or emulated) router with routes for h1/h2.
func routerSwitch(name string, mode Mode) (*sim.Switch, error) {
	return deploy(name, mode, vdev{name: "r", fn: functions.Router,
		populate: router, assigns: anyPort(1), ports: []int{1, 2}})
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
