package functions

import (
	"fmt"

	"hyper4/internal/bitfield"
	"hyper4/internal/pkt"
	"hyper4/internal/sim"
)

// FirewallController populates the firewall's tables.
type FirewallController struct {
	add Installer
}

// NewFirewallControllerFunc returns a controller that writes through add.
func NewFirewallControllerFunc(add Installer) *FirewallController {
	return &FirewallController{add: add}
}

// BlockTCPDstPort drops TCP traffic to a destination port — the rule the
// paper's examples install ("filter traffic with a certain TCP destination
// port", §3.2).
func (c *FirewallController) BlockTCPDstPort(port uint16) error {
	err := c.add("tcp_filter", "_drop",
		[]sim.MatchParam{
			sim.TernaryUint(16, 0, 0),
			sim.TernaryUint(16, uint64(port), 0xffff),
		}, nil, 1)
	if err != nil {
		return fmt.Errorf("firewall tcp_filter: %w", err)
	}
	return nil
}

// BlockUDPDstPort drops UDP traffic to a destination port.
func (c *FirewallController) BlockUDPDstPort(port uint16) error {
	err := c.add("udp_filter", "_drop",
		[]sim.MatchParam{
			sim.TernaryUint(16, 0, 0),
			sim.TernaryUint(16, uint64(port), 0xffff),
		}, nil, 1)
	if err != nil {
		return fmt.Errorf("firewall udp_filter: %w", err)
	}
	return nil
}

// BlockIPPair drops IPv4 traffic from src to dst (full-address match).
func (c *FirewallController) BlockIPPair(src, dst pkt.IP4) error {
	err := c.add("ip_filter", "_drop",
		[]sim.MatchParam{
			sim.Ternary(bitfield.FromBytes(32, src[:]), bitfield.Ones(32)),
			sim.Ternary(bitfield.FromBytes(32, dst[:]), bitfield.Ones(32)),
		}, nil, 1)
	if err != nil {
		return fmt.Errorf("firewall ip_filter: %w", err)
	}
	return nil
}

// AddHost installs L2 forwarding for allowed traffic.
func (c *FirewallController) AddHost(mac pkt.MAC, port int) error {
	err := c.add("dmac", "forward",
		[]sim.MatchParam{sim.Exact(bitfield.FromBytes(48, mac[:]))},
		sim.Args(9, uint64(port)), 0)
	if err != nil {
		return fmt.Errorf("firewall dmac: %w", err)
	}
	return nil
}
