package functions

import (
	"fmt"

	"hyper4/internal/bitfield"
	"hyper4/internal/pkt"
	"hyper4/internal/sim"
)

// ARPController populates the ARP proxy's tables.
type ARPController struct {
	add Installer
}

// NewARPControllerFunc returns a controller that writes through add. It
// installs nothing; Init marks ARP requests.
func NewARPControllerFunc(add Installer) *ARPController {
	return &ARPController{add: add}
}

// Init installs the request-classification entry.
func (c *ARPController) Init() error {
	err := c.add("check_arp", "mark_request",
		[]sim.MatchParam{sim.Valid(true), sim.ExactUint(16, pkt.ARPRequest)}, nil, 0)
	if err != nil {
		return fmt.Errorf("arp check_arp: %w", err)
	}
	return nil
}

// AddProxiedHost answers ARP requests for ip with mac.
func (c *ARPController) AddProxiedHost(ip pkt.IP4, mac pkt.MAC) error {
	err := c.add("arp_resp", "proxy_reply",
		[]sim.MatchParam{sim.Exact(bitfield.FromBytes(32, ip[:]))},
		[]bitfield.Value{bitfield.FromBytes(48, mac[:])}, 0)
	if err != nil {
		return fmt.Errorf("arp arp_resp: %w", err)
	}
	return nil
}

// AddHost installs L2 forwarding for non-ARP traffic.
func (c *ARPController) AddHost(mac pkt.MAC, port int) error {
	macVal := bitfield.FromBytes(48, mac[:])
	if err := c.add("smac", "_nop", []sim.MatchParam{sim.Exact(macVal)}, nil, 0); err != nil {
		return fmt.Errorf("arp smac: %w", err)
	}
	if err := c.add("dmac", "forward", []sim.MatchParam{sim.Exact(macVal)}, sim.Args(9, uint64(port)), 0); err != nil {
		return fmt.Errorf("arp dmac: %w", err)
	}
	return nil
}
