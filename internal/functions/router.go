package functions

import (
	"fmt"

	"hyper4/internal/bitfield"
	"hyper4/internal/pkt"
	"hyper4/internal/sim"
)

// RouterController populates the router's tables.
type RouterController struct {
	add Installer
}

// NewRouterControllerFunc returns a controller that writes through add. It
// installs nothing; Init sets the TTL-expiry drops.
func NewRouterControllerFunc(add Installer) *RouterController {
	return &RouterController{add: add}
}

// Init installs the TTL-expiry entries.
func (c *RouterController) Init() error {
	for _, ttl := range []uint64{0, 1} {
		if err := c.add("validate_ttl", "_drop", []sim.MatchParam{sim.ExactUint(8, ttl)}, nil, 0); err != nil {
			return fmt.Errorf("router validate_ttl: %w", err)
		}
	}
	return nil
}

// AddRoute installs a prefix route to a next hop reachable out a port.
func (c *RouterController) AddRoute(prefix pkt.IP4, plen int, nhop pkt.IP4, port int) error {
	err := c.add("ipv4_lpm", "set_nhop",
		[]sim.MatchParam{sim.LPM(bitfield.FromBytes(32, prefix[:]), plen)},
		[]bitfield.Value{bitfield.FromBytes(32, nhop[:]), bitfield.FromUint(9, uint64(port))}, 0)
	if err != nil {
		return fmt.Errorf("router ipv4_lpm: %w", err)
	}
	return nil
}

// AddNextHop binds a next-hop IP to its MAC address.
func (c *RouterController) AddNextHop(nhop pkt.IP4, mac pkt.MAC) error {
	err := c.add("forward", "set_dmac",
		[]sim.MatchParam{sim.Exact(bitfield.FromBytes(32, nhop[:]))},
		[]bitfield.Value{bitfield.FromBytes(48, mac[:])}, 0)
	if err != nil {
		return fmt.Errorf("router forward: %w", err)
	}
	return nil
}

// AddPortMAC sets the source MAC used when transmitting out a port.
func (c *RouterController) AddPortMAC(port int, mac pkt.MAC) error {
	err := c.add("send_frame", "rewrite_mac",
		[]sim.MatchParam{sim.ExactUint(9, uint64(port))},
		[]bitfield.Value{bitfield.FromBytes(48, mac[:])}, 0)
	if err != nil {
		return fmt.Errorf("router send_frame: %w", err)
	}
	return nil
}
