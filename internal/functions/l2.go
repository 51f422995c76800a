package functions

import (
	"fmt"

	"hyper4/internal/bitfield"
	"hyper4/internal/pkt"
	"hyper4/internal/sim"
)

// L2Controller populates the L2 switch's tables.
type L2Controller struct {
	add Installer
}

// NewL2ControllerFunc returns a controller that writes through add.
func NewL2ControllerFunc(add Installer) *L2Controller {
	return &L2Controller{add: add}
}

// AddHost installs the smac and dmac entries for one station.
func (c *L2Controller) AddHost(mac pkt.MAC, port int) error {
	macVal := bitfield.FromBytes(48, mac[:])
	if err := c.add("smac", "_nop", []sim.MatchParam{sim.Exact(macVal)}, nil, 0); err != nil {
		return fmt.Errorf("l2 smac: %w", err)
	}
	if err := c.add("dmac", "forward", []sim.MatchParam{sim.Exact(macVal)}, sim.Args(9, uint64(port)), 0); err != nil {
		return fmt.Errorf("l2 dmac: %w", err)
	}
	return nil
}

// SetUnknownUnicast sets the default dmac behavior: port < 0 drops, else
// forwards unknown destinations to the given port.
func (c *L2Controller) SetUnknownUnicast(sw *sim.Switch, port int) error {
	if port < 0 {
		return sw.TableSetDefault("dmac", "_drop", nil)
	}
	return sw.TableSetDefault("dmac", "forward", sim.Args(9, uint64(port)))
}
