package dpmu

// Quarantine bypass for composed chains (PolicyBypass): when a mid-chain
// device trips its breaker, every virtual link feeding INTO it is rewired to
// the device's unique downstream successor, so the rest of the chain keeps
// forwarding. The rewiring is an overlay: the logical topology recorded in
// linkSpecs is untouched, which is what lets undoBypassLocked restore the
// original links for half-open probing or reset. All functions here are
// called with d.mu held.

import (
	"slices"

	"hyper4/internal/core/persona"
)

// linkSpec records the logical shape of one virtual link (a LinkVPorts
// call): FromDev's virtual egress FromPort feeds ToDev's virtual ingress
// ToPort.
type linkSpec struct {
	FromDev  string `json:"from_dev"`
	FromPort int    `json:"from_port"`
	ToDev    string `json:"to_dev"`
	ToPort   int    `json:"to_port"`
}

// setLinkSpec records a link, replacing any previous link from the same
// (device, port) — mirroring LinkVPorts' replace semantics.
func (d *DPMU) setLinkSpec(s linkSpec) {
	d.dropLinkSpec(s.FromDev, s.FromPort)
	d.linkSpecs = append(d.linkSpecs, s)
}

// editLinkSpecs keeps linkSpecs' old value in the write set and gives the
// edit that follows a copy to change in place.
func (d *DPMU) editLinkSpecs() {
	keepVal(d.tx, &d.linkSpecs)
	d.linkSpecs = slices.Clone(d.linkSpecs)
}

// dropLinkSpec forgets the link from (device, port), if any.
func (d *DPMU) dropLinkSpec(fromDev string, fromPort int) {
	d.editLinkSpecs()
	for i := range d.linkSpecs {
		if d.linkSpecs[i].FromDev == fromDev && d.linkSpecs[i].FromPort == fromPort {
			d.linkSpecs = append(d.linkSpecs[:i], d.linkSpecs[i+1:]...)
			return
		}
	}
}

// dropLinkSpecsFrom forgets every link originating at a device (its rows are
// deleted on unload). Links pointing at the device are kept, matching the
// persona rows, which also survive and dead-end.
func (d *DPMU) dropLinkSpecsFrom(dev string) {
	d.editLinkSpecs()
	out := d.linkSpecs[:0]
	for _, s := range d.linkSpecs {
		if s.FromDev != dev {
			out = append(out, s)
		}
	}
	d.linkSpecs = out
}

// successor returns the device's unique downstream link, or nil when the
// device has none or more than one distinct target (fan-out cannot be
// bypassed unambiguously).
func (d *DPMU) successor(dev string) *linkSpec {
	var succ *linkSpec
	for i := range d.linkSpecs {
		s := &d.linkSpecs[i]
		if s.FromDev != dev {
			continue
		}
		if succ != nil && (succ.ToDev != s.ToDev || succ.ToPort != s.ToPort) {
			return nil
		}
		succ = s
	}
	return succ
}

// enforceBypassLocked rewires every link into the named device around it,
// to its unique successor. Reports whether the bypass is in place; false
// (no unique successor, successor unloaded, or a rewire failure) leaves
// containment drop-only.
func (d *DPMU) enforceBypassLocked(name string) bool {
	succ := d.successor(name)
	if succ == nil {
		return false
	}
	to, ok := d.vdevs[succ.ToDev]
	if !ok {
		return false
	}
	done := true
	for _, s := range d.linkSpecs {
		if s.ToDev != name {
			continue
		}
		if err := d.rewireLinkRow(s.FromDev, s.FromPort, to, succ.ToPort); err != nil {
			done = false
		}
	}
	return done
}

// undoBypassLocked restores every link into the named device to its logical
// target.
func (d *DPMU) undoBypassLocked(name string) {
	v, ok := d.vdevs[name]
	if !ok {
		return
	}
	for _, s := range d.linkSpecs {
		if s.ToDev != name {
			continue
		}
		// Best effort: the upstream device may have been unloaded while the
		// bypass was in place.
		_ = d.rewireLinkRow(s.FromDev, s.FromPort, v, s.ToPort)
	}
}

// rewireLinkRow replaces fromDev's virtual-forward row at fromPort with one
// targeting the given device and virtual port. linkSpecs are deliberately
// not updated: bypass overlays the physical rows only.
func (d *DPMU) rewireLinkRow(fromDev string, fromPort int, to *VDev, toPort int) error {
	from, ok := d.vdevs[fromDev]
	if !ok {
		return ErrNotFound
	}
	d.unmapVPort(from, fromPort)
	return d.addRow(&from.links, persona.TblVirtnet, persona.ActVirtFwd,
		linkMatch(from, fromPort), linkArgs(to, toPort), 0)
}
