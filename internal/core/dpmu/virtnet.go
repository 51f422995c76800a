package dpmu

import (
	"fmt"
	"sort"

	"hyper4/internal/bitfield"
	"hyper4/internal/core/persona"
	"hyper4/internal/functions"
	"hyper4/internal/sim"
)

// AssignPort steers traffic arriving on a physical ingress port to a
// virtual device, presenting it as the device's virtual ingress port. Pass
// physPort = -1 to assign every port (slicing assigns disjoint port sets to
// different devices, §3.3).
func (t *Tx) AssignPort(owner string, a Assignment) error {
	d := t.d
	v, err := d.auth(owner, a.VDev)
	if err != nil {
		return err
	}
	val := bitfield.New(9)
	mask := bitfield.New(9)
	prio := 10
	if a.PhysPort >= 0 {
		val = bitfield.FromUint(9, uint64(a.PhysPort))
		mask = bitfield.Ones(9)
		prio = 1
	}
	args := []bitfield.Value{
		bitfield.FromUint(persona.ProgramWidth, uint64(v.PID)),
		bitfield.FromUint(persona.VPortWidth, uint64(a.VIngress)),
	}
	h, err := d.tx.TableAdd(persona.TblAssign, persona.ActSetProgram,
		[]sim.MatchParam{sim.Ternary(val, mask)}, args, prio)
	if err != nil {
		return fmt.Errorf("dpmu: assign: %w", err)
	}
	d.assignPEs = append(d.assignPEs, pentry{Table: persona.TblAssign, Handle: h})
	d.assigns = append(d.assigns, a)
	return nil
}

// PIDForPort resolves the program ID traffic on a physical ingress port is
// steered to, mirroring t_assign's priority order: a port-specific
// assignment beats the "any port" wildcard; within a tier the newest
// assignment wins, matching replace-by-reinstall usage. -1 means no
// assignment covers the port. The packet I/O runtime uses this as its shard
// key so every frame of one virtual device lands on one worker; it reads
// the table publishPorts last stored and takes no lock.
func (d *DPMU) PIDForPort(port int) int {
	pt := d.ports.Load()
	if pt == nil {
		return -1
	}
	if pid, ok := pt.byPort[port]; ok {
		return pid
	}
	return pt.wildcard
}

// portPIDs is PIDForPort's answer for every port, immutable once published.
type portPIDs struct {
	byPort   map[int]int
	wildcard int
}

// publishPorts recomputes the port→PID table from the assignments and the
// loaded devices (an assignment to an unloaded device covers nothing) and
// swaps it in. Callers hold d.mu.
func (d *DPMU) publishPorts() {
	pt := &portPIDs{byPort: map[int]int{}, wildcard: -1}
	for i := len(d.assigns) - 1; i >= 0; i-- {
		a := d.assigns[i]
		v, ok := d.vdevs[a.VDev]
		if !ok {
			continue
		}
		if a.PhysPort == -1 {
			if pt.wildcard == -1 {
				pt.wildcard = v.PID
			}
		} else if _, seen := pt.byPort[a.PhysPort]; !seen {
			pt.byPort[a.PhysPort] = v.PID
		}
	}
	d.ports.Store(pt)
}

// ClearAssignments removes every port-to-device assignment (used when
// switching snapshots).
func (t *Tx) ClearAssignments() {
	d := t.d
	d.removeRows(d.assignPEs)
	d.assignPEs = nil
	d.assigns = nil
}

// unmapVPort removes any existing virtnet routing row for a virtual egress
// port. MapVPort and LinkVPorts have replace semantics: re-mapping a port
// re-routes it rather than hitting the duplicate-key rejection in TableAdd.
func (d *DPMU) unmapVPort(v *VDev, vport int) {
	row, ok := v.vnet[vport]
	if !ok {
		return
	}
	delete(v.vnet, vport)
	_ = d.tx.TableDelete(row.Table, row.Handle)
	for i := range v.links {
		if v.links[i] == row {
			v.links = append(v.links[:i], v.links[i+1:]...)
			break
		}
	}
}

// MapVPort maps a virtual egress port of a device to a physical port.
// Re-mapping an already-mapped port replaces the previous route.
func (t *Tx) MapVPort(owner, vdev string, vport, physPort int) error {
	d := t.d
	v, err := d.auth(owner, vdev)
	if err != nil {
		return err
	}
	params := []sim.MatchParam{
		sim.ExactUint(persona.ProgramWidth, uint64(v.PID)),
		sim.ExactUint(persona.VPortWidth, uint64(vport)),
	}
	d.unmapVPort(v, vport)
	if err := d.addRow(&v.links, persona.TblVirtnet, persona.ActPhysFwd, params,
		[]bitfield.Value{bitfield.FromUint(9, uint64(physPort))}, 0); err != nil {
		return err
	}
	v.vnet[vport] = v.links[len(v.links)-1]
	// The port now routes to a physical port; it no longer feeds a device.
	d.dropLinkSpec(vdev, vport)
	return nil
}

// LinkVPorts connects a virtual egress port of one device to the virtual
// ingress of another over a virtual link (§4.6): packets sent to fromPort by
// fromDev recirculate and re-enter the pipeline as toDev's traffic on its
// virtual port toPort. The link is one-directional; call twice for a duplex
// link.
func (t *Tx) LinkVPorts(owner, fromDev string, fromPort int, toDev string, toPort int) error {
	d := t.d
	from, err := d.auth(owner, fromDev)
	if err != nil {
		return err
	}
	to, ok := d.vdevs[toDev]
	if !ok {
		return fmt.Errorf("dpmu: no virtual device %q: %w", toDev, ErrNotFound)
	}
	d.unmapVPort(from, fromPort)
	if err := d.addRow(&from.links, persona.TblVirtnet, persona.ActVirtFwd,
		linkMatch(from, fromPort), linkArgs(to, toPort), 0); err != nil {
		return err
	}
	from.vnet[fromPort] = from.links[len(from.links)-1]
	d.setLinkSpec(linkSpec{FromDev: fromDev, FromPort: fromPort, ToDev: toDev, ToPort: toPort})
	return nil
}

// linkMatch builds the t_virtnet key for a device's virtual egress port.
func linkMatch(from *VDev, fromPort int) []sim.MatchParam {
	return []sim.MatchParam{
		sim.ExactUint(persona.ProgramWidth, uint64(from.PID)),
		sim.ExactUint(persona.VPortWidth, uint64(fromPort)),
	}
}

// linkArgs builds the a_virt_fwd args targeting a device's virtual ingress.
func linkArgs(to *VDev, toPort int) []bitfield.Value {
	return []bitfield.Value{
		bitfield.FromUint(persona.ProgramWidth, uint64(to.PID)),
		bitfield.FromUint(persona.VPortWidth, uint64(toPort)),
		bitfield.FromUint(9, 0), // harmless egress port on the way to recirculation
	}
}

// --- snapshots (§3.2) ---

// SaveSnapshot stores a named network configuration: the set of
// port-to-device assignments that should be active together. All referenced
// devices stay loaded (HyPer4 logically stores every program); activating a
// snapshot only changes the assignment entries.
func (t *Tx) SaveSnapshot(name string, assignments []Assignment) error {
	d := t.d
	for _, a := range assignments {
		if _, ok := d.vdevs[a.VDev]; !ok {
			return fmt.Errorf("dpmu: snapshot %q references unloaded device %q: %w", name, a.VDev, ErrNotFound)
		}
	}
	d.snapshots[name] = append([]Assignment(nil), assignments...)
	return nil
}

// ActivateSnapshot makes a stored configuration live. Per §3.2, the
// transition is a small, constant set of assignment-table updates; table
// state of every virtual device is untouched, so the swap does not disturb
// other devices' entries.
func (t *Tx) ActivateSnapshot(name string) error {
	d := t.d
	snap, ok := d.snapshots[name]
	if !ok {
		return fmt.Errorf("dpmu: no snapshot %q: %w", name, ErrNotFound)
	}
	t.ClearAssignments()
	for _, a := range snap {
		v := d.vdevs[a.VDev]
		if v == nil {
			return fmt.Errorf("dpmu: snapshot %q references unloaded device %q: %w", name, a.VDev, ErrNotFound)
		}
		if err := t.AssignPort(v.Owner, a); err != nil {
			return err
		}
	}
	d.active = name
	return nil
}

// ActiveSnapshot returns the name of the active snapshot ("" if none).
func (d *DPMU) ActiveSnapshot() string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.active
}

// Snapshots lists stored snapshot names, sorted.
func (d *DPMU) Snapshots() []string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]string, 0, len(d.snapshots))
	for name := range d.snapshots {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Installer routes a functions package controller's table population
// through the DPMU as virtual operations (Figure 2(c)).
func (d *DPMU) Installer(owner, vdev string) functions.Installer {
	return func(table, action string, params []sim.MatchParam, args []bitfield.Value, prio int) error {
		_, err := d.TableAdd(owner, vdev, EntrySpec{
			Table: table, Action: action, Params: params, Args: args, Priority: prio,
		})
		return err
	}
}
