package dpmu

import (
	"fmt"
	"slices"
	"sort"

	"hyper4/internal/bitfield"
	"hyper4/internal/core/fuse"
	"hyper4/internal/core/persona"
	"hyper4/internal/core/persona/rows"
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
	if _, err := d.tx.TableAdd(persona.TblAssign, persona.ActSetProgram,
		[]sim.MatchParam{sim.Ternary(val, mask)}, args, prio); err != nil {
		return fmt.Errorf("dpmu: assign: %w", err)
	}
	return nil
}

// PIDForPort is the program ID of the device t_assign's rows steer a
// physical ingress port to, read in the switch's match order: the first
// matching row in precedence order owns the port, even when its device has
// since been unloaded (frames on the port then drop). -1 means no row
// covers the port, or an undecodable row might. The packet I/O runtime uses
// this as its shard key so every frame of one virtual device lands on one
// worker; it reads the table publishPorts last stored and takes no lock.
func (d *DPMU) PIDForPort(port int) int { return d.portOwner(port).pid }

// portOwner is t_assign's owner of one physical port: the device's PID
// (-1: none or unknown) and the virtual ingress the port enters it at.
type portOwner struct {
	pid int
	vin uint64
}

func (d *DPMU) portOwner(port int) portOwner {
	if pt := d.ports.Load(); pt != nil && port >= 0 && port < len(*pt) {
		return (*pt)[port]
	}
	return portOwner{pid: -1}
}

// publishPorts reads t_assign's rows back from the switch and stores each
// port's owner as rows.PortOwner decides it, the same decision the fused
// port dispatch makes. Callers hold d.mu and no switch transaction.
func (d *DPMU) publishPorts() {
	as, _ := rows.LoadAssign(d.SW) // the persona always declares t_assign
	pt := make([]portOwner, fuse.MaxPorts)
	for port := range pt {
		pt[port].pid = -1
		if i, ok := rows.PortOwner(as, port); ok && i >= 0 {
			pt[port] = portOwner{pid: as[i].PID, vin: as[i].VIngress}
		}
	}
	d.ports.Store(&pt)
}

// ClearAssignments removes every port-to-device assignment (used when
// switching snapshots). Every t_assign row is one: the persona installs
// none of its own there.
func (t *Tx) ClearAssignments() {
	_ = t.d.tx.TableClear(persona.TblAssign) // the persona always declares t_assign
}

// unmapVPort removes the t_virtnet routing row (a physical or virtual
// forward) of a virtual egress port, if it has one. MapVPort and LinkVPorts
// have replace semantics: re-mapping a port re-routes it rather than hitting
// the duplicate-key rejection in TableAdd. A drop or multicast row on the
// port stays, and the add that follows is rejected.
func (d *DPMU) unmapVPort(v *VDev, vport int) {
	// Every route edit starts here, so this is where v.links' old value is
	// kept, before the delete below edits a copy of it and the add that
	// follows appends to that copy.
	keepVal(d.tx, &v.links)
	v.links = slices.Clone(v.links)
	e, _ := d.tx.Entry(persona.TblVirtnet, linkMatch(v, vport)) // t_virtnet is all exact
	if e == nil || (e.Action != persona.ActPhysFwd && e.Action != persona.ActVirtFwd) {
		return
	}
	_ = d.tx.TableDelete(persona.TblVirtnet, e.Handle)
	v.links = slices.DeleteFunc(v.links, func(r pentry) bool {
		return r.Table == persona.TblVirtnet && r.Handle == e.Handle
	})
}

// MapVPort maps a virtual egress port of a device to a physical port.
// Re-mapping an already-mapped port replaces the previous route.
func (t *Tx) MapVPort(owner, vdev string, vport, physPort int) error {
	d := t.d
	v, err := d.auth(owner, vdev)
	if err != nil {
		return err
	}
	d.unmapVPort(v, vport)
	if err := d.addRow(&v.links, persona.TblVirtnet, persona.ActPhysFwd, linkMatch(v, vport),
		[]bitfield.Value{bitfield.FromUint(9, uint64(physPort))}, 0); err != nil {
		return err
	}
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
	keep(d.tx, d.snapshots, name)
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
	keepVal(d.tx, &d.active)
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
