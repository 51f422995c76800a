package dpmu

import (
	"hyper4/internal/bitfield"
	"hyper4/internal/core/hp4c"
	"hyper4/internal/sim"
)

// Tx is an open DPMU write (Update): d.mu is held and one switch
// transaction is open, and every persona row the Tx's methods write goes
// through it. A virtual op's match row and prep rows, and every op of one
// Update, therefore reach packets together. Tx's methods are the DPMU's
// only mutators; each DPMU method of the same name is a one-op Update
// around it. A Tx is valid only inside the Update callback that received
// it.
type Tx struct{ d *DPMU }

// Update runs fn as one DPMU write. Lock order: d.mu, then the switch's
// write lock (sim.Switch.Update), held together for the whole of fn, so a
// packet sees the persona tables as they were before fn or as fn left
// them. After the switch transaction commits, still under d.mu, Update
// republishes the port→PID table and compiles the fused plan once.
//
// Like sim.Switch.Update, Update does not undo: a Tx method that fails
// removes the rows it wrote itself, and a caller that must undo earlier
// successful ops rolls back to a Checkpoint inside the same fn
// (Tx.Rollback). fn must not block on packets: a port detach, which drains
// rings whose workers need the switch's read lock, runs outside Update.
func (d *DPMU) Update(fn func(t *Tx) error) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	err := d.inTx(func() error { return fn(&Tx{d: d}) })
	d.publishPorts()
	d.rebuildFusionLocked()
	return err
}

// inTx runs fn with a switch transaction open in d.tx: the caller's, if
// one is already open, else a new one that commits when fn returns.
// Callers hold d.mu.
func (d *DPMU) inTx(fn func() error) error {
	if d.tx != nil {
		return fn()
	}
	return d.SW.Update(func(tx *sim.Tx) error {
		d.tx = tx
		defer func() { d.tx = nil }()
		return fn()
	})
}

// Load is Tx.Load as a one-op Update.
func (d *DPMU) Load(name string, comp *hp4c.Compiled, owner string, quota int) (v *VDev, err error) {
	err = d.Update(func(t *Tx) error {
		v, err = t.Load(name, comp, owner, quota)
		return err
	})
	return v, err
}

// Unload is Tx.Unload as a one-op Update.
func (d *DPMU) Unload(owner, name string) error {
	return d.Update(func(t *Tx) error { return t.Unload(owner, name) })
}

// TableAdd is Tx.TableAdd as a one-op Update.
func (d *DPMU) TableAdd(owner, vdev string, spec EntrySpec) (h int, err error) {
	err = d.Update(func(t *Tx) error {
		h, err = t.TableAdd(owner, vdev, spec)
		return err
	})
	return h, err
}

// TableDelete is Tx.TableDelete as a one-op Update.
func (d *DPMU) TableDelete(owner, vdev, table string, handle int) error {
	return d.Update(func(t *Tx) error { return t.TableDelete(owner, vdev, table, handle) })
}

// TableModify is Tx.TableModify as a one-op Update.
func (d *DPMU) TableModify(owner, vdev string, handle int, spec EntrySpec) error {
	return d.Update(func(t *Tx) error { return t.TableModify(owner, vdev, handle, spec) })
}

// SetDefault is Tx.SetDefault as a one-op Update.
func (d *DPMU) SetDefault(owner, vdev, table, action string, args []bitfield.Value) error {
	return d.Update(func(t *Tx) error { return t.SetDefault(owner, vdev, table, action, args) })
}

// MulticastGroup is Tx.MulticastGroup as a one-op Update.
func (d *DPMU) MulticastGroup(owner, vdev string, vport int, targets []VPortRef) error {
	return d.Update(func(t *Tx) error { return t.MulticastGroup(owner, vdev, vport, targets) })
}

// SetRateLimit is Tx.SetRateLimit as a one-op Update.
func (d *DPMU) SetRateLimit(owner, vdev string, yellowAt, redAt uint64) error {
	return d.Update(func(t *Tx) error { return t.SetRateLimit(owner, vdev, yellowAt, redAt) })
}

// ResetHealth is Tx.ResetHealth as a one-op Update.
func (d *DPMU) ResetHealth(owner, vdev string) error {
	return d.Update(func(t *Tx) error { return t.ResetHealth(owner, vdev) })
}

// AssignPort is Tx.AssignPort as a one-op Update.
func (d *DPMU) AssignPort(owner string, a Assignment) error {
	return d.Update(func(t *Tx) error { return t.AssignPort(owner, a) })
}

// ClearAssignments is Tx.ClearAssignments as a one-op Update.
func (d *DPMU) ClearAssignments() {
	_ = d.Update(func(t *Tx) error { t.ClearAssignments(); return nil })
}

// MapVPort is Tx.MapVPort as a one-op Update.
func (d *DPMU) MapVPort(owner, vdev string, vport, physPort int) error {
	return d.Update(func(t *Tx) error { return t.MapVPort(owner, vdev, vport, physPort) })
}

// LinkVPorts is Tx.LinkVPorts as a one-op Update.
func (d *DPMU) LinkVPorts(owner, fromDev string, fromPort int, toDev string, toPort int) error {
	return d.Update(func(t *Tx) error { return t.LinkVPorts(owner, fromDev, fromPort, toDev, toPort) })
}

// SaveSnapshot is Tx.SaveSnapshot as a one-op Update.
func (d *DPMU) SaveSnapshot(name string, assignments []Assignment) error {
	return d.Update(func(t *Tx) error { return t.SaveSnapshot(name, assignments) })
}

// ActivateSnapshot is Tx.ActivateSnapshot as a one-op Update.
func (d *DPMU) ActivateSnapshot(name string) error {
	return d.Update(func(t *Tx) error { return t.ActivateSnapshot(name) })
}

// Rollback is Tx.Rollback as a one-op Update.
func (d *DPMU) Rollback(cp *Checkpoint) {
	_ = d.Update(func(t *Tx) error { t.Rollback(cp); return nil })
}
