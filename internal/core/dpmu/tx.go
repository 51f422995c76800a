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
// republishes the port→PID table and requests a fused-plan compile, which
// runs after Update returns (fusion.go); Settle waits for it.
//
// The write set is the undo: every persona row a Tx method writes is
// recorded by the switch transaction, and every bookkeeping edit (devices,
// their entries, defaults and links, link specs, snapshots, the active
// snapshot, the ID counters, health records) records its inverse in
// the same record. If fn returns an error, Update replays the record
// backward, so a failed op, or an op that fails after others succeeded,
// leaves the DPMU and the switch as they were. A Tx method that fails may
// leave partial writes until its Update returns the error. A committed
// record (WriteSet) can be replayed in a later Update (Undo) while no other
// write has committed since. fn must not block on packets: a port detach,
// which drains rings whose workers need the switch's read lock, runs
// outside Update. Health resets are announced to the notify hook only once
// the Update commits.
func (d *DPMU) Update(fn func(t *Tx) error) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	err := d.inTx(func() error { return fn(&Tx{d: d}) })
	d.publishPorts()
	d.requestCompileLocked()
	if err == nil {
		d.notifyResets()
	}
	d.resets = d.resets[:0]
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

// WriteSet returns the Update's write set, complete once it commits.
func (t *Tx) WriteSet() sim.WriteSet { return t.d.tx.WriteSet() }

// Undo replays committed Updates' write sets backward, newest first. It
// refuses, with sim.ErrInterleaved, unless they are the latest writes to the
// switch and its bookkeeping, one after another (sim.Tx.Undo): a health
// query's bypass rewiring, say, commits writes of its own.
func (t *Tx) Undo(sets ...sim.WriteSet) error { return t.d.tx.Undo(sets...) }

// keep records, in the open write set, the step that restores m[k] to what
// it holds now: a value, or no key.
func keep[K comparable, V any](tx *sim.Tx, m map[K]V, k K) {
	old, had := m[k]
	tx.OnUndo(func() {
		if had {
			m[k] = old
		} else {
			delete(m, k)
		}
	})
}

// keepVal records, in the open write set, the step that restores *p to what
// it holds now.
func keepVal[T any](tx *sim.Tx, p *T) {
	old := *p
	tx.OnUndo(func() { *p = old })
}

// newID advances one of the DPMU's ID counters and returns the new ID.
func (d *DPMU) newID(ctr *int) int {
	keepVal(d.tx, ctr)
	*ctr++
	return *ctr
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

// Undo is Tx.Undo as a one-op Update.
func (d *DPMU) Undo(sets ...sim.WriteSet) error {
	return d.Update(func(t *Tx) error { return t.Undo(sets...) })
}

// Rollback is Tx.Rollback as a one-op Update.
func (d *DPMU) Rollback(cp *Checkpoint) {
	_ = d.Update(func(t *Tx) error { t.Rollback(cp); return nil })
}
