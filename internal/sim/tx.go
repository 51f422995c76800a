package sim

import "hyper4/internal/bitfield"

// Tx is an open control-plane write transaction (Update). Its methods are
// the switch's only control-plane mutators; each Switch mutator of the same
// name is a one-op Update around it. A Tx is valid only inside the Update
// callback that received it.
type Tx struct {
	sw      *Switch
	changed bool
}

// Update runs fn under one hold of the switch's write lock, so packets see
// the state before every write fn makes or after all of them, never a mix.
// Writes made through tx are visible to later ones in the same fn. The
// generation bumps once, at commit, and only if fn changed something; a
// compiled plan therefore goes stale once per transaction, not once per
// row. Update does not undo: writes fn made before returning an error
// stand, and fn rewinds them itself (RestoreDump) if it must.
func (sw *Switch) Update(fn func(tx *Tx) error) error {
	tx := sw.begin()
	defer tx.commit()
	return fn(tx)
}

// begin takes the write lock and opens a transaction; commit ends it. The
// one-op wrappers below use the pair directly, so a single write costs no
// closure.
func (sw *Switch) begin() *Tx {
	sw.mu.Lock()
	return &Tx{sw: sw}
}

func (tx *Tx) commit() {
	if tx.changed {
		tx.sw.gen.Add(1)
	}
	tx.sw.mu.Unlock()
}

// TableAdd is Tx.TableAdd as a one-op Update.
func (sw *Switch) TableAdd(tableName, action string, params []MatchParam, args []bitfield.Value, priority int) (int, error) {
	tx := sw.begin()
	defer tx.commit()
	return tx.TableAdd(tableName, action, params, args, priority)
}

// TableSetDefault is Tx.TableSetDefault as a one-op Update.
func (sw *Switch) TableSetDefault(tableName, action string, args []bitfield.Value) error {
	tx := sw.begin()
	defer tx.commit()
	return tx.TableSetDefault(tableName, action, args)
}

// TableDelete is Tx.TableDelete as a one-op Update.
func (sw *Switch) TableDelete(tableName string, handle int) error {
	tx := sw.begin()
	defer tx.commit()
	return tx.TableDelete(tableName, handle)
}

// TableModify is Tx.TableModify as a one-op Update.
func (sw *Switch) TableModify(tableName string, handle int, action string, args []bitfield.Value) error {
	tx := sw.begin()
	defer tx.commit()
	return tx.TableModify(tableName, handle, action, args)
}

// TableClear is Tx.TableClear as a one-op Update.
func (sw *Switch) TableClear(tableName string) error {
	tx := sw.begin()
	defer tx.commit()
	return tx.TableClear(tableName)
}

// RestoreDump is Tx.RestoreDump as a one-op Update.
func (sw *Switch) RestoreDump(d *SwitchDump) {
	tx := sw.begin()
	defer tx.commit()
	tx.RestoreDump(d)
}

// SetMirror is Tx.SetMirror as a one-op Update.
func (sw *Switch) SetMirror(session, port int) {
	tx := sw.begin()
	defer tx.commit()
	tx.SetMirror(session, port)
}
