package sim

import (
	"errors"

	"hyper4/internal/bitfield"
)

// Tx is an open control-plane write transaction (Update). Its methods are
// the switch's only control-plane mutators; each Switch mutator of the same
// name is a one-op Update around it. A Tx is valid only inside the Update
// callback that received it.
//
// A Tx opened by Update records its write set: for every write it makes,
// the step that undoes it, in write order. Bookkeeping kept beside the
// switch (the DPMU's devices and ID counters) joins the same record through
// OnUndo, so one replay undoes both.
type Tx struct {
	sw      *Switch
	changed bool
	record  bool // keep undo steps (Update); off for the one-op wrappers
	rewound bool // fn failed and its writes were undone
	undo    []func()
	// from and to are sw.writes when the transaction began and after it
	// committed.
	from, to uint64
}

// A WriteSet is a committed transaction's write set: the steps that undo
// its writes, oldest first, and where the transaction sits in the switch's
// sequence of writes. Tx.Undo replays it in a later transaction.
type WriteSet struct{ tx *Tx }

// ErrInterleaved is Tx.Undo's refusal of write sets that are not the
// switch's latest writes.
var ErrInterleaved = errors.New("sim: a write committed after the write set; it cannot be undone")

// Update runs fn under one hold of the switch's write lock, so packets see
// the state before every write fn makes or after all of them, never a mix.
// Writes made through tx are visible to later ones in the same fn. The
// generation bumps once, at commit, and only if fn changed something; a
// compiled plan therefore goes stale once per transaction, not once per
// row. If fn returns an error, Update first replays tx's write set
// backward, so the switch (and whatever OnUndo recorded) is as it was
// before fn. Undone entries are the entry objects themselves, put back, so
// their hit counters keep counting.
func (sw *Switch) Update(fn func(tx *Tx) error) error {
	tx := sw.begin()
	tx.record = true
	defer tx.commit()
	err := fn(tx)
	if err != nil {
		rewind(tx.undo)
		tx.rewound = true
	}
	return err
}

// begin takes the write lock and opens a transaction; commit ends it. The
// one-op wrappers below use the pair directly and record nothing: a sim
// write checks before it writes, so a one-op write that fails has nothing
// to undo.
func (sw *Switch) begin() *Tx {
	sw.mu.Lock()
	return &Tx{sw: sw, from: sw.writes}
}

func (tx *Tx) commit() {
	if tx.changed {
		tx.sw.gen.Add(1)
	}
	// A rewound transaction left everything as it found it, so it is no
	// write for Undo to step over. It still moves the generation: a plan
	// compiled before it is rebuilt, not reasoned about.
	if !tx.rewound && (tx.changed || len(tx.undo) > 0) {
		tx.sw.writes++
	}
	tx.to = tx.sw.writes
	tx.sw.mu.Unlock()
}

// OnUndo appends fn to the write set as the step that undoes a write the
// caller just made outside the switch. fn runs under the switch's write
// lock, after every later step has run; it must not write through a Tx.
func (tx *Tx) OnUndo(fn func()) {
	if tx.record {
		tx.undo = append(tx.undo, fn)
	}
}

// WriteSet returns the transaction's write set. It is complete once the
// transaction commits: take it at the end of fn.
func (tx *Tx) WriteSet() WriteSet { return WriteSet{tx: tx} }

// Undo reverses committed transactions' writes inside this one, newest
// first. The sets must be the switch's latest writes, in commit order with
// none between them: a write another transaction committed after one of
// them may rest on it (reuse the handle an undone add would hand back, or
// hold the key an undone delete would put back), and replaying the set
// would corrupt that write. Undo then returns ErrInterleaved and changes
// nothing. Call Undo before this transaction writes; the undoing is not
// itself recorded, so the transaction should make no further writes.
func (tx *Tx) Undo(sets ...WriteSet) error {
	if tx.changed || len(tx.undo) > 0 {
		return ErrInterleaved
	}
	at := tx.from
	for i := len(sets) - 1; i >= 0; i-- {
		if sets[i].tx.to != at {
			return ErrInterleaved
		}
		at = sets[i].tx.from
	}
	for i := len(sets) - 1; i >= 0; i-- {
		if len(sets[i].tx.undo) > 0 {
			tx.changed = true
		}
		rewind(sets[i].tx.undo)
	}
	return nil
}

// rewind runs undo steps newest first.
func rewind(steps []func()) {
	for i := len(steps) - 1; i >= 0; i-- {
		steps[i]()
	}
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

// MeterSetRates is Tx.MeterSetRates as a one-op Update.
func (sw *Switch) MeterSetRates(name string, idx int, yellowAt, redAt uint64) error {
	tx := sw.begin()
	defer tx.commit()
	return tx.MeterSetRates(name, idx, yellowAt, redAt)
}
