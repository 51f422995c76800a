package sim

import (
	"fmt"
	"sort"

	"hyper4/internal/bitfield"
)

// This file captures and restores the switch's control-plane state — the
// state management operations can change, as opposed to the state traffic
// changes. A SwitchDump is the unit of the control-plane API's atomicity
// protocol (internal/core/ctl): a batch checkpoint takes a Dump, a failed
// batch rolls back with RestoreDump, and the rollback tests diff two Dumps
// to prove the switch is bit-identical to its pre-batch state. The JSON
// tags are part of the control-plane journal's snapshot format (a
// dpmu.Checkpoint embeds a SwitchDump); renaming one breaks snapshots
// already on disk.

// EntryDump is one installed entry as captured by Dump. Params and Args are
// shared with the live entry (both are immutable after install).
type EntryDump struct {
	Handle   int              `json:"handle"`
	Params   []MatchParam     `json:"params,omitempty"`
	Action   string           `json:"action"`
	Args     []bitfield.Value `json:"args,omitempty"`
	Priority int              `json:"priority,omitempty"`
	Hits     int64            `json:"hits,omitempty"`
}

// TableDump is one table's control-plane state.
type TableDump struct {
	// Entries are in match-precedence order, as the table stores them.
	Entries       []EntryDump      `json:"entries,omitempty"`
	NextHandle    int              `json:"next_handle"`
	DefaultAction string           `json:"default_action,omitempty"`
	DefaultArgs   []bitfield.Value `json:"default_args,omitempty"`
}

// MeterRates is the configured thresholds of one meter cell (usage within
// the current window is traffic state and is not captured).
type MeterRates struct {
	YellowAt uint64
	RedAt    uint64
}

// SwitchDump is the full control-plane state of a switch: every table's
// entries and default action, the clone-session mirror map, and meter
// thresholds. Registers and counters are traffic state and are excluded.
type SwitchDump struct {
	Tables  map[string]TableDump    `json:"tables"`
	Mirrors map[int]int             `json:"mirrors,omitempty"`
	Meters  map[string][]MeterRates `json:"meters,omitempty"`
}

// Dump captures the switch's control-plane state. The result is safe to hold
// across later mutations: slices and maps are copied, and the entry payloads
// they reference are immutable.
func (sw *Switch) Dump() *SwitchDump {
	sw.mu.RLock()
	defer sw.mu.RUnlock()
	d := &SwitchDump{
		Tables:  make(map[string]TableDump, len(sw.tables)),
		Mirrors: make(map[int]int, len(sw.mirrors)),
		Meters:  make(map[string][]MeterRates, len(sw.meters)),
	}
	for name, t := range sw.tables {
		td := TableDump{
			Entries:       make([]EntryDump, len(t.entries)),
			NextHandle:    t.nextHandle,
			DefaultAction: t.defaultAction,
			DefaultArgs:   t.defaultArgs,
		}
		for i, e := range t.entries {
			td.Entries[i] = EntryDump{
				Handle:   e.Handle,
				Params:   e.Params,
				Action:   e.Action,
				Args:     e.Args,
				Priority: e.Priority,
				Hits:     e.hits.Load(),
			}
		}
		d.Tables[name] = td
	}
	for sess, port := range sw.mirrors {
		d.Mirrors[sess] = port
	}
	for name, m := range sw.meters {
		m.mu.Lock()
		rates := make([]MeterRates, len(m.cells))
		for i, c := range m.cells {
			rates[i] = MeterRates{YellowAt: c.yellowAt, RedAt: c.redAt}
		}
		m.mu.Unlock()
		d.Meters[name] = rates
	}
	return d
}

// CheckDump holds every entry of a dump to the switch's program with the
// checks TableAdd makes, so a dump decoded from outside — a journal
// snapshot — is never restored past its shape: an unknown or disallowed
// action, a wrong arg count, or a wrong param count, kind or width is an
// error naming the table and handle. Tables the switch lacks are skipped,
// as RestoreDump skips them. A Dump the switch took itself always passes.
func (sw *Switch) CheckDump(d *SwitchDump) error {
	sw.mu.RLock()
	defer sw.mu.RUnlock()
	names := make([]string, 0, len(d.Tables))
	for name := range d.Tables {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t, ok := sw.tables[name]
		if !ok {
			continue
		}
		for _, ed := range d.Tables[name].Entries {
			if _, err := sw.checkEntry(t, ed.Action, ed.Params, ed.Args); err != nil {
				return fmt.Errorf("entry %d: %w", ed.Handle, err)
			}
		}
	}
	return nil
}

// RestoreDump rewinds the switch's control-plane state to a previous Dump of
// the same switch: entries (with their handles, precedence positions and hit
// counters), handle counters, default actions, mirrors and meter thresholds
// all return to their captured values. Traffic state (registers, counters,
// meter window usage, lifetime stats) is left alone.
func (sw *Switch) RestoreDump(d *SwitchDump) {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	// A restore replaces table contents wholesale; any compiled fast-path
	// plan built against the pre-restore state must stop matching.
	sw.bumpGen()
	for name, t := range sw.tables {
		td := d.Tables[name] // zero value restores an empty table
		t.entries = make([]*Entry, 0, len(td.Entries))
		for _, ed := range td.Entries {
			e := &Entry{
				Handle:   ed.Handle,
				Params:   ed.Params,
				Action:   ed.Action,
				Args:     ed.Args,
				Priority: ed.Priority,
				act:      sw.code.byName[ed.Action],
			}
			e.prefixSum = e.totalPrefix()
			e.hits.Store(ed.Hits)
			// Dumped order is the table's precedence order; append preserves it.
			t.entries = append(t.entries, e)
		}
		t.reindex()
		t.nextHandle = td.NextHandle
		t.defaultAction = td.DefaultAction
		t.defaultAct = sw.code.byName[td.DefaultAction]
		t.defaultArgs = td.DefaultArgs
	}
	sw.mirrors = make(map[int]int, len(d.Mirrors))
	for sess, port := range d.Mirrors {
		sw.mirrors[sess] = port
	}
	for name, m := range sw.meters {
		rates, ok := d.Meters[name]
		if !ok {
			continue
		}
		m.mu.Lock()
		for i := range m.cells {
			if i < len(rates) {
				m.cells[i].yellowAt = rates[i].YellowAt
				m.cells[i].redAt = rates[i].RedAt
			}
		}
		m.mu.Unlock()
	}
}
