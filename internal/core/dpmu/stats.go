package dpmu

import (
	"sort"

	"hyper4/internal/core/persona"
	"hyper4/internal/sim"
)

// This file translates persona-level counters back into per-virtual-device,
// per-virtual-table terms — the inverse of the table-op translation in
// entries.go. A virtual entry is realized as one a_set_match stage row per
// matching parse path, and a packet follows exactly one parse path, so the
// packets that matched the virtual entry are exactly the packets that hit one
// of its stage rows. Likewise the per-table catch-all rows (v.defaults) are
// hit exactly when the virtual table missed. Summing the switch's per-row hit
// counters over a device's own rows therefore reconstructs what the emulated
// program's operator would see from bmv2 — and cannot leak another device's
// counts, because every row carries this device's program ID.

// VTableStats is one virtual table's match statistics, in the emulated
// program's terms.
type VTableStats struct {
	Table   string `json:"table"`
	Hits    int64  `json:"hits"`    // packets that matched an installed virtual entry
	Misses  int64  `json:"misses"`  // packets that fell through to the default / catch-all
	Entries int    `json:"entries"` // installed virtual entries
}

// VDevStats aggregates one virtual device's traffic and table statistics.
type VDevStats struct {
	VDev    string        `json:"vdev"`
	Owner   string        `json:"owner,omitempty"`
	Packets uint64        `json:"packets"` // pipeline passes attributed to this device
	Bytes   uint64        `json:"bytes"`
	Tables  []VTableStats `json:"tables,omitempty"` // sorted by table name
}

// rowHits reads persona per-entry hit counters a table at a time: the
// first row looked up in a table reads every entry's hits in it under one
// switch read lock, so a stats call scans each persona table once rather
// than once per row.
type rowHits struct {
	sw     *sim.Switch
	tables map[string][]int64 // table → hits indexed by handle
}

func newRowHits(sw *sim.Switch) *rowHits {
	return &rowHits{sw: sw, tables: map[string][]int64{}}
}

// sum totals the hits of the a_set_match rows in a row set. Rows that
// vanished (mid-unload) count zero.
func (h *rowHits) sum(rows []pentry) int64 {
	var n int64
	for _, r := range rows {
		if !r.Match {
			continue
		}
		hits, ok := h.tables[r.Table]
		if !ok {
			entries, _ := h.sw.TableEntriesOrdered(r.Table)
			for _, e := range entries {
				if e.Handle >= len(hits) {
					hits = append(hits, make([]int64, e.Handle+1-len(hits))...)
				}
				hits[e.Handle] = e.Hits()
			}
			h.tables[r.Table] = hits
		}
		if r.Handle < len(hits) {
			n += hits[r.Handle]
		}
	}
	return n
}

// statsFor builds the per-virtual-table view for one device.
func (d *DPMU) statsFor(v *VDev, hits *rowHits) VDevStats {
	st := VDevStats{VDev: v.Name, Owner: v.Owner}
	st.Packets, st.Bytes, _ = d.SW.CounterRead(persona.CounterVDev, v.PID)

	// Every compiled table appears, even with zero entries and zero traffic.
	byTable := map[string]*VTableStats{}
	for table := range v.Comp.Slots {
		byTable[table] = &VTableStats{Table: table}
	}
	for _, e := range v.entries {
		ts, ok := byTable[e.Table]
		if !ok { // defensive: entry for a table no longer in Slots
			ts = &VTableStats{Table: e.Table}
			byTable[e.Table] = ts
		}
		ts.Entries++
		ts.Hits += hits.sum(e.Rows)
	}
	for table, rows := range v.defaults {
		ts, ok := byTable[table]
		if !ok {
			ts = &VTableStats{Table: table}
			byTable[table] = ts
		}
		ts.Misses += hits.sum(rows)
	}
	for _, ts := range byTable {
		st.Tables = append(st.Tables, *ts)
	}
	sort.Slice(st.Tables, func(i, j int) bool { return st.Tables[i].Table < st.Tables[j].Table })
	return st
}

// StatsForVDev returns one device's virtual-table statistics. The owner must
// be authorized for the device — the same isolation rule as every other
// DPMU operation, so a tenant can never read another tenant's counters.
func (d *DPMU) StatsForVDev(owner, vdev string) (VDevStats, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	v, err := d.auth(owner, vdev)
	if err != nil {
		return VDevStats{}, err
	}
	return d.statsFor(v, newRowHits(d.SW)), nil
}

// AllStats returns every device's statistics, sorted by device name. This is
// the operator-level view the metrics exporter scrapes; tenant-facing paths
// go through StatsForVDev.
func (d *DPMU) AllStats() []VDevStats {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]VDevStats, 0, len(d.vdevs))
	hits := newRowHits(d.SW)
	for _, name := range d.vdevNames() {
		out = append(out, d.statsFor(d.vdevs[name], hits))
	}
	return out
}
