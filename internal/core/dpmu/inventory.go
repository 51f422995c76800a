package dpmu

import (
	"sort"

	"hyper4/internal/core/verify"
	"hyper4/internal/sim"
)

// VerifySource exports the DPMU's control-plane state as a verification
// snapshot for internal/core/verify: every loaded device with its virtual
// entries (from the retained EntrySpecs) and the full set of persona rows
// its bookkeeping tracks, the logical virtual-link topology, and a raw
// switch dump for the tenant-isolation cross-check. The snapshot is
// self-contained — slices are fresh, payloads immutable — so the verifier
// runs without any DPMU lock held.
func (d *DPMU) VerifySource() *verify.Source {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.verifySource(d.SW.Dump())
}

// VerifySource is DPMU.VerifySource inside the transaction: the snapshot
// holds the tx's writes so far.
func (t *Tx) VerifySource() *verify.Source { return t.d.verifySource(t.d.tx.Dump()) }

func (d *DPMU) verifySource(dump *sim.SwitchDump) *verify.Source {
	src := &verify.Source{Cfg: d.cfg, Dump: dump}
	for _, name := range d.vdevNames() {
		v := d.vdevs[name]
		dev := verify.Device{Name: v.Name, PID: v.PID, Comp: v.Comp}
		addRows := func(rows []pentry) {
			for _, r := range rows {
				dev.Rows = append(dev.Rows, verify.Row{Table: r.Table, Handle: r.Handle})
			}
		}
		handles := make([]int, 0, len(v.entries))
		for h := range v.entries {
			handles = append(handles, h)
		}
		sort.Ints(handles)
		for _, h := range handles {
			e := v.entries[h]
			dev.Entries = append(dev.Entries, verify.Entry{
				Handle:   h,
				Table:    e.Spec.Table,
				Action:   e.Spec.Action,
				Params:   e.Spec.Params,
				Args:     e.Spec.Args,
				Priority: e.Spec.Priority,
			})
			addRows(e.Rows)
		}
		addRows(v.static)
		tables := make([]string, 0, len(v.defaults))
		for t := range v.defaults {
			tables = append(tables, t)
		}
		sort.Strings(tables)
		for _, t := range tables {
			addRows(v.defaults[t])
		}
		addRows(v.links)
		// vnet rows replace entries in v.links over time; the row set is a
		// set, so re-adding the live ones is harmless and covers rows that
		// were replaced in place.
		ports := make([]int, 0, len(v.vnet))
		for p := range v.vnet {
			ports = append(ports, p)
		}
		sort.Ints(ports)
		for _, p := range ports {
			row := v.vnet[p]
			dev.Rows = append(dev.Rows, verify.Row{Table: row.Table, Handle: row.Handle})
		}
		src.Devices = append(src.Devices, dev)
	}
	for _, l := range d.linkSpecs {
		src.Links = append(src.Links, verify.Link{FromDev: l.FromDev, FromPort: l.FromPort, ToDev: l.ToDev, ToPort: l.ToPort})
	}
	return src
}
