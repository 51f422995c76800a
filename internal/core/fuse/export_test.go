package fuse

import "hyper4/internal/sim"

// SlotShape reports the row and mask-group counts of pid's fused table
// (kind, id); ok is false when the engine holds no such table.
func (eng *Engine) SlotShape(pid, kind, id int) (rows, groups int, ok bool) {
	p := eng.plans[pid]
	if p == nil {
		return 0, 0, false
	}
	fs := p.slots[slotKey(kind, uint64(id))]
	if fs == nil {
		return 0, 0, false
	}
	return len(fs.rows), fs.ix.Groups(), true
}

// PlanEntries returns every persona row pid's plan holds: its parse rows,
// the rows its fused tables hit (each set_match row, then its primitives'
// prep and exec rows), its virtnet routes, and its checksum row.
func (eng *Engine) PlanEntries(pid int) (parse, stage, vnet []*sim.Entry, csum *sim.Entry, ok bool) {
	p := eng.plans[pid]
	if p == nil {
		return nil, nil, nil, nil, false
	}
	for _, ps := range p.parseBy {
		for i := range ps.rows {
			parse = append(parse, eng.entries[ps.rows[i].ent])
		}
	}
	for _, fs := range p.slots {
		for _, r := range fs.rows {
			stage = append(stage, eng.entries[r.lo:r.hi]...)
		}
	}
	for _, vr := range p.vnet {
		vnet = append(vnet, vr.Entry)
	}
	if p.csum != nil {
		csum = p.csum.Entry
	}
	return parse, stage, vnet, csum, true
}
