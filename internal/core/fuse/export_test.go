package fuse

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
	return len(fs.rows), len(fs.ix.groups), true
}
