package sim

import "sort"

// TableNames returns all table names, sorted.
func (sw *Switch) TableNames() []string {
	out := make([]string, 0, len(sw.tables))
	for name := range sw.tables {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// TableEntryCount returns the number of installed entries.
func (sw *Switch) TableEntryCount(name string) (int, error) {
	sw.mu.RLock()
	defer sw.mu.RUnlock()
	t, err := sw.table(name)
	if err != nil {
		return 0, err
	}
	return len(t.entries), nil
}
