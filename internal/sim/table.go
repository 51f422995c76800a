package sim

import (
	"fmt"
	"sort"
	"sync/atomic"

	"hyper4/internal/bitfield"
	"hyper4/internal/p4/ast"
)

// MatchParam is one match key component of a table entry.
type MatchParam struct {
	Kind      ast.MatchKind  `json:"kind"`
	Value     bitfield.Value `json:"value"`
	Mask      bitfield.Value `json:"mask"`                 // ternary
	PrefixLen int            `json:"prefix_len,omitempty"` // lpm
	Hi        bitfield.Value `json:"hi"`                   // range upper bound (Value is the lower)
	ValidWant bool           `json:"valid_want,omitempty"` // valid matches
}

// Entry is one installed table entry.
type Entry struct {
	Handle   int
	Params   []MatchParam
	Action   string
	Args     []bitfield.Value
	Priority int // lower value = higher precedence (bmv2 convention)

	// prefixSum caches totalPrefix() at insert time so lookup never
	// recomputes it per candidate.
	prefixSum int

	// act is Action compiled, resolved once under the write lock.
	act *action

	// hits counts lookups this entry has won. Entries are shared by pointer
	// (entries slice, exact and LPM indexes), so the counter is atomic; the
	// struct must not be copied once installed.
	hits atomic.Int64
}

// readInfo is one compiled match key accessor.
type readInfo struct {
	kind  ast.MatchKind
	f     *fieldRef // field reads
	hdr   *hdrRef   // valid reads
	width int
}

// table is the runtime state of one match-action table.
//
// entries is kept sorted by (Priority asc, prefixSum desc, Handle asc) — the
// match precedence order — so lookup can return the first matching entry.
// All-exact tables additionally keep a hash index over concatenated key
// bytes, and single-field LPM tables (the router's ipv4_lpm shape) keep a
// per-prefix-length hash index walked longest-prefix-first.
type table struct {
	decl      *ast.Table
	lay       *layout
	reads     []readInfo
	keyWidths []int // width of each read key
	allExact  bool
	singleLPM bool

	entries    []*Entry
	exactIndex map[string]*Entry // fast path when allExact
	lpm        *lpmIndex         // non-nil while usable (uniform priorities)
	lpmPrio    int
	lpmPrioSet bool
	nextHandle int

	defaultAction string
	defaultAct    *action // defaultAction compiled; nil when undeclared
	defaultArgs   []bitfield.Value

	// ternaryWidth is the summed width of ternary reads, for Table 4.
	ternaryWidth int

	metrics tableMetrics
}

// lpmIndex is a per-prefix-length hash index for single-field LPM tables.
type lpmIndex struct {
	byLen map[int]map[string]*Entry
	lens  []int // sorted descending: longest prefix probed first
}

func newTable(lay *layout, decl *ast.Table) (*table, error) {
	t := &table{decl: decl, lay: lay, allExact: true, exactIndex: map[string]*Entry{}}
	for _, r := range decl.Reads {
		ri := readInfo{kind: r.Match}
		if r.Match == ast.MatchValid {
			ri.hdr = lay.hdr(*r.Header)
			ri.width = 1
		} else {
			ri.f = lay.field(*r.Field)
			if ri.f.err != nil {
				return nil, fmt.Errorf("table %s: %w", decl.Name, ri.f.err)
			}
			ri.width = ri.f.loc.width
		}
		t.reads = append(t.reads, ri)
		t.keyWidths = append(t.keyWidths, ri.width)
		if r.Match != ast.MatchExact && r.Match != ast.MatchValid {
			t.allExact = false
		}
		if r.Match == ast.MatchTernary {
			t.ternaryWidth += ri.width
		}
	}
	t.singleLPM = len(decl.Reads) == 1 && decl.Reads[0].Match == ast.MatchLPM
	if t.singleLPM {
		t.lpm = &lpmIndex{byLen: map[int]map[string]*Entry{}}
	}
	if decl.Default != "" {
		t.defaultAction = decl.Default
	}
	return t, nil
}

// appendKeyBytes appends the packet's concatenated key bytes for this table,
// in the exactKeyString format (component bytes separated by 0xfe).
func (t *table) appendKeyBytes(buf []byte, ps *packetState) ([]byte, error) {
	for i := range t.reads {
		r := &t.reads[i]
		if r.kind == ast.MatchValid {
			slot, err := ps.slotFor(r.hdr)
			if err != nil {
				return nil, err
			}
			b := byte(0)
			if ps.headers[slot].valid {
				b = 1
			}
			buf = append(buf, b, 0xfe)
			continue
		}
		src, err := ps.fieldVal(r.f)
		if err != nil {
			return nil, err
		}
		buf = src.AppendSliceTo(buf, r.f.loc.off, r.width)
		buf = append(buf, 0xfe)
	}
	return buf, nil
}

// keyOf extracts the current packet's key values for this table into the
// packet state's reusable scratch.
func (t *table) keyOf(ps *packetState) ([]bitfield.Value, error) {
	if cap(ps.keyVals) < len(t.reads) {
		ps.keyVals = make([]bitfield.Value, len(t.reads))
	}
	key := ps.keyVals[:len(t.reads)]
	for i := range t.reads {
		r := &t.reads[i]
		if r.kind == ast.MatchValid {
			slot, err := ps.slotFor(r.hdr)
			if err != nil {
				return nil, err
			}
			if key[i].Width() != 1 {
				key[i] = bitfield.New(1)
			}
			if ps.headers[slot].valid {
				key[i].SetUint(1)
			} else {
				key[i].SetUint(0)
			}
			continue
		}
		src, err := ps.fieldVal(r.f)
		if err != nil {
			return nil, err
		}
		src.SliceInto(&key[i], r.f.loc.off, r.width)
	}
	return key, nil
}

func exactKeyString(key []bitfield.Value) string {
	s := make([]byte, 0, 64)
	for _, v := range key {
		s = v.AppendSliceTo(s, 0, v.Width())
		s = append(s, 0xfe) // separator
	}
	return string(s)
}

// lookup finds the highest-precedence matching entry, or nil on miss.
func (t *table) lookup(ps *packetState) (*Entry, error) {
	if len(t.entries) == 0 {
		return nil, nil
	}
	if t.allExact {
		buf, err := t.appendKeyBytes(ps.keyBuf[:0], ps)
		if err != nil {
			return nil, err
		}
		ps.keyBuf = buf
		return t.exactIndex[string(buf)], nil
	}
	if t.singleLPM && t.lpm != nil {
		r := &t.reads[0]
		src, err := ps.fieldVal(r.f)
		if err != nil {
			return nil, err
		}
		buf := src.AppendSliceTo(ps.keyBuf[:0], r.f.loc.off, r.width)
		ps.keyBuf = buf
		pad := len(buf)*8 - r.width
		// Probe longest prefix first; masking is monotone (lens descend), so
		// each probe only zeroes a few more tail bits of the same buffer.
		for _, plen := range t.lpm.lens {
			zeroTailBits(buf, pad+plen)
			if e, ok := t.lpm.byLen[plen][string(buf)]; ok {
				return e, nil
			}
		}
		return nil, nil
	}
	key, err := t.keyOf(ps)
	if err != nil {
		return nil, err
	}
	// entries is sorted by precedence, so the first match wins.
	for _, e := range t.entries {
		if e.matches(key) {
			return e, nil
		}
	}
	return nil, nil
}

// zeroTailBits clears every bit at absolute position >= fromBit.
func zeroTailBits(buf []byte, fromBit int) {
	i := fromBit / 8
	if i >= len(buf) {
		return
	}
	if rem := fromBit % 8; rem > 0 {
		buf[i] &= 0xff << (8 - rem)
		i++
	}
	for ; i < len(buf); i++ {
		buf[i] = 0
	}
}

func (e *Entry) matches(key []bitfield.Value) bool {
	for i, p := range e.Params {
		k := key[i]
		switch p.Kind {
		case ast.MatchExact:
			if !k.Equal(p.Value) {
				return false
			}
		case ast.MatchTernary:
			if !k.MatchTernary(p.Value, p.Mask) {
				return false
			}
		case ast.MatchLPM:
			if !k.MatchPrefix(p.Value, p.PrefixLen) {
				return false
			}
		case ast.MatchRange:
			if !k.InRange(p.Value, p.Hi) {
				return false
			}
		case ast.MatchValid:
			want := uint64(0)
			if p.ValidWant {
				want = 1
			}
			if k.Width() != 1 || k.UintAt(0, 1) != want {
				return false
			}
		}
	}
	return true
}

// totalPrefix sums LPM prefix lengths, for longest-prefix precedence.
func (e *Entry) totalPrefix() int {
	n := 0
	for _, p := range e.Params {
		if p.Kind == ast.MatchLPM {
			n += p.PrefixLen
		}
	}
	return n
}

// activeMaskBits counts mask bits actively compared by this entry's ternary
// params (Table 4's "active" column).
func (e *Entry) activeMaskBits() int {
	n := 0
	for _, p := range e.Params {
		if p.Kind == ast.MatchTernary {
			n += p.Mask.PopCount()
		}
	}
	return n
}

// entryLess is the match precedence order: lower Priority wins; ties broken
// by longest summed prefix (for LPM tables), then by insertion order.
func entryLess(a, b *Entry) bool {
	if a.Priority != b.Priority {
		return a.Priority < b.Priority
	}
	if a.prefixSum != b.prefixSum {
		return a.prefixSum > b.prefixSum
	}
	return a.Handle < b.Handle
}

// --- runtime API ---

// table resolves a table name for the control plane.
func (sw *Switch) table(name string) (*table, error) {
	t, ok := sw.tables[name]
	if !ok {
		return nil, fmt.Errorf("sim: no table %q", name)
	}
	return t, nil
}

// allowedAction resolves an action the control plane installs into t: it
// must be declared, be one t allows, and take len(args) arguments.
func (sw *Switch) allowedAction(t *table, name string, args []bitfield.Value) (*action, error) {
	act, ok := sw.code.byName[name]
	if !ok {
		return nil, fmt.Errorf("sim: no action %q", name)
	}
	if !contains(t.decl.Actions, name) {
		return nil, fmt.Errorf("sim: table %s does not allow action %q", t.decl.Name, name)
	}
	if len(args) != act.params {
		return nil, fmt.Errorf("sim: action %s wants %d args, got %d", name, act.params, len(args))
	}
	return act, nil
}

// TableAdd installs an entry and returns its handle. The params must line up
// with the table's reads; action args line up with the action's parameters.
// Inserting a second entry with the same exact-match key is rejected.
func (sw *Switch) TableAdd(tableName, action string, params []MatchParam, args []bitfield.Value, priority int) (int, error) {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	t, err := sw.table(tableName)
	if err != nil {
		return 0, err
	}
	if len(params) != len(t.decl.Reads) {
		return 0, fmt.Errorf("sim: table %s wants %d match params, got %d", tableName, len(t.decl.Reads), len(params))
	}
	act, err := sw.allowedAction(t, action, args)
	if err != nil {
		return 0, err
	}
	for i, p := range params {
		want := t.decl.Reads[i].Match
		if p.Kind != want {
			return 0, fmt.Errorf("sim: table %s param %d is %s, entry has %s", tableName, i, want, p.Kind)
		}
		if p.Kind != ast.MatchValid && p.Value.Width() != t.keyWidths[i] {
			return 0, fmt.Errorf("sim: table %s param %d width %d, want %d", tableName, i, p.Value.Width(), t.keyWidths[i])
		}
	}
	var exactKey string
	if t.allExact {
		exactKey = exactKeyStringParams(params)
		if _, dup := t.exactIndex[exactKey]; dup {
			return 0, fmt.Errorf("sim: table %s already has an entry for this key", tableName)
		}
	}
	t.nextHandle++
	e := &Entry{Handle: t.nextHandle, Params: params, Action: action, Args: args, Priority: priority, act: act}
	e.prefixSum = e.totalPrefix()
	t.insertSorted(e)
	if t.allExact {
		t.exactIndex[exactKey] = e
	}
	t.lpmAdd(e)
	sw.bumpGen()
	return e.Handle, nil
}

// insertSorted places e at its precedence position in entries.
func (t *table) insertSorted(e *Entry) {
	i := sort.Search(len(t.entries), func(i int) bool { return entryLess(e, t.entries[i]) })
	t.entries = append(t.entries, nil)
	copy(t.entries[i+1:], t.entries[i:])
	t.entries[i] = e
}

// lpmAdd maintains the single-field LPM index for a new entry. Mixed
// priorities would break the longest-prefix-first probe order, so the index
// is dropped (falling back to the sorted scan) the first time they appear.
func (t *table) lpmAdd(e *Entry) {
	if !t.singleLPM || t.lpm == nil {
		return
	}
	if t.lpmPrioSet && e.Priority != t.lpmPrio {
		t.lpm = nil
		return
	}
	t.lpmPrio, t.lpmPrioSet = e.Priority, true
	p := e.Params[0]
	key := lpmKey(p.Value, p.PrefixLen)
	m := t.lpm.byLen[p.PrefixLen]
	if m == nil {
		m = map[string]*Entry{}
		t.lpm.byLen[p.PrefixLen] = m
		t.lpm.lens = append(t.lpm.lens, p.PrefixLen)
		sort.Sort(sort.Reverse(sort.IntSlice(t.lpm.lens)))
	}
	// On duplicate (plen, prefix) keys the earlier entry has precedence
	// (same priority, lower handle), matching the sorted scan.
	if _, ok := m[key]; !ok {
		m[key] = e
	}
}

// rebuildLPM reconstructs the LPM index from scratch (after deletions).
func (t *table) rebuildLPM() {
	if !t.singleLPM {
		return
	}
	t.lpm = &lpmIndex{byLen: map[int]map[string]*Entry{}}
	t.lpmPrioSet = false
	for _, e := range t.entries {
		t.lpmAdd(e)
		if t.lpm == nil {
			return
		}
	}
}

// lpmKey renders a value masked to its prefix length as index key bytes.
func lpmKey(v bitfield.Value, plen int) string {
	b := v.Bytes()
	zeroTailBits(b, len(b)*8-v.Width()+plen)
	return string(b)
}

func exactKeyStringParams(params []MatchParam) string {
	key := make([]bitfield.Value, len(params))
	for i, p := range params {
		if p.Kind == ast.MatchValid {
			if p.ValidWant {
				key[i] = bitfield.FromUint(1, 1)
			} else {
				key[i] = bitfield.New(1)
			}
		} else {
			key[i] = p.Value
		}
	}
	return exactKeyString(key)
}

// TableSetDefault sets the default (miss) action. Like TableAdd — and like
// bmv2 — the action must be one the table declares.
func (sw *Switch) TableSetDefault(tableName, action string, args []bitfield.Value) error {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	t, err := sw.table(tableName)
	if err != nil {
		return err
	}
	act, err := sw.allowedAction(t, action, args)
	if err != nil {
		return err
	}
	t.defaultAction = action
	t.defaultAct = act
	t.defaultArgs = args
	sw.bumpGen()
	return nil
}

// TableDelete removes an entry by handle.
func (sw *Switch) TableDelete(tableName string, handle int) error {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	t, err := sw.table(tableName)
	if err != nil {
		return err
	}
	for i, e := range t.entries {
		if e.Handle == handle {
			t.entries = append(t.entries[:i], t.entries[i+1:]...)
			if t.allExact {
				delete(t.exactIndex, exactKeyStringParams(e.Params))
			}
			t.rebuildLPM()
			sw.bumpGen()
			return nil
		}
	}
	return errNoEntry(tableName, handle)
}

func errNoEntry(tableName string, handle int) error {
	return fmt.Errorf("sim: table %s has no entry %d", tableName, handle)
}

// TableModify replaces the action and args of an existing entry. The new
// action must be one the table declares, exactly as TableAdd requires.
func (sw *Switch) TableModify(tableName string, handle int, action string, args []bitfield.Value) error {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	t, err := sw.table(tableName)
	if err != nil {
		return err
	}
	act, err := sw.allowedAction(t, action, args)
	if err != nil {
		return err
	}
	for _, e := range t.entries {
		if e.Handle == handle {
			e.Action = action
			e.act = act
			e.Args = args
			sw.bumpGen()
			return nil
		}
	}
	return errNoEntry(tableName, handle)
}

// TableClear removes every entry from a table.
func (sw *Switch) TableClear(tableName string) error {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	t, err := sw.table(tableName)
	if err != nil {
		return err
	}
	t.entries = nil
	t.exactIndex = map[string]*Entry{}
	t.rebuildLPM()
	sw.bumpGen()
	return nil
}

// TableEntries returns the handles of installed entries, sorted.
func (sw *Switch) TableEntries(tableName string) ([]int, error) {
	sw.mu.RLock()
	defer sw.mu.RUnlock()
	t, err := sw.table(tableName)
	if err != nil {
		return nil, err
	}
	out := make([]int, 0, len(t.entries))
	for _, e := range t.entries {
		out = append(out, e.Handle)
	}
	sort.Ints(out)
	return out, nil
}

func contains(list []string, s string) bool {
	for _, x := range list {
		if x == s {
			return true
		}
	}
	return false
}
