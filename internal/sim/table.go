package sim

import (
	"fmt"
	"slices"
	"sort"
	"sync/atomic"

	"hyper4/internal/bitfield"
	"hyper4/internal/p4/ast"
	"hyper4/internal/tuple"
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
	// (entries slice and index), so the counter is atomic; the struct must
	// not be copied once installed.
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
// entries is kept sorted by entryLess — the match precedence order. Lookup
// goes through the shared first-match index (internal/tuple): every entry is
// one (mask, value) over the table's key bytes, each read its own
// byte-aligned segment, so exact, ternary, LPM and valid reads all become
// masks and the index returns the entry a scan of entries would. A table
// with a range read has no index and scans entries: a range is no mask.
type table struct {
	decl      *ast.Table
	lay       *layout
	reads     []readInfo
	keyWidths []int // width of each read key
	allExact  bool  // exact and valid reads only: duplicate keys are rejected

	entries    []*Entry
	ix         *tuple.Index[*Entry] // nil when a read is a range
	scratch    []byte               // entryKey's output, reused under the write lock
	nextHandle int

	defaultAction string
	defaultAct    *action // defaultAction compiled; nil when undeclared
	defaultArgs   []bitfield.Value

	// ternaryWidth is the summed width of ternary reads, for Table 4.
	ternaryWidth int

	metrics tableMetrics
}

func newTable(lay *layout, decl *ast.Table) (*table, error) {
	t := &table{decl: decl, lay: lay, allExact: true, ix: tuple.New(entryLess)}
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
		if r.Match == ast.MatchRange {
			t.ix = nil
		}
	}
	if decl.Default != "" {
		t.defaultAction = decl.Default
	}
	return t, nil
}

// appendKey appends the packet's key bytes for this table: each read's
// bytes in turn, a valid read as one byte holding 0 or 1.
func (t *table) appendKey(buf []byte, ps *packetState) ([]byte, error) {
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
			buf = append(buf, b)
			continue
		}
		src, err := ps.fieldVal(r.f)
		if err != nil {
			return nil, err
		}
		buf = src.AppendSliceTo(buf, r.f.loc.off, r.width)
	}
	return buf, nil
}

// entryKey lays an entry out as the index's (mask, value) over the table's
// key bytes, the layout appendKey gives a packet: exact reads are all ones,
// ternary reads their mask, LPM reads their prefix and valid reads one bit.
// Each read takes its own width whatever the param holds, so a restored
// entry that does not fit its table cannot shift the reads after it. Both
// slices live in t.scratch until the next call.
func (t *table) entryKey(params []MatchParam) (mask, val []byte) {
	params = params[:min(len(params), len(t.keyWidths))]
	b := t.scratch[:0]
	for i := range params {
		p, w := &params[i], t.keyWidths[i]
		switch p.Kind {
		case ast.MatchTernary:
			b = appendBytes(b, p.Mask.View(), (w+7)/8)
		case ast.MatchLPM:
			b = appendPrefixMask(b, w, p.PrefixLen)
		case ast.MatchValid:
			b = appendBytes(b, []byte{1}, (w+7)/8)
		default:
			b = appendPrefixMask(b, w, w)
		}
	}
	n := len(b)
	for i := range params {
		p, w := &params[i], t.keyWidths[i]
		v := p.Value.View()
		if p.Kind == ast.MatchValid {
			v = []byte{0}
			if p.ValidWant {
				v[0] = 1
			}
		}
		b = appendBytes(b, v, (w+7)/8)
	}
	t.scratch = b
	return b[:n], b[n:]
}

// appendBytes appends b right-aligned in exactly n bytes.
func appendBytes(dst, b []byte, n int) []byte {
	for ; n > len(b); n-- {
		dst = append(dst, 0)
	}
	return append(dst, b[len(b)-n:]...)
}

// appendPrefixMask appends the bytes of a w-bit value whose top plen bits
// are set.
func appendPrefixMask(dst []byte, w, plen int) []byte {
	n := (w + 7) / 8
	from := n*8 - w // the top byte's padding bits stay clear
	for j := 0; j < n; j++ {
		lo, hi := max(from-8*j, 0), min(from+plen-8*j, 8)
		m := byte(0)
		if hi > lo {
			m = byte(0xff>>lo) & byte(0xff<<(8-hi))
		}
		dst = append(dst, m)
	}
	return dst
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

// lookup finds the highest-precedence matching entry, or nil on miss.
func (t *table) lookup(ps *packetState) (*Entry, error) {
	if len(t.entries) == 0 {
		return nil, nil
	}
	if t.ix != nil {
		buf, err := t.appendKey(ps.keyBuf[:0], ps)
		if err != nil {
			return nil, err
		}
		ps.keyBuf = buf
		e, _ := t.ix.Lookup(buf, &ps.probeBuf)
		return e, nil
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
	if !slices.Contains(t.decl.Actions, name) {
		return nil, fmt.Errorf("sim: table %s does not allow action %q", t.decl.Name, name)
	}
	if len(args) != act.params {
		return nil, fmt.Errorf("sim: action %s wants %d args, got %d", name, act.params, len(args))
	}
	return act, nil
}

// checkEntry holds one entry to t's shape: its params line up with t's
// reads in number, match kind and width, and allowedAction accepts its
// action and args. TableAdd runs it on every add and CheckDump on every
// entry of a dump before it is restored.
func (sw *Switch) checkEntry(t *table, action string, params []MatchParam, args []bitfield.Value) (*action, error) {
	name := t.decl.Name
	if len(params) != len(t.decl.Reads) {
		return nil, fmt.Errorf("sim: table %s wants %d match params, got %d", name, len(t.decl.Reads), len(params))
	}
	act, err := sw.allowedAction(t, action, args)
	if err != nil {
		return nil, err
	}
	for i, p := range params {
		want := t.decl.Reads[i].Match
		if p.Kind != want {
			return nil, fmt.Errorf("sim: table %s param %d is %s, entry has %s", name, i, want, p.Kind)
		}
		if p.Kind != ast.MatchValid && p.Value.Width() != t.keyWidths[i] {
			return nil, fmt.Errorf("sim: table %s param %d width %d, want %d", name, i, p.Value.Width(), t.keyWidths[i])
		}
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
	act, err := sw.checkEntry(t, action, params, args)
	if err != nil {
		return 0, err
	}
	var mask, val []byte
	if t.ix != nil {
		mask, val = t.entryKey(params)
	}
	// An all-exact table is one mask group: an entry matching the new key
	// holds exactly that key.
	if t.allExact {
		if _, dup := t.ix.Lookup(val, new([]byte)); dup {
			return 0, fmt.Errorf("sim: table %s already has an entry for this key", tableName)
		}
	}
	t.nextHandle++
	e := &Entry{Handle: t.nextHandle, Params: params, Action: action, Args: args, Priority: priority, act: act}
	e.prefixSum = e.totalPrefix()
	t.insertSorted(e)
	if t.ix != nil {
		t.ix.Insert(mask, val, e)
	}
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

// reindex rebuilds the index from entries, which are in precedence order.
func (t *table) reindex() {
	if t.ix == nil {
		return
	}
	t.ix = tuple.Build(entryLess, len(t.entries), func(i int) ([]byte, []byte, *Entry) {
		mask, val := t.entryKey(t.entries[i].Params)
		return mask, val, t.entries[i]
	})
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
			if t.ix != nil {
				mask, val := t.entryKey(e.Params)
				t.ix.Delete(mask, val, e)
			}
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
	t.reindex()
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
