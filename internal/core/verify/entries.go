package verify

import (
	"errors"
	"fmt"
	"math/big"
	"slices"
	"sort"

	"hyper4/internal/bitfield"
	"hyper4/internal/core/hp4c"
	"hyper4/internal/p4/ast"
	"hyper4/internal/sim"
)

// Entries checks a set of virtual entries against a compiled program:
// declaration checks (table, action, arities — promoted from install-time
// runtime errors to findings), reachability (an entry whose valid()
// constraints exclude every parse-path slot never matches), and shadow
// analysis (an entry wholly covered by a higher-precedence one never wins).
// The set may be a device's installed entries or a proposed batch; shadow
// analysis is pairwise within each table.
func Entries(comp *hp4c.Compiled, entries []Entry) []Finding {
	if comp == nil {
		return nil
	}
	var out []Finding
	byTable := map[string][]Entry{}
	for _, e := range entries {
		if f, bad := checkEntry(comp, e); bad {
			out = append(out, f)
			continue
		}
		byTable[e.Table] = append(byTable[e.Table], e)
	}
	tables := make([]string, 0, len(byTable))
	for t := range byTable {
		tables = append(tables, t)
	}
	sort.Strings(tables)
	for _, t := range tables {
		out = append(out, checkShadow(comp, t, byTable[t])...)
	}
	sortFindings(out)
	return out
}

// entryCodes names each breach of the entry contract (sim.CheckEntry,
// sim.CheckPriority) as a finding code.
var entryCodes = map[sim.EntryReason]string{
	sim.NoTable:     CodeUndeclaredTable,
	sim.NoAction:    CodeUndeclaredAction,
	sim.NotAllowed:  CodeUndeclaredAction,
	sim.BadShape:    CodeArity,
	sim.BadPriority: CodePriorityRange,
}

// checkEntry reports an entry's first violation of the rules the DPMU
// admits it by: the entry contract, a table the program applies, and a
// parse-path slot its valid() params fit.
func checkEntry(comp *hp4c.Compiled, e Entry) (f Finding, bad bool) {
	f = Finding{Severity: SevError, Table: e.Table, Handle: e.Handle}
	err := sim.CheckEntry(comp.Prog, e.Table, e.Action, e.Params, len(e.Args))
	if err == nil {
		err = sim.CheckPriority(e.Priority)
	}
	slots := comp.Slots[e.Table]
	var ee *sim.EntryError
	switch {
	case errors.As(err, &ee):
		f.Code, f.Detail = entryCodes[ee.Reason], ee.Msg
	case len(slots) == 0:
		f.Code, f.Detail = CodeUndeclaredTable, fmt.Sprintf("program %s reaches table %q on no parse path", comp.Name, e.Table)
	case !slices.ContainsFunc(slots, func(s *hp4c.Slot) bool { return SlotAccepts(comp.Prog.Tables[e.Table], s, e.Params) }):
		f.Code, f.Detail = CodeUnreachable, fmt.Sprintf("entry's valid() constraints match no parse path of table %s", e.Table)
	default:
		return Finding{}, false
	}
	return f, true
}

// SlotAccepts reports whether an entry's valid() params fit a slot's parse
// path: a valid=1 entry cannot live on a path that never extracts the
// header, nor a valid=0 entry on one that does. The DPMU installs an entry
// on the slots it accepts, and verify finds an entry no slot accepts.
func SlotAccepts(tbl *ast.Table, slot *hp4c.Slot, params []sim.MatchParam) bool {
	for i, r := range tbl.Reads {
		if r.Match == ast.MatchValid && params[i].ValidWant != slot.Path.Valid[r.Header.Instance] {
			return false
		}
	}
	return true
}

// checkShadow reports entries that can never win a lookup in one table.
// Precedence mirrors the DPMU's translation: effective priority is the
// bmv2 priority (lower wins) plus hp4c.PrefixPriority (§5.3's
// ternary-with-managed-priorities scheme). A shadows B when A covers B's
// entire match space and A precedes B: a lower effective priority, or an
// equal one and an earlier install (the earlier handle, then the earlier
// position in a proposed batch). Ties go to install order, not to mask
// specificity, in both the persona and a native switch.
func checkShadow(comp *hp4c.Compiled, table string, entries []Entry) []Finding {
	if len(entries) < 2 {
		return nil
	}
	reads, _ := sim.TableReads(comp.Prog, table)
	tbl := comp.Prog.Tables[table]
	eff := func(e Entry) int { return e.Priority + hp4c.PrefixPriority(comp.Prog, tbl, e.Params) }
	var out []Finding
	for bi := range entries {
		b := entries[bi]
		for ai := range entries {
			if ai == bi {
				continue
			}
			a := entries[ai]
			if !coversAll(a.Params, b.Params, reads) {
				continue
			}
			ea, eb := eff(a), eff(b)
			earlier := a.Handle < b.Handle || (a.Handle == b.Handle && ai < bi)
			if ea < eb || (ea == eb && earlier) {
				out = append(out, Finding{
					Code: CodeShadowed, Severity: SevError, Table: table, Handle: b.Handle,
					Detail: fmt.Sprintf("entry is fully covered by higher-precedence entry %d (priority %d vs %d) and can never match", a.Handle, ea, eb),
				})
				break // one shadow finding per entry
			}
		}
	}
	return out
}

// coversAll reports whether entry A's match space contains entry B's: every
// packet matching B also matches A, read by read.
func coversAll(a, b []sim.MatchParam, reads []sim.ReadSpec) bool {
	for i := range a {
		if !covers(a[i], b[i], reads[i].Width) {
			return false
		}
	}
	return true
}

// covers reports containment for one read pair of the same match kind.
func covers(a, b sim.MatchParam, width int) bool {
	switch a.Kind {
	case ast.MatchExact:
		return a.Value.EqualBits(b.Value)
	case ast.MatchTernary:
		// A's constrained bits must be a subset of B's, agreeing on value.
		am, bm := a.Mask.Big(), b.Mask.Big()
		if new(big.Int).AndNot(am, bm).Sign() != 0 {
			return false
		}
		av := new(big.Int).And(a.Value.Big(), am)
		bv := new(big.Int).And(b.Value.Big(), am)
		return av.Cmp(bv) == 0
	case ast.MatchLPM:
		if a.PrefixLen > b.PrefixLen {
			return false
		}
		if a.PrefixLen == 0 {
			return true
		}
		m := bitfield.MaskRange(width, 0, a.PrefixLen)
		return a.Value.Resize(width).And(m).EqualBits(b.Value.Resize(width).And(m))
	case ast.MatchRange:
		return a.Value.Cmp(b.Value) <= 0 && b.Hi.Cmp(a.Hi) <= 0
	case ast.MatchValid:
		return a.ValidWant == b.ValidWant
	}
	return false
}

// sortFindings orders findings deterministically: table, handle, code.
func sortFindings(fs []Finding) {
	sort.SliceStable(fs, func(i, j int) bool {
		if fs[i].Table != fs[j].Table {
			return fs[i].Table < fs[j].Table
		}
		if fs[i].Handle != fs[j].Handle {
			return fs[i].Handle < fs[j].Handle
		}
		return fs[i].Code < fs[j].Code
	})
}
