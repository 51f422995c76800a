package verify

import (
	"fmt"
	"math/big"
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
		f, ok := checkEntry(comp, e)
		if !ok {
			out = append(out, f...)
			continue
		}
		out = append(out, f...)
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

// checkEntry validates one entry's declarations. ok reports whether the
// entry is well-formed enough to participate in shadow analysis.
func checkEntry(comp *hp4c.Compiled, e Entry) (fs []Finding, ok bool) {
	slots := comp.Slots[e.Table]
	if len(slots) == 0 {
		return []Finding{{
			Code: CodeUndeclaredTable, Severity: SevError, Table: e.Table, Handle: e.Handle,
			Detail: fmt.Sprintf("program %s has no (reachable) table %q", comp.Name, e.Table),
		}}, false
	}
	tbl := comp.Prog.Tables[e.Table]
	if len(e.Params) != len(tbl.Reads) {
		return []Finding{{
			Code: CodeArity, Severity: SevError, Table: e.Table, Handle: e.Handle,
			Detail: fmt.Sprintf("table %s wants %d match params, entry has %d", e.Table, len(tbl.Reads), len(e.Params)),
		}}, false
	}
	for i, r := range tbl.Reads {
		if e.Params[i].Kind != r.Match {
			fs = append(fs, Finding{
				Code: CodeArity, Severity: SevError, Table: e.Table, Handle: e.Handle,
				Detail: fmt.Sprintf("match param %d is %s, table read is %s", i, e.Params[i].Kind, r.Match),
			})
		}
	}
	ca, declared := comp.Actions[e.Action]
	if !declared {
		fs = append(fs, Finding{
			Code: CodeUndeclaredAction, Severity: SevError, Table: e.Table, Handle: e.Handle,
			Detail: fmt.Sprintf("program %s has no action %q", comp.Name, e.Action),
		})
	} else if len(e.Args) != len(ca.Params) {
		fs = append(fs, Finding{
			Code: CodeArity, Severity: SevError, Table: e.Table, Handle: e.Handle,
			Detail: fmt.Sprintf("action %s wants %d args, entry has %d", e.Action, len(ca.Params), len(e.Args)),
		})
	}
	if len(fs) > 0 {
		return fs, false
	}
	// Reachability: a valid()-matching entry must land on at least one
	// parse-path slot (mirrors the DPMU's slot filter, which would reject
	// the install at runtime; here it is an admission finding).
	reachable := false
	for _, slot := range slots {
		accepts := true
		for i, r := range tbl.Reads {
			if r.Match != ast.MatchValid {
				continue
			}
			if e.Params[i].ValidWant != slot.Path.Valid[r.Header.Instance] {
				accepts = false
				break
			}
		}
		if accepts {
			reachable = true
			break
		}
	}
	if !reachable {
		return []Finding{{
			Code: CodeUnreachable, Severity: SevError, Table: e.Table, Handle: e.Handle,
			Detail: fmt.Sprintf("entry's valid() constraints match no parse path of table %s", e.Table),
		}}, false
	}
	return nil, true
}

// checkShadow reports entries that can never win a lookup in one table.
// Precedence mirrors the DPMU's translation: effective priority is the
// bmv2 priority (lower wins) plus, per LPM read, width−prefixLen (§5.3's
// ternary-with-managed-priorities scheme). A shadows B when A covers B's
// entire match space and A precedes B: a lower effective priority, or an
// equal one and an earlier install (the earlier handle, then the earlier
// position in a proposed batch). Ties go to install order, not to mask
// specificity, in both the persona and a native switch.
func checkShadow(comp *hp4c.Compiled, table string, entries []Entry) []Finding {
	if len(entries) < 2 {
		return nil
	}
	tbl := comp.Prog.Tables[table]
	widths := make([]int, len(tbl.Reads))
	for i, r := range tbl.Reads {
		widths[i] = 1
		if r.Field != nil {
			if w, err := comp.Prog.FieldWidth(*r.Field); err == nil {
				widths[i] = w
			}
		}
	}
	eff := func(e Entry) int {
		p := e.Priority
		for i, r := range tbl.Reads {
			if r.Match == ast.MatchLPM {
				p += widths[i] - e.Params[i].PrefixLen
			}
		}
		return p
	}
	var out []Finding
	for bi := range entries {
		b := entries[bi]
		for ai := range entries {
			if ai == bi {
				continue
			}
			a := entries[ai]
			if !coversAll(a.Params, b.Params, widths) {
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
func coversAll(a, b []sim.MatchParam, widths []int) bool {
	for i := range a {
		if !covers(a[i], b[i], widths[i]) {
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
