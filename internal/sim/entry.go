package sim

import (
	"fmt"
	"slices"

	"hyper4/internal/p4/ast"
	"hyper4/internal/p4/hlir"
)

// MaxPriority bounds a caller's priority to [0, MaxPriority]: the DPMU adds
// it to its own path band. The entry parser, the DPMU and verify check it;
// Tx.TableAdd does not, as the DPMU's persona rows span 32 bands.
const MaxPriority = 1<<16 - 1

// EntryReason names the rule of the entry contract an entry breaks.
type EntryReason uint8

const (
	NoTable     EntryReason = iota + 1 // the program declares or applies no such table
	NoAction                           // the program declares no such action
	NotAllowed                         // the table does not list the action
	BadShape                           // param count, kind, width or prefix, or arg count
	BadPriority                        // priority outside [0, MaxPriority]
)

// EntryError is an entry the program's table does not admit.
type EntryError struct {
	Reason EntryReason
	Msg    string
}

func (e *EntryError) Error() string { return "sim: " + e.Msg }

// Undeclared reports whether the entry names a table or action the program
// lacks, which the control plane reports as NOT_FOUND.
func (e *EntryError) Undeclared() bool { return e.Reason == NoTable || e.Reason == NoAction }

func entryErr(r EntryReason, format string, a ...any) error {
	return &EntryError{Reason: r, Msg: fmt.Sprintf(format, a...)}
}

// ReadSpec describes one match key of a table: its kind and bit width.
type ReadSpec struct {
	Kind  ast.MatchKind
	Width int
}

// TableReads returns the match key specification of prog's table.
func TableReads(prog *hlir.Program, table string) ([]ReadSpec, error) {
	t, ok := prog.Tables[table]
	if !ok {
		return nil, entryErr(NoTable, "no table %q", table)
	}
	out := make([]ReadSpec, len(t.Reads))
	for i, r := range t.Reads {
		out[i] = ReadSpec{Kind: r.Match, Width: 1} // a valid() read
		if r.Field != nil {
			out[i].Width, _ = prog.FieldWidth(*r.Field) // hlir.Resolve checked it
		}
	}
	return out, nil
}

// ActionArity returns how many arguments prog's action takes.
func ActionArity(prog *hlir.Program, action string) (int, error) {
	a, ok := prog.Actions[action]
	if !ok {
		return 0, entryErr(NoAction, "no action %q", action)
	}
	return len(a.Params), nil
}

// CheckAction admits an action into a table, as a default or an entry's:
// both are declared, the control flow applies the table, the table lists
// the action, and it takes nargs args.
func CheckAction(prog *hlir.Program, table, action string, nargs int) error {
	want, err := ActionArity(prog, action)
	t, ok := prog.Tables[table]
	switch {
	case !ok:
		return entryErr(NoTable, "no table %q", table)
	case !prog.Applied[table]:
		return entryErr(NoTable, "program never applies table %q", table)
	case err != nil:
		return err
	case !slices.Contains(t.Actions, action):
		return entryErr(NotAllowed, "table %s does not allow action %q", table, action)
	case nargs != want:
		return entryErr(BadShape, "action %s wants %d args, got %d", action, want, nargs)
	}
	return nil
}

// CheckEntry is the entry contract: whether a table admits a control-plane
// entry. Native table ops, the DPMU, ctl and verify all call it, and map an
// *EntryError's Reason onto their own codes. It is CheckAction, and params
// that line up with the table's reads in number, match kind and width, with
// an LPM prefix no longer than its read; a table without reads takes only a
// default action. CheckPriority is apart.
func CheckEntry(prog *hlir.Program, table, action string, params []MatchParam, nargs int) error {
	if err := CheckAction(prog, table, action, nargs); err != nil {
		return err
	}
	reads, _ := TableReads(prog, table)
	return checkParams(table, reads, params)
}

// checkParams is CheckEntry's half over the reads, which a switch computes
// once per table.
func checkParams(table string, reads []ReadSpec, params []MatchParam) error {
	switch {
	case len(reads) == 0:
		return entryErr(BadShape, "table %s has no reads; set its default action", table)
	case len(params) != len(reads):
		return entryErr(BadShape, "table %s wants %d match params, got %d", table, len(reads), len(params))
	}
	for i, p := range params {
		r := reads[i]
		switch {
		case p.Kind != r.Kind:
			return entryErr(BadShape, "table %s param %d is %s, entry has %s", table, i, r.Kind, p.Kind)
		case p.Kind != ast.MatchValid && p.Value.Width() != r.Width:
			return entryErr(BadShape, "table %s param %d width %d, want %d", table, i, p.Value.Width(), r.Width)
		case p.Kind == ast.MatchLPM && (p.PrefixLen < 0 || p.PrefixLen > r.Width):
			return entryErr(BadShape, "table %s param %d prefix %d outside [0, %d]", table, i, p.PrefixLen, r.Width)
		}
	}
	return nil
}

// CheckPriority admits a caller's priority in [0, MaxPriority].
func CheckPriority(priority int) error {
	if priority < 0 || priority > MaxPriority {
		return entryErr(BadPriority, "priority %d outside [0, %d]", priority, MaxPriority)
	}
	return nil
}
