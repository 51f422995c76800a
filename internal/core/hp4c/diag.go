package hp4c

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"hyper4/internal/core/persona"
)

// Compile-time persona-compatibility validation: every persona table and
// action a compiled artifact will drive at install time is checked against
// the tables and actions the configured persona actually generates, so a
// compiler/persona drift (a renamed prep action, a stage table the smaller
// persona doesn't have, a primitive arity change) fails the compile with a
// structured diagnostic instead of surfacing as an install-time rejection
// deep inside a management script.

// Diagnostic is one structured persona-compatibility finding: the program,
// the artifact entry it concerns (slot, action, parse entry), a stable code
// ("undeclared-table", "undeclared-action", "bad-arity"), and a message.
type Diagnostic struct {
	Program string `json:"program"`
	Entry   string `json:"entry"`
	Code    string `json:"code"`
	Msg     string `json:"msg"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s [%s]: %s", d.Program, d.Entry, d.Code, d.Msg)
}

// DiagError is the compile failure carrying every diagnostic found.
type DiagError struct {
	Program string
	Diags   []Diagnostic
}

func (e *DiagError) Error() string {
	if len(e.Diags) == 1 {
		return fmt.Sprintf("hp4c %s: %s", e.Program, e.Diags[0])
	}
	var b strings.Builder
	fmt.Fprintf(&b, "hp4c %s: %d persona-compatibility diagnostics:", e.Program, len(e.Diags))
	for _, d := range e.Diags {
		b.WriteString("\n\t")
		b.WriteString(d.String())
	}
	return b.String()
}

// declIndex is the persona's declaration surface for one configuration: the
// tables it generates and each action's parameter count.
type declIndex struct {
	tables  map[string]bool
	actions map[string]int
}

// declCache memoizes declIndex per persona.Config: generating the persona
// just to read its declarations costs about 1.5 ms per Compile, a
// chain_chan cold start compiles three programs, and tests compile many
// against the same Reference config.
var declCache sync.Map // persona.Config -> *declIndex

func declsFor(cfg persona.Config) (*declIndex, error) {
	if v, ok := declCache.Load(cfg); ok {
		return v.(*declIndex), nil
	}
	p, err := persona.Generate(cfg)
	if err != nil {
		return nil, fmt.Errorf("hp4c: generating persona for validation: %w", err)
	}
	idx := &declIndex{tables: map[string]bool{}, actions: map[string]int{}}
	for name := range p.Program.Tables {
		idx.tables[name] = true
	}
	for name, a := range p.Program.Actions {
		idx.actions[name] = len(a.Params)
	}
	declCache.Store(cfg, idx)
	return idx, nil
}

// Validate checks a compiled artifact against the persona declarations for
// its configuration and returns every mismatch. Compile runs it as its
// final step and refuses to emit a failing artifact; external callers
// (internal/core/verify, cmd/hp4lint) run it over artifacts of unknown
// provenance.
func Validate(comp *Compiled) []Diagnostic {
	idx, err := declsFor(comp.Cfg)
	if err != nil {
		return []Diagnostic{{Program: comp.Name, Entry: "persona", Code: "undeclared-table", Msg: err.Error()}}
	}
	var out []Diagnostic
	add := func(entry, code, format string, a ...any) {
		out = append(out, Diagnostic{Program: comp.Name, Entry: entry, Code: code, Msg: fmt.Sprintf(format, a...)})
	}
	wantTable := func(entry, table string) {
		if !idx.tables[table] {
			add(entry, "undeclared-table", "persona declares no table %q", table)
		}
	}
	wantAction := func(entry, action string, args int) {
		got, ok := idx.actions[action]
		if !ok {
			add(entry, "undeclared-action", "persona declares no action %q", action)
			return
		}
		if got != args {
			add(entry, "bad-arity", "persona action %s takes %d args, artifact installs %d", action, got, args)
		}
	}

	if len(comp.ParseEntries) > 0 {
		wantTable("parse", persona.TblParseCtrl)
	}
	for i, pe := range comp.ParseEntries {
		entry := fmt.Sprintf("parse entry %d", i)
		if pe.More {
			wantAction(entry, persona.ActParseMore, 2)
		} else {
			wantAction(entry, persona.ActParseDone, 3)
		}
	}
	if comp.NeedsIPv4Csum {
		wantTable("checksum", persona.TblCsum)
		wantAction("checksum", persona.ActIPv4Csum, 3)
	}
	for _, slot := range comp.SlotList {
		entry := fmt.Sprintf("%s slot %d", slot.Table, slot.ID)
		wantTable(entry, persona.StageTable(slot.Stage, persona.KindName(slot.Kind)))
		wantAction(entry, persona.ActSetMatch, 4)
		// Every action this slot dispatches on installs one prep row per
		// primitive at this stage.
		actions := make([]string, 0, len(slot.Next))
		for name := range slot.Next {
			actions = append(actions, name)
		}
		sort.Strings(actions)
		for _, name := range actions {
			ca := comp.Actions[name]
			if ca == nil {
				continue // reported by the verifier's artifact checks
			}
			for p, spec := range ca.Prims {
				op, known := persona.OpcodeOf(spec.Op)
				if !known {
					add(entry, "undeclared-action", "action %s primitive %d uses opcode %d, which maps to no persona prep action", name, p, spec.Op)
					continue
				}
				wantTable(entry, persona.PrimTable(slot.Stage, p+1, "prep"))
				wantAction(entry, "a_prep_"+op.Name, op.Arity)
			}
		}
	}
	// One diagnostic per distinct (entry, code, msg): slots repeat per path.
	seen := map[Diagnostic]bool{}
	dedup := out[:0]
	for _, d := range out {
		if !seen[d] {
			seen[d] = true
			dedup = append(dedup, d)
		}
	}
	return dedup
}
