// Package verify is the static data-plane verifier: it analyzes a compiled
// entry program (hp4c output) and/or a live DPMU snapshot against the
// persona's declared tables and the virtual-network topology, turning whole
// classes of silent runtime misbehavior — shadowed entries, virtual-network
// cycles that burn the pass bound, rows leaking across tenant boundaries —
// into admission-time findings. HyPer4's premise is that a persona plus
// table entries *is* a program, so a bad entry set is a latent data-plane
// bug; this package is the compiler's "type checker" for that program.
//
// The package deliberately depends only on the artifact layers (hp4c,
// persona, sim, ast) and defines its own snapshot input types (Source,
// Device, Link), so the DPMU can import it for load-time checks without a
// cycle. Three surfaces feed it: cmd/hp4lint (offline), the ctl "verify" op
// (dry-run WriteBatch admission), and DPMU.Load.
package verify

import (
	"fmt"
	"sort"
	"strings"

	"hyper4/internal/bitfield"
	"hyper4/internal/core/hp4c"
	"hyper4/internal/core/persona"
	"hyper4/internal/core/persona/rows"
	"hyper4/internal/sim"
)

// Severity grades a finding: errors gate admission (the ctl verify op fails
// the batch), warnings are advisory.
type Severity string

const (
	SevError Severity = "error"
	SevWarn  Severity = "warn"
	// SevInfo findings are purely informational — they never gate admission
	// and never fail lint runs; they explain operational state (e.g. why a
	// vdev is on the interpreted slow path).
	SevInfo Severity = "info"
)

// Finding codes, stable across releases: scripts and tests branch on these,
// never on detail text.
const (
	// CodeUndeclaredTable: an entry names a table the program doesn't
	// declare (or one compiled away as unreachable).
	CodeUndeclaredTable = "undeclared-table"
	// CodeUndeclaredAction: an entry or compiled artifact names an action
	// the program (or persona) doesn't declare.
	CodeUndeclaredAction = "undeclared-action"
	// CodeArity: match params or action args don't line up with the
	// declaration (count or kind).
	CodeArity = "bad-arity"
	// CodeShadowed: an entry can never win a lookup because an
	// earlier/higher-precedence entry covers its entire match space.
	CodeShadowed = "shadowed-entry"
	// CodeUnreachable: an entry lands on no parse path (valid() constraints
	// exclude every slot), or a compiled slot successor dangles.
	CodeUnreachable = "unreachable-entry"
	// CodeVNetCycle: the virtual-link topology contains a device cycle, so
	// a packet can recirculate until the pass bound kills it.
	CodeVNetCycle = "vnet-cycle"
	// CodePassBound: the worst-case chain depth (parse resubmits plus link
	// recirculations) exceeds the pipeline pass bound.
	CodePassBound = "pass-bound"
	// CodeForeignPID: a persona row in a program-keyed table carries a
	// program ID no loaded device owns, or one its owner doesn't track —
	// the cross-tenant isolation invariant of §4.5.
	CodeForeignPID = "foreign-pid"
	// CodeParseBytes: a parse requirement exceeds the persona's ParseMax
	// or requests a byte count off the ParseStep grid.
	CodeParseBytes = "parse-bytes"
	// CodePersona: the compiled artifact references a persona table/action
	// shape the persona configuration doesn't declare (hp4c.Validate).
	CodePersona = "persona-decl"
	// CodeUnfusable: informational — a vdev (or one of its constructs) is
	// not served by the fused fast path and stays interpreted; the detail
	// says which construct blocks fusion and why.
	CodeUnfusable = "unfusable"
	// CodeProveDiverge: the symbolic equivalence prover found a region of
	// the input space where the native program and its persona emulation
	// disagree (route, drop fate, or final wire image). Error severity
	// means the divergence was confirmed by replaying the witness packet
	// through both concrete paths; warn severity means the witness replay
	// could not confirm it (model imprecision or no replay harness).
	CodeProveDiverge = "prove-diverge"
	// CodeProveInconclusive: the prover could not decide a region — an
	// unmodelable construct, a witness-search budget exhaustion, or a
	// divergent summary whose replay agreed. The equivalence claim
	// excludes these regions.
	CodeProveInconclusive = "prove-inconclusive"
	// CodeFuseChainDepth: informational — a vdev's fused plan was refused
	// at build time because the worst-case pass count of its chained plans
	// (parse resubmissions, link recirculations, multicast clones) would
	// exceed the pipeline pass bound, or its virtual links form a cycle.
	// Such packets stay interpreted so the interpreter's pass-bound fault
	// fires exactly as without fusion.
	CodeFuseChainDepth = "fuse-chain-depth"
)

// Finding is one verification result.
type Finding struct {
	Code     string   `json:"code"`
	Severity Severity `json:"severity"`
	VDev     string   `json:"vdev,omitempty"`
	Table    string   `json:"table,omitempty"`
	Handle   int      `json:"handle,omitempty"`
	Detail   string   `json:"detail"`
}

func (f Finding) String() string {
	var b strings.Builder
	b.WriteString(string(f.Severity))
	b.WriteString(" [")
	b.WriteString(f.Code)
	b.WriteString("]")
	if f.VDev != "" {
		b.WriteString(" ")
		b.WriteString(f.VDev)
	}
	if f.Table != "" {
		b.WriteString(" ")
		b.WriteString(f.Table)
		if f.Handle != 0 {
			fmt.Fprintf(&b, "#%d", f.Handle)
		}
	}
	b.WriteString(": ")
	b.WriteString(f.Detail)
	return b.String()
}

// HasErrors reports whether any finding is error-severity (the admission
// gate: warnings never fail a batch).
func HasErrors(fs []Finding) bool {
	for _, f := range fs {
		if f.Severity == SevError {
			return true
		}
	}
	return false
}

// Entry is one virtual table entry, installed or proposed, in the emulated
// program's own dialect (the same shape as dpmu.EntrySpec plus the handle).
type Entry struct {
	Handle   int
	Table    string
	Action   string
	Params   []sim.MatchParam
	Args     []bitfield.Value
	Priority int
}

// Row identifies one persona row a device owns (for tenant cross-checks
// against a raw switch dump).
type Row struct {
	Table  string
	Handle int
}

// Device is one loaded virtual device as the verifier sees it.
type Device struct {
	Name    string
	PID     int
	Comp    *hp4c.Compiled
	Entries []Entry
	Rows    []Row
}

// Link is one directed virtual link (device A's virtual egress port wired
// into device B's virtual ingress).
type Link struct {
	FromDev  string
	FromPort int
	ToDev    string
	ToPort   int
}

// Source is a verification snapshot: the persona configuration, the loaded
// devices with their virtual entries and tracked persona rows, the
// virtual-link topology, and (optionally) a raw switch dump for tenant
// checks. The DPMU exports one via VerifySource; offline tools build their
// own.
type Source struct {
	Cfg persona.Config
	// PassBound is the pipeline pass budget chains are checked against
	// (0 = sim.MaxPasses).
	PassBound int
	Devices   []Device
	Links     []Link
	Dump      *sim.SwitchDump
}

// Check runs the full verifier over a snapshot: per-device program and
// entry checks, topology analysis, and (when a dump is present) tenant
// isolation. Findings are ordered deterministically.
func Check(src *Source) []Finding {
	var out []Finding
	for i := range src.Devices {
		d := &src.Devices[i]
		for _, f := range Program(d.Comp) {
			f.VDev = d.Name
			out = append(out, f)
		}
		for _, f := range Entries(d.Comp, d.Entries) {
			f.VDev = d.Name
			out = append(out, f)
		}
	}
	out = append(out, checkTopology(src)...)
	if src.Dump != nil {
		out = append(out, checkTenancy(src)...)
		out = append(out, checkParseRows(src)...)
	}
	return out
}

// checkTopology detects virtual-network cycles and bounds the worst-case
// chain depth. Each device costs 1 pipeline pass plus one resubmission per
// parse-more hop on its deepest parse chain; crossing a link recirculates
// into the next device's first pass, so a chain's cost is the sum of its
// devices' costs. A cycle makes the depth unbounded (the pass bound is what
// finally kills the packet), so it is reported as its own finding and depth
// analysis skips the devices on it.
func checkTopology(src *Source) []Finding {
	if len(src.Devices) == 0 {
		return nil
	}
	cost := map[string]int{}
	for i := range src.Devices {
		d := &src.Devices[i]
		cost[d.Name] = 1 + parseDepth(d.Comp)
	}
	adj := map[string][]string{}
	for _, l := range src.Links {
		adj[l.FromDev] = appendUnique(adj[l.FromDev], l.ToDev)
	}
	for _, ds := range adj {
		sort.Strings(ds)
	}

	var out []Finding
	// Cycle detection: iterative DFS with colors, deterministic over sorted
	// device names. Every device on a cycle is remembered so the depth walk
	// below can skip it (its depth is unbounded by definition).
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := map[string]int{}
	onCycle := map[string]bool{}
	var stack []string
	var dfs func(n string)
	dfs = func(n string) {
		color[n] = gray
		stack = append(stack, n)
		for _, m := range adj[n] {
			switch color[m] {
			case white:
				dfs(m)
			case gray:
				// Back edge: the cycle is the stack suffix from m.
				start := 0
				for i, s := range stack {
					if s == m {
						start = i
						break
					}
				}
				cyc := append(append([]string(nil), stack[start:]...), m)
				already := true
				for _, s := range cyc {
					if !onCycle[s] {
						already = false
					}
					onCycle[s] = true
				}
				if !already {
					out = append(out, Finding{
						Code: CodeVNetCycle, Severity: SevError,
						Detail: fmt.Sprintf("virtual links form a cycle: %s (packets recirculate until the pass bound drops them)", strings.Join(cyc, " -> ")),
					})
				}
			}
		}
		stack = stack[:len(stack)-1]
		color[n] = black
	}
	names := make([]string, 0, len(src.Devices))
	for i := range src.Devices {
		names = append(names, src.Devices[i].Name)
	}
	sort.Strings(names)
	for _, n := range names {
		if color[n] == white {
			dfs(n)
		}
	}

	// Worst-case chain depth over the acyclic remainder: longest path in
	// passes, memoized. depth(n) = cost(n) + max depth(successor).
	bound := src.PassBound
	if bound <= 0 {
		bound = sim.MaxPasses
	}
	depth := map[string]int{}
	tail := map[string]string{}
	var walk func(n string) int
	walk = func(n string) int {
		if d, ok := depth[n]; ok {
			return d
		}
		d := cost[n]
		if d == 0 {
			d = 1 // linked but unloaded device: count its pass conservatively
		}
		depth[n] = d // pre-set: cycles through skipped nodes terminate
		best := 0
		for _, m := range adj[n] {
			if onCycle[m] {
				continue
			}
			if w := walk(m); w > best {
				best = w
				tail[n] = m
			}
		}
		depth[n] = d + best
		return depth[n]
	}
	worst, worstDev := 0, ""
	for _, n := range names {
		if onCycle[n] {
			continue
		}
		if d := walk(n); d > worst {
			worst, worstDev = d, n
		}
	}
	if worst > bound {
		chain := []string{worstDev}
		for n := worstDev; tail[n] != ""; n = tail[n] {
			chain = append(chain, tail[n])
		}
		out = append(out, Finding{
			Code: CodePassBound, Severity: SevError,
			Detail: fmt.Sprintf("worst-case chain %s needs %d pipeline passes, pass bound is %d", strings.Join(chain, " -> "), worst, bound),
		})
	}
	return out
}

// parseDepth returns the deepest chain of parse-more resubmissions in a
// compiled program: each a_parse_more row costs one extra pipeline pass
// before the stage pass runs.
func parseDepth(comp *hp4c.Compiled) int {
	if comp == nil {
		return 0
	}
	more := map[int][]int{}
	for _, pe := range comp.ParseEntries {
		if pe.More {
			more[pe.State] = append(more[pe.State], pe.NextState)
		}
	}
	seen := map[int]bool{}
	var deepest func(state int) int
	deepest = func(state int) int {
		if seen[state] { // defensive: compiler output has no state cycles
			return 0
		}
		seen[state] = true
		best := 0
		for _, next := range more[state] {
			if d := 1 + deepest(next); d > best {
				best = d
			}
		}
		seen[state] = false
		return best
	}
	return deepest(0)
}

// pidKeyedTables returns the persona tables whose first match param is the
// program ID — the tables the tenant-isolation invariant covers. t_assign is
// excluded: its rows are operator-owned (the PID travels in the args).
func pidKeyedTables(cfg persona.Config) map[string]bool {
	tables := map[string]bool{
		persona.TblParseCtrl: true,
		persona.TblVirtnet:   true,
		persona.TblCsum:      true,
	}
	kinds := []int{persona.NTEDExact, persona.NTEDTernary, persona.NTMetaExact, persona.NTMetaTernary, persona.NTStdMeta, persona.NTMatchless}
	for s := 1; s <= cfg.Stages; s++ {
		for _, k := range kinds {
			tables[persona.StageTable(s, persona.KindName(k))] = true
		}
		for p := 1; p <= cfg.Primitives; p++ {
			tables[persona.PrimTable(s, p, "prep")] = true
		}
	}
	return tables
}

// checkTenancy scans the raw persona dump: every row in a program-keyed
// table must carry the PID of a loaded device, and must be tracked by that
// device's bookkeeping — a row neither minted by the DPMU nor owned by its
// PID's device is a cross-tenant write (§4.5's isolation property, checked
// from the outside in).
func checkTenancy(src *Source) []Finding {
	keyed := pidKeyedTables(src.Cfg)
	owner := map[uint64]string{}
	tracked := map[Row]string{}
	for i := range src.Devices {
		d := &src.Devices[i]
		owner[uint64(d.PID)] = d.Name
		for _, r := range d.Rows {
			tracked[r] = d.Name
		}
	}
	var out []Finding
	tables := make([]string, 0, len(src.Dump.Tables))
	for name := range src.Dump.Tables {
		if keyed[name] {
			tables = append(tables, name)
		}
	}
	sort.Strings(tables)
	for _, name := range tables {
		for _, e := range src.Dump.Tables[name].Entries {
			if len(e.Params) == 0 || e.Params[0].Kind != "exact" || e.Params[0].Value.Width() != persona.ProgramWidth {
				continue
			}
			pid := e.Params[0].Value.Uint64()
			dev, known := owner[pid]
			if !known {
				out = append(out, Finding{
					Code: CodeForeignPID, Severity: SevError, Table: name, Handle: e.Handle,
					Detail: fmt.Sprintf("row carries program ID %d, which no loaded device owns", pid),
				})
				continue
			}
			if got := tracked[Row{Table: name, Handle: e.Handle}]; got != dev {
				detail := fmt.Sprintf("row carries device %s's program ID %d but is not tracked by its bookkeeping", dev, pid)
				if got != "" {
					detail = fmt.Sprintf("row carries device %s's program ID %d but is tracked by device %s", dev, pid, got)
				}
				out = append(out, Finding{
					Code: CodeForeignPID, Severity: SevError, VDev: dev, Table: name, Handle: e.Handle,
					Detail: detail,
				})
			}
		}
	}
	return out
}

// checkParseRows validates the live parse-control rows against the parse
// grid: an a_parse_more row requesting more than ParseMax bytes (or a count
// off the ParseStep grid) would loop or over-extract at runtime.
func checkParseRows(src *Source) []Finding {
	td, ok := src.Dump.Tables[persona.TblParseCtrl]
	if !ok {
		return nil
	}
	var out []Finding
	for _, e := range td.Entries {
		// A request off the grid decodes to the default window instead.
		pr, err := rows.ParseAction(src.Cfg, e.Action, e.Args)
		if err == nil && pr.More && pr.Bytes != pr.Window {
			out = append(out, Finding{
				Code: CodeParseBytes, Severity: SevError, Table: persona.TblParseCtrl, Handle: e.Handle,
				Detail: fmt.Sprintf("parse-more row requests %d bytes; persona supports multiples of %d up to %d (first pass %d)", pr.Bytes, src.Cfg.ParseStep, src.Cfg.ParseMax, src.Cfg.ParseDefault),
			})
		}
	}
	return out
}

func appendUnique(s []string, v string) []string {
	for _, x := range s {
		if x == v {
			return s
		}
	}
	return append(s, v)
}
