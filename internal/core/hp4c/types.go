// Package hp4c implements the HyPer4 compiler: it translates a target P4
// program (HLIR) into the artifacts needed to emulate it on the persona —
// the parse-control entries, the per-table stage slots with their control
// flow successors, and per-action primitive specifications with runtime
// parameter slots.
//
// The paper describes the compiler as work in progress (§5.2) and drives the
// persona with hand-written command files; this package is the natural
// completion of that design.
package hp4c

import (
	"math/big"

	"hyper4/internal/core/persona"
	"hyper4/internal/p4/ast"
	"hyper4/internal/p4/hlir"
	"hyper4/internal/sim"
)

// Compiled is the compilation artifact for one target program. It is
// program-ID-independent: the DPMU instantiates it for a concrete virtual
// device at load time (mirroring the paper's load-time token substitution,
// §5.2).
type Compiled struct {
	Name string
	Cfg  persona.Config
	Prog *hlir.Program

	// HeaderOffsets maps each header instance to its byte offset in the
	// packet (and hence in the persona's extracted-data field). A header
	// must sit at the same offset on every parse path.
	HeaderOffsets map[string]int
	// MetaOffsets maps each metadata instance to its bit offset within the
	// persona's emulated-metadata field.
	MetaOffsets map[string]int

	// Paths are the parse paths (terminal walks of the parse graph).
	Paths []*ParsePath
	// ParseEntries drive the persona's t_parse_ctrl table.
	ParseEntries []ParseEntry

	// Slots maps each target table to its persona stage slots (one per
	// (stage, parse path) the table can execute on).
	Slots map[string][]*Slot
	// SlotList preserves creation order for deterministic output.
	SlotList []*Slot

	// Actions are the compiled actions of the target program.
	Actions map[string]*CompiledAction

	// MaxBytes is the largest (rounded) parse requirement of any path.
	MaxBytes int
	// NeedsIPv4Csum is set when the target declares an IPv4-checksum
	// calculated field the persona must reproduce at egress (§5.3 "cheat").
	NeedsIPv4Csum bool
	// CsumHeader is the IPv4 header instance whose checksum is updated.
	CsumHeader string
}

// Constraint is one ternary constraint over the extracted-data field.
type Constraint struct {
	BitOff int
	Width  int
	Value  *big.Int
	Mask   *big.Int // nil = exact over the width
}

// ParsePath is one terminal walk of the target's parse graph.
type ParsePath struct {
	ID          int
	Constraints []Constraint    // accumulated select constraints
	Valid       map[string]bool // header instances extracted on this path
	RawBytes    int             // exact bytes the path parses
	Bytes       int             // rounded to the persona's grid
	// First identifies the first table slot applied on this path
	// (Kind==persona.NTDone when the path applies no tables), carried by
	// the path's a_parse_done entry.
	First Succ
	// Csum is set when the checksum fix-up applies on this path.
	Csum bool
}

// ParseEntry is one row for the persona's t_parse_ctrl table.
type ParseEntry struct {
	State       int // hp4.parse_state match value
	Constraints []Constraint
	Priority    int

	// More-bytes rows resubmit; done rows prime stage 1.
	More      bool
	NumBytes  int // a_parse_more arg
	NextState int // a_parse_more arg

	Path *ParsePath // for done rows
}

// Succ identifies the next stage slot to execute: the stage-table kind the
// persona control flow dispatches on, plus the slot ID its entries match
// (hp4.next_slot). Kind == persona.NTDone ends stage emulation.
type Succ struct {
	Kind int
	ID   int
}

// Slot is one placement of a target table at a persona stage on one parse
// path. Runtime entries for the table are replicated across its slots, each
// carrying the slot's ID in its match (hp4.next_slot) and the slot's
// parse-path constraints folded into the wide mask. The slot ID is what
// keeps two emulated tables of the same match kind at the same stage (e.g.
// the ARP proxy's arp_resp and smac) from capturing each other's traffic.
type Slot struct {
	Table string
	Stage int
	ID    int // unique within the compiled program; matched as hp4.next_slot
	Path  *ParsePath
	Kind  int // persona.NT* code: which stage table the entries live in

	// Next maps action name → the successor primed when that action's
	// entry matches.
	Next map[string]Succ
	// Miss is the successor for the table's default action (driving the
	// per-slot catch-all entry).
	Miss Succ
	// MissAction is the default action run on a miss ("" = none).
	MissAction string

	missSet bool
}

// PrimSpec is one compiled primitive of an action: the opcode plus
// destination/source geometry. Constant operands are fixed here; operands
// bound to action parameters carry the parameter index for the DPMU to fill
// at entry-install time.
type PrimSpec struct {
	Op int

	DstOff, DstW int // bit geometry within extracted or emeta
	SrcOff, SrcW int

	Const    *big.Int // nil when the operand is a runtime argument
	ArgIndex int      // action parameter index; -1 when Const is set
	Negate   bool     // subtract_from_field: install 2^DstW - value
}

// CompiledAction is a target action lowered to persona primitive specs.
type CompiledAction struct {
	Name   string
	Params []string
	Prims  []PrimSpec
}

// PrefixPriority is the persona's precedence term for an entry of prog's
// table tbl: Σ(width − prefixLen) over its LPM reads. The persona matches
// LPM keys as ternary (§5.3: "the DPMU identify and manage the priorities
// of match entries"), so the DPMU adds this term to each translated row's
// priority and a longer prefix wins; verify's shadow analysis adds it to
// each entry's priority to order entries as the persona will.
func PrefixPriority(prog *hlir.Program, tbl *ast.Table, params []sim.MatchParam) int {
	n := 0
	for i, r := range tbl.Reads {
		if r.Match == ast.MatchLPM {
			w, _ := prog.FieldWidth(*r.Field) // hlir.Resolve checked it
			n += w - params[i].PrefixLen
		}
	}
	return n
}
