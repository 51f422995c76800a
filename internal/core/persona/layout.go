// Package persona generates the HyPer4 persona: the P4 program that, once
// loaded on a P4 target, can be configured through table entries to emulate
// other P4 programs (§4 of the paper).
//
// The generator plays the role of the paper's 900-line Python configuration
// script (§5.1): given a Config (number of emulated match-action stages,
// primitives per compound action, and parse-byte granularity) it emits real
// P4_14 source — parsed by our own front end and executed by internal/sim —
// plus the base table entries that wire the persona's fixed machinery
// (primitive dispatch, byte normalization, write-back).
package persona

// Config parameterizes persona generation, mirroring §5.1's configurable
// parameters.
type Config struct {
	// Stages is the maximum number of match-action stages the persona can
	// emulate (the paper's evaluation configuration uses 4).
	Stages int
	// Primitives is the maximum number of primitives per compound action
	// (the paper uses 9 — the ARP proxy's reply action needs all of them).
	Primitives int
	// ParseDefault, ParseStep, ParseMax set the bytes the persona can
	// extract: the first pass takes ParseDefault bytes, and the
	// parse-control table can request any multiple of ParseStep up to
	// ParseMax via resubmission (the paper uses 20/10/100).
	ParseDefault int
	ParseStep    int
	ParseMax     int
	// FixedParser selects partial virtualization (§7.1, Figure 9(c)): a
	// directly-implemented Ethernet/ARP/IPv4/TCP/UDP parser replaces the
	// programmable byte-stack parser, eliminating parse resubmissions at
	// the cost of fixing the supported header family.
	FixedParser bool
}

// Reference is the configuration evaluated throughout the paper: four
// stages, nine primitives per action, 20..100 parse bytes in steps of 10.
var Reference = Config{Stages: 4, Primitives: 9, ParseDefault: 20, ParseStep: 10, ParseMax: 100}

// Wide-field widths (§6.2): all extracted packet data is represented in one
// 800-bit metadata field and all emulated metadata in one 256-bit field.
const (
	MetaWidth = 256 // bits of emulated metadata (hp4d.emeta)

	ProgramWidth  = 16 // hp4.program — the virtual device ID (§4.5)
	MatchIDWidth  = 32 // hp4.match_id — allocated per installed virtual entry
	NumBytesWidth = 16
	StateWidth    = 16 // parse-control state
	NextTblWidth  = 8
	SlotWidth     = 16 // hp4.next_slot — per-program stage-slot discriminator
	PrimWidth     = 8
	VPortWidth    = 16 // virtual port space
	McastWidth    = 16 // multicast sequence ids
	ShiftWidth    = 16
	ConstWidth    = 64 // widest constant a primitive spec can carry
)

// ExtractedWidth returns the width in bits of the extracted-data field for
// this configuration (800 for the reference 100-byte maximum).
func (c Config) ExtractedWidth() int { return c.ParseMax * 8 }

// ByteCounts returns the parse byte counts the persona supports:
// ParseDefault, then every multiple of ParseStep up to ParseMax.
func (c Config) ByteCounts() []int {
	var out []int
	seen := map[int]bool{}
	add := func(n int) {
		if n > 0 && n <= c.ParseMax && !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	add(c.ParseDefault)
	for n := c.ParseStep; n <= c.ParseMax; n += c.ParseStep {
		if n >= c.ParseDefault {
			add(n)
		}
	}
	return out
}

// RoundBytes rounds a byte requirement up to a supported count. It returns
// false if the requirement exceeds ParseMax.
func (c Config) RoundBytes(n int) (int, bool) {
	if n <= c.ParseDefault {
		return c.ParseDefault, true
	}
	r := ((n + c.ParseStep - 1) / c.ParseStep) * c.ParseStep
	if r < c.ParseDefault {
		r = c.ParseDefault
	}
	if r > c.ParseMax {
		return 0, false
	}
	return r, true
}

// Primitive opcodes (hp4.prim_type values). Each opcode is one supported
// (primitive × operand-class) combination; the paper's configuration covers
// five P4 primitives (modify_field, add_to_field, drop, no_op, and the
// standard-metadata forms), which decompose into these execution variants.
const (
	OpModEDConst       = 1  // extracted-data field ← constant / action arg
	OpModEDED          = 2  // extracted ← extracted
	OpModEDMeta        = 3  // extracted ← emulated metadata
	OpModMetaED        = 4  // emulated metadata ← extracted
	OpModMetaConst     = 5  // emulated metadata ← constant
	OpModVPortConst    = 6  // virtual egress port ← constant
	OpModVPortVIngress = 7  // virtual egress port ← virtual ingress port
	OpAddEDConst       = 8  // extracted field += constant (mod 2^width)
	OpAddMetaConst     = 9  // metadata field += constant
	OpDrop             = 10 // virtual drop
	OpNoOp             = 11
	OpModMetaMeta      = 12 // emulated metadata ← emulated metadata
)

// Store names a wide field a primitive reads or writes.
type Store int

const (
	StoreNone Store = iota // a virtual port, a constant, or nothing
	StoreED                // hp4d.extracted (ExtractedWidth bits)
	StoreMeta              // hp4d.emeta (MetaWidth bits)
)

// Opcode is one primitive opcode and the shape of its a_prep_<Name> row.
// The prep args are, in order: the destination geometry (dmask, dshift)
// when Dst is a wide store, the source geometry (slshift, srshift) when Src
// is, then the constant (cval) when Arity leaves room for one. An add reads
// its own destination, so its Src is its Dst.
type Opcode struct {
	Code     int
	Name     string // suffix shared by a_prep_<Name> and a_exec_<Name>
	Arity    int    // a_prep_<Name> argument count
	Dst, Src Store
}

// HasConst reports whether the prep row ends in a constant (cval).
func (o Opcode) HasConst() bool {
	n := 0
	if o.Dst != StoreNone {
		n += 2
	}
	if o.Src != StoreNone {
		n += 2
	}
	return o.Arity > n
}

// Opcodes lists every opcode with its prep-row shape.
var Opcodes = []Opcode{
	{OpModEDConst, "mod_ed_const", 3, StoreED, StoreNone},
	{OpModEDED, "mod_ed_ed", 4, StoreED, StoreED},
	{OpModEDMeta, "mod_ed_meta", 4, StoreED, StoreMeta},
	{OpModMetaED, "mod_meta_ed", 4, StoreMeta, StoreED},
	{OpModMetaConst, "mod_meta_const", 3, StoreMeta, StoreNone},
	{OpModVPortConst, "mod_vport_const", 1, StoreNone, StoreNone},
	{OpModVPortVIngress, "mod_vport_vingress", 0, StoreNone, StoreNone},
	{OpAddEDConst, "add_ed_const", 5, StoreED, StoreED},
	{OpAddMetaConst, "add_meta_const", 5, StoreMeta, StoreMeta},
	{OpDrop, "drop", 0, StoreNone, StoreNone},
	{OpNoOp, "no_op", 0, StoreNone, StoreNone},
	{OpModMetaMeta, "mod_meta_meta", 4, StoreMeta, StoreMeta},
}

// OpcodeOf returns the opcode with the given code.
func OpcodeOf(code int) (Opcode, bool) {
	for _, o := range Opcodes {
		if o.Code == code {
			return o, true
		}
	}
	return Opcode{}, false
}

// Next-table codes (hp4.next_table values) selecting the match-table kind of
// the next emulated stage. Done ends stage emulation.
const (
	NTDone        = 0
	NTEDExact     = 1 // exact match on extracted data (via ternary, §4.3)
	NTEDTernary   = 2
	NTMetaExact   = 3
	NTMetaTernary = 4
	NTStdMeta     = 5 // match on virtual ingress/egress port
	NTMatchless   = 6 // unconditional action stage
)

// StageKinds lists the match-table kinds generated per stage, with the
// next-table code that dispatches to each and the table-name suffix.
var StageKinds = []struct {
	Code int
	Name string
}{
	{NTEDExact, "ed_exact"},
	{NTEDTernary, "ed_ternary"},
	{NTMetaExact, "meta_exact"},
	{NTMetaTernary, "meta_ternary"},
	{NTStdMeta, "stdmeta"},
	{NTMatchless, "matchless"},
}

// KindName returns the stage-table suffix for a next-table code, or "".
func KindName(code int) string {
	for _, k := range StageKinds {
		if k.Code == code {
			return k.Name
		}
	}
	return ""
}

// VPortDrop is the virtual port value that drops a packet, mirroring the
// target's 9-bit drop port.
const VPortDrop = 0x1ff

// Well-known table and instance names in the generated persona.
const (
	InstMeta    = "hp4"  // control metadata
	InstData    = "hp4d" // extracted + emulated metadata wide fields
	InstScratch = "hp4s" // primitive-execution scratch space
	InstExt     = "ext"  // the stack of one-byte headers

	TblNorm       = "t_norm"
	TblAssign     = "t_assign"
	TblParseCtrl  = "t_parse_ctrl"
	TblVirtnet    = "t_virtnet"
	TblDropped    = "t_dropped"
	TblCsum       = "te_csum"
	TblRecirc     = "te_recirc"
	TblResize     = "te_resize"
	TblWriteback  = "te_writeback"
	TblMcastOrig  = "te_mcast_orig"
	TblMcastClone = "te_mcast_clone"
	TblPolice     = "t_police"
	TblPoliceDrop = "t_police_drop"
	MeterIngress  = "hp4_ingress_meter"
	CounterVDev   = "hp4_vdev_counter"

	ActSetProgram = "a_set_program"
	ActParseMore  = "a_parse_more"
	ActParseDone  = "a_parse_done"
	ActSetMatch   = "a_set_match"
	ActPrimDone   = "a_prim_done"
	ActPhysFwd    = "a_phys_fwd"
	ActVirtFwd    = "a_virt_fwd"
	ActVDrop      = "a_vdrop"
	ActDoRecirc   = "a_do_recirc"
	ActMcastStart = "a_mcast_start"
	ActMcastClone = "a_mcast_clone"
	ActMcastStep  = "a_mcast_step_clone"
	ActMcastLast  = "a_mcast_step_last"
	ActPolice     = "a_police"
	ActIPv4Csum   = "a_ipv4_csum"

	FLResubmit = "fl_resubmit"
	FLRecirc   = "fl_recirc"

	// FieldProgram is the InstMeta field carrying the per-packet program ID
	// — the attribution value the DPMU's fault containment keys on.
	FieldProgram = "program"
)

// Stage table names.

// StageTable returns the name of stage i's match table of the given kind
// suffix (i is 1-based).
func StageTable(i int, kind string) string {
	return tblName("t%d_%s", i, kind)
}

// PrimTable returns the name of stage i, slot p's primitive table with the
// given role ("prep", "exec", or "done").
func PrimTable(i, p int, role string) string {
	return tblName("t%d_p%d_%s", i, p, role)
}

// NormAction returns the name of the assemble action for n bytes.
func NormAction(n int) string { return tblName("a_norm_%d", n) }

// ResizeAction returns the name of the resize action for n bytes.
func ResizeAction(n int) string { return tblName("a_resize_%d", n) }

// WritebackAction returns the name of the write-back action for n bytes.
func WritebackAction(n int) string { return tblName("a_wb_%d", n) }

// ParseState returns the parser state name that extracts n bytes.
func ParseState(n int) string { return tblName("p_bytes_%d", n) }

func tblName(format string, args ...any) string {
	return sprintf(format, args...)
}
