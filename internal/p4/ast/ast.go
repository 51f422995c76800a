// Package ast defines the abstract syntax tree for the P4_14 subset used by
// HyPer4: header types and instances (including header stacks), metadata,
// field lists and checksum calculations, parser state machines, actions built
// from primitives, match-action tables, control flow, and stateful objects
// (registers, counters, meters).
//
// The subset covers everything needed by the paper's four network functions
// (L2 switch, ARP proxy, IPv4 router, firewall) and by the generated HyPer4
// persona itself.
package ast

import "math/big"

// Program is a complete P4 program.
type Program struct {
	Name             string // source name, for diagnostics
	HeaderTypes      []*HeaderType
	Instances        []*Instance
	FieldLists       []*FieldList
	FieldListCalcs   []*FieldListCalc
	CalculatedFields []*CalculatedField
	ParserStates     []*ParserState
	Actions          []*Action
	Tables           []*Table
	Controls         []*Control
	Registers        []*Register
	Counters         []*Counter
	Meters           []*Meter
}

// HeaderType declares the layout of a protocol header or metadata block.
type HeaderType struct {
	Name   string
	Fields []FieldDecl
}

// Width returns the total width of the header type in bits.
func (h *HeaderType) Width() int {
	w := 0
	for _, f := range h.Fields {
		w += f.Width
	}
	return w
}

// Field returns the declaration of the named field, or nil.
func (h *HeaderType) Field(name string) *FieldDecl {
	for i := range h.Fields {
		if h.Fields[i].Name == name {
			return &h.Fields[i]
		}
	}
	return nil
}

// FieldOffset returns the bit offset of the named field within the header,
// and whether the field exists.
func (h *HeaderType) FieldOffset(name string) (int, bool) {
	off := 0
	for _, f := range h.Fields {
		if f.Name == name {
			return off, true
		}
		off += f.Width
	}
	return 0, false
}

// FieldDecl is one field of a header type.
type FieldDecl struct {
	Name  string
	Width int // bits
}

// Instance declares a header or metadata instance of a header type.
type Instance struct {
	Name     string
	TypeName string
	Metadata bool
	Count    int // >0 for header stacks (e.g. "header u_byte ext[100];")
}

// IsStack reports whether the instance is a header stack.
func (i *Instance) IsStack() bool { return i.Count > 0 }

// FieldRef names a field of a header or metadata instance. For stack
// instances, Index selects the element; IndexNext refers to the parser's
// "next" cursor and IndexLast to the most recently extracted element.
type FieldRef struct {
	Instance string
	Index    int // IndexNone for scalar instances
	Field    string
}

// Special Index values for FieldRef and HeaderRef.
const (
	IndexNone = -1
	IndexNext = -2
	IndexLast = -3
)

// HeaderRef names a header instance (optionally a stack element), used by
// extract, add_header, remove_header, copy_header and valid() checks.
type HeaderRef struct {
	Instance string
	Index    int
}

// FieldList is a named list of fields (and optionally nested field lists),
// passed to resubmit/recirculate/clone and checksum calculations.
type FieldList struct {
	Name    string
	Entries []FieldListEntry
}

// FieldListEntry is one entry of a field list: a field reference, a nested
// list name, or the special "payload" token.
type FieldListEntry struct {
	Field   *FieldRef
	SubList string
	Payload bool
}

// ChecksumAlgo identifies a checksum algorithm for a field list calculation.
type ChecksumAlgo string

// Supported checksum algorithms.
const (
	AlgoCsum16 ChecksumAlgo = "csum16" // RFC 1071 ones-complement sum
)

// FieldListCalc is a field_list_calculation declaration.
type FieldListCalc struct {
	Name        string
	Input       string // field list name
	Algorithm   ChecksumAlgo
	OutputWidth int
}

// CalculatedField attaches verify/update checksum semantics to a field.
type CalculatedField struct {
	Field  FieldRef
	Verify string // field_list_calculation name, or ""
	Update string // field_list_calculation name, or ""
	// IfValid optionally guards update/verify on a header being valid.
	IfValid *HeaderRef
}

// ParserState is one state of the parser state machine. The state named
// "start" is the entry point.
type ParserState struct {
	Name       string
	Statements []ParserStmt
	Return     ParserReturn
}

// ParserStmt is a statement inside a parser state: extract(header) or
// set_metadata(field, value).
type ParserStmt struct {
	Extract *HeaderRef
	// SetMetadata, when Extract is nil:
	SetField FieldRef
	SetValue Expr
}

// ParserReturnKind discriminates direct returns from select returns.
type ParserReturnKind int

// Parser return kinds.
const (
	ReturnDirect ParserReturnKind = iota // return ingress; / return state_name;
	ReturnSelect                         // return select(...) { ... }
)

// Name of the implicit final parser state.
const StateIngress = "ingress"

// ParserReturn is the transition out of a parser state.
type ParserReturn struct {
	Kind       ParserReturnKind
	State      string // for ReturnDirect; StateIngress ends parsing
	SelectKeys []SelectKey
	Cases      []SelectCase
}

// SelectKey is one component of a select() expression: a field reference,
// latest.field, or current(offset, width).
type SelectKey struct {
	Field *FieldRef // nil for current()
	// Latest refers to the most recently extracted instance.
	Latest string // field name within latest, when non-empty
	// current(offset, width) reads unextracted packet bits.
	CurrentOffset int
	CurrentWidth  int
	IsCurrent     bool
}

// SelectCase is one branch of a select return.
type SelectCase struct {
	Default bool
	Values  []*big.Int // one per select key, concatenated comparison
	Masks   []*big.Int // optional per-value masks (nil = exact); P4_14 "value mask m"
	State   string
}

// Action is a compound action: a named, parameterized sequence of primitive
// invocations.
type Action struct {
	Name   string
	Params []string
	Body   []PrimitiveCall
}

// PrimitiveCall invokes a primitive (or another compound action) by name.
type PrimitiveCall struct {
	Name string
	Args []Expr
}

// ExprKind discriminates Expr variants.
type ExprKind int

// Expression kinds.
const (
	ExprConst ExprKind = iota
	ExprField
	ExprParam     // reference to an action parameter
	ExprHeader    // header reference (add_header etc.)
	ExprFieldList // field list name (resubmit etc.)
	ExprName      // bare name: register/counter/meter reference
)

// Expr is an argument to a primitive call. Exactly the fields relevant to
// Kind are meaningful.
type Expr struct {
	Kind      ExprKind
	Const     *big.Int
	Field     FieldRef
	Param     string
	Header    HeaderRef
	FieldList string
	Name      string
}

// MatchKind is a table read match type.
type MatchKind string

// Match kinds supported by tables.
const (
	MatchExact   MatchKind = "exact"
	MatchTernary MatchKind = "ternary"
	MatchLPM     MatchKind = "lpm"
	MatchValid   MatchKind = "valid"
	MatchRange   MatchKind = "range"
)

// ReadEntry is one "reads" clause of a table: a field (or header validity)
// and how to match it.
type ReadEntry struct {
	Field  *FieldRef  // nil when matching header validity
	Header *HeaderRef // for valid matches on a header
	// MaskField: P4_14 allows "field mask value : ternary" — unused here.
	Match MatchKind
}

// Table is a match-action table.
type Table struct {
	Name    string
	Reads   []ReadEntry // empty for matchless (default-action-only) tables
	Actions []string
	Default string // optional compile-time default action name
	Size    int
}

// Control is a named control function (ingress, egress, or helper).
type Control struct {
	Name string
	Body []Stmt
}

// Names of the top-level control functions.
const (
	ControlIngress = "ingress"
	ControlEgress  = "egress"
)

// StmtKind discriminates control-flow statements.
type StmtKind int

// Control statement kinds.
const (
	StmtApply StmtKind = iota
	StmtIf
	StmtCall // invoke another control function
)

// Stmt is one control-flow statement.
type Stmt struct {
	Kind StmtKind

	// StmtApply:
	Table      string
	ApplyCases []ApplyCase // on-action / hit / miss blocks

	// StmtIf:
	Cond BoolExpr
	Then []Stmt
	Else []Stmt

	// StmtCall:
	Control string
}

// ApplyCase is one case block of an apply statement.
type ApplyCase struct {
	Action string // action name; "" when Hit or Miss is set
	Hit    bool
	Miss   bool
	Body   []Stmt
}

// BoolKind discriminates boolean expressions.
type BoolKind int

// Boolean expression kinds.
const (
	BoolCmp BoolKind = iota
	BoolValid
	BoolAnd
	BoolOr
	BoolNot
)

// CmpOp is a comparison operator.
type CmpOp string

// Comparison operators.
const (
	OpEq CmpOp = "=="
	OpNe CmpOp = "!="
	OpLt CmpOp = "<"
	OpLe CmpOp = "<="
	OpGt CmpOp = ">"
	OpGe CmpOp = ">="
)

// BoolExpr is a boolean condition in an if statement.
type BoolExpr struct {
	Kind  BoolKind
	Left  *Expr // BoolCmp
	Op    CmpOp
	Right *Expr
	Valid *HeaderRef // BoolValid
	A, B  *BoolExpr  // BoolAnd/BoolOr (A only for BoolNot)
}

// Register is a stateful register array.
type Register struct {
	Name          string
	Width         int
	InstanceCount int
	DirectTable   string // optional direct binding
}

// CounterKind is the unit a counter counts.
type CounterKind string

// Counter kinds.
const (
	CounterPackets CounterKind = "packets"
	CounterBytes   CounterKind = "bytes"
)

// Counter is a stateful counter array.
type Counter struct {
	Name          string
	Kind          CounterKind
	InstanceCount int
	DirectTable   string
}

// MeterKind is the unit a meter meters.
type MeterKind string

// Meter kinds.
const (
	MeterPackets MeterKind = "packets"
	MeterBytes   MeterKind = "bytes"
)

// Meter is a stateful meter array.
type Meter struct {
	Name          string
	Kind          MeterKind
	InstanceCount int
	DirectTable   string
}
