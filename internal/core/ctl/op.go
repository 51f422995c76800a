package ctl

// OpKind discriminates the Op union.
type OpKind string

const (
	OpLoadVDev         OpKind = "load_vdev"
	OpUnload           OpKind = "unload"
	OpAssign           OpKind = "assign"
	OpClearAssignments OpKind = "clear_assignments"
	OpMapVPort         OpKind = "map_vport"
	OpLink             OpKind = "link"
	OpMcast            OpKind = "mcast"
	OpRateLimit        OpKind = "rate_limit"
	OpMeterTick        OpKind = "meter_tick"
	OpSnapshotSave     OpKind = "snapshot_save"
	OpSnapshotActivate OpKind = "snapshot_activate"
	OpTableAdd         OpKind = "table_add"
	OpTableModify      OpKind = "table_modify"
	OpTableDelete      OpKind = "table_delete"
	OpSetDefault       OpKind = "set_default"
	OpHealthReset      OpKind = "health_reset"
	// OpPortAttach / OpPortDetach manage the packet I/O runtime's physical
	// ports: attach binds a transport (built from a textual spec like
	// "udp:0.0.0.0:9000") to a port, detach drains and closes it. Unlike
	// table state, transports live outside the DPMU's write sets; WriteBatch
	// compensates by detaching ports a failed batch attached.
	OpPortAttach OpKind = "port_attach"
	OpPortDetach OpKind = "port_detach"
	// OpVerify runs the static verifier over the current state; error
	// findings fail the op (and undo its batch), making it a dry-run
	// admission gate when appended to a batch. VDev optionally scopes the
	// findings.
	OpVerify OpKind = "verify"
)

// Target is one virtual multicast destination.
type Target struct {
	VDev     string `json:"vdev"`
	VIngress int    `json:"vingress"`
}

// Assignment binds a physical ingress port (-1 = every port) to a virtual
// device and virtual ingress port, for snapshot_save payloads.
type Assignment struct {
	PhysPort int    `json:"phys_port"`
	VDev     string `json:"vdev"`
	VIngress int    `json:"vingress"`
}

// Op is one control-plane operation — the single union type every
// management path builds, whether it came from a REPL line, an hp4ctl
// script, or a raw HTTP request. Only the fields its Kind uses are set.
//
// Table-op match and argument tokens travel textually (Match/Args, in the
// emulated program's own bmv2-style dialect) and are parsed server-side
// against the device's compiled program, so remote clients need no program
// knowledge.
type Op struct {
	Kind OpKind `json:"kind"`
	VDev string `json:"vdev,omitempty"`

	// load_vdev
	Function string `json:"function,omitempty"`
	Quota    int    `json:"quota,omitempty"`

	// assign / map_vport / link / mcast
	PhysPort int      `json:"phys_port,omitempty"`
	VPort    int      `json:"vport,omitempty"`
	VIngress int      `json:"vingress,omitempty"`
	ToVDev   string   `json:"to_vdev,omitempty"`
	ToVPort  int      `json:"to_vport,omitempty"`
	Targets  []Target `json:"targets,omitempty"`

	// snapshot_save / snapshot_activate
	Name        string       `json:"name,omitempty"`
	Assignments []Assignment `json:"assignments,omitempty"`

	// port_attach (PhysPort carries the port number for port ops)
	Spec string `json:"spec,omitempty"`

	// rate_limit
	YellowAt uint64 `json:"yellow_at,omitempty"`
	RedAt    uint64 `json:"red_at,omitempty"`

	// table ops
	Table  string   `json:"table,omitempty"`
	Action string   `json:"action,omitempty"`
	Handle int      `json:"handle,omitempty"`
	Match  []string `json:"match,omitempty"`
	// Args holds the action arguments and, for tables that take one, an
	// optional trailing priority token — exactly the tokens after "=>".
	Args []string `json:"args,omitempty"`
}

// Result is one op's success payload.
type Result struct {
	// Handle is the virtual entry handle minted by table_add.
	Handle int `json:"handle,omitempty"`
	// PID is the program ID minted by load_vdev.
	PID int `json:"pid,omitempty"`
	// Msg is the human-readable line the REPL prints ("loaded l2 as
	// program 1", "handle 3", ...); empty for silent ops.
	Msg string `json:"msg,omitempty"`
}

// Query is one read-only request — the read half of the API, kept separate
// from Op so WriteBatch stays all-mutating.
type Query struct {
	Kind string `json:"kind"` // "vdevs", "stats", "snapshots", "health", "lint", "prove", "fuse", "ports"
	VDev string `json:"vdev,omitempty"`
}
