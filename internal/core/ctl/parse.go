package ctl

import (
	"fmt"
	"strconv"
	"strings"

	"hyper4/internal/sim/runtime"
)

// This file is the script dialect: one line, one Op or Query. The grammar is
// shared verbatim by the hp4switch REPL / -commands scripts, hp4ctl, and any
// test driving the CLI — parsing happens once, here, and every path applies
// the same Ops.
//
// Management commands:
//
//	load <vdev> <builtin-function> [quota]
//	unload <vdev>
//	assign <port|any> <vdev> <vingress>
//	clear_assignments
//	map <vdev> <vport> <physport>
//	link <vdevA> <vportA> <vdevB> <vingressB>
//	mcast <vdev> <vport> <vdev:vingress>...
//	ratelimit <vdev> <yellowAt> <redAt>
//	meter_tick
//	snapshot_save <name> <port:vdev:vingress>...
//	snapshot_activate <name>
//	reset <vdev>
//	verify [vdev]
//	port attach <port> <transport-spec>
//	port detach <port>
//
// Virtual table operations (translated, §3.1):
//
//	<vdev> table_add <table> <action> <match>... => <arg>... [priority]
//	<vdev> table_delete <table> <handle>
//	<vdev> table_modify <table> <handle> <action> <match>... => <arg>... [priority]
//	<vdev> table_set_default <table> <action> [<arg>...]
//
// Queries:
//
//	vdevs
//	snapshots
//	stats <vdev>
//	health [vdev]
//	lint [vdev]
//	prove <vdev>
//	fuse
//	dump
//	port list
//	port health
//
// Match tokens use the emulated program's own field widths and kinds, in the
// same syntax as internal/sim/runtime; they are parsed against the program
// when the op is applied, not here.

// vdevOps are the second-token operations of the "<vdev> table_..." form.
var vdevOps = map[string]OpKind{
	"table_add":         OpTableAdd,
	"table_delete":      OpTableDelete,
	"table_modify":      OpTableModify,
	"table_set_default": OpSetDefault,
}

// ParseLine parses one script line into an Op (mutation) or a Query (read).
// Blank and comment lines return (nil, nil, nil). A line that is not part of
// the control-plane dialect at all returns an error wrapping ErrUnknown, so
// the REPL can fall through to raw switch-runtime commands.
func ParseLine(line string) (*Op, *Query, error) {
	fields := strings.Fields(line)
	if len(fields) == 0 || strings.HasPrefix(fields[0], "#") {
		return nil, nil, nil
	}
	cmd, args := fields[0], fields[1:]
	switch cmd {
	case "load":
		if len(args) < 2 || len(args) > 3 {
			return nil, nil, invalidf("load wants <vdev> <function> [quota]")
		}
		op := &Op{Kind: OpLoadVDev, VDev: args[0], Function: args[1]}
		if len(args) == 3 {
			q, err := strconv.Atoi(args[2])
			if err != nil {
				return nil, nil, invalidf("bad quota %q", args[2])
			}
			op.Quota = q
		}
		return op, nil, nil

	case "unload":
		if len(args) != 1 {
			return nil, nil, invalidf("unload wants <vdev>")
		}
		return &Op{Kind: OpUnload, VDev: args[0]}, nil, nil

	case "assign":
		if len(args) != 3 {
			return nil, nil, invalidf("assign wants <port|any> <vdev> <vingress>")
		}
		port := -1
		if args[0] != "any" {
			p, err := strconv.Atoi(args[0])
			if err != nil {
				return nil, nil, invalidf("bad port %q", args[0])
			}
			port = p
		}
		ving, err := strconv.Atoi(args[2])
		if err != nil {
			return nil, nil, invalidf("bad vingress %q", args[2])
		}
		return &Op{Kind: OpAssign, VDev: args[1], PhysPort: port, VIngress: ving}, nil, nil

	case "clear_assignments":
		return &Op{Kind: OpClearAssignments}, nil, nil

	case "map":
		if len(args) != 3 {
			return nil, nil, invalidf("map wants <vdev> <vport> <physport>")
		}
		vport, err1 := strconv.Atoi(args[1])
		phys, err2 := strconv.Atoi(args[2])
		if err1 != nil || err2 != nil {
			return nil, nil, invalidf("bad ports %v", args[1:])
		}
		return &Op{Kind: OpMapVPort, VDev: args[0], VPort: vport, PhysPort: phys}, nil, nil

	case "link":
		if len(args) != 4 {
			return nil, nil, invalidf("link wants <vdevA> <vportA> <vdevB> <vingressB>")
		}
		pa, err1 := strconv.Atoi(args[1])
		pb, err2 := strconv.Atoi(args[3])
		if err1 != nil || err2 != nil {
			return nil, nil, invalidf("bad ports")
		}
		return &Op{Kind: OpLink, VDev: args[0], VPort: pa, ToVDev: args[2], ToVPort: pb}, nil, nil

	case "mcast":
		if len(args) < 3 {
			return nil, nil, invalidf("mcast wants <vdev> <vport> <vdev:vingress>...")
		}
		vport, err := strconv.Atoi(args[1])
		if err != nil {
			return nil, nil, invalidf("bad vport %q", args[1])
		}
		op := &Op{Kind: OpMcast, VDev: args[0], VPort: vport}
		for _, spec := range args[2:] {
			dev, ving, ok := strings.Cut(spec, ":")
			if !ok {
				return nil, nil, invalidf("bad target %q (want vdev:vingress)", spec)
			}
			v, err := strconv.Atoi(ving)
			if err != nil {
				return nil, nil, invalidf("bad target %q", spec)
			}
			op.Targets = append(op.Targets, Target{VDev: dev, VIngress: v})
		}
		return op, nil, nil

	case "ratelimit":
		if len(args) != 3 {
			return nil, nil, invalidf("ratelimit wants <vdev> <yellowAt> <redAt>")
		}
		y, err1 := strconv.ParseUint(args[1], 0, 64)
		r, err2 := strconv.ParseUint(args[2], 0, 64)
		if err1 != nil || err2 != nil {
			return nil, nil, invalidf("bad thresholds")
		}
		return &Op{Kind: OpRateLimit, VDev: args[0], YellowAt: y, RedAt: r}, nil, nil

	case "meter_tick":
		return &Op{Kind: OpMeterTick}, nil, nil

	case "snapshot_save":
		if len(args) < 2 {
			return nil, nil, invalidf("snapshot_save wants <name> <port:vdev:vingress>...")
		}
		op := &Op{Kind: OpSnapshotSave, Name: args[0]}
		for _, spec := range args[1:] {
			parts := strings.Split(spec, ":")
			if len(parts) != 3 {
				return nil, nil, invalidf("bad assignment %q (want port:vdev:vingress)", spec)
			}
			port := -1
			if parts[0] != "any" {
				p, err := strconv.Atoi(parts[0])
				if err != nil {
					return nil, nil, invalidf("bad port in %q", spec)
				}
				port = p
			}
			ving, err := strconv.Atoi(parts[2])
			if err != nil {
				return nil, nil, invalidf("bad vingress in %q", spec)
			}
			op.Assignments = append(op.Assignments, Assignment{PhysPort: port, VDev: parts[1], VIngress: ving})
		}
		return op, nil, nil

	case "snapshot_activate":
		if len(args) != 1 {
			return nil, nil, invalidf("snapshot_activate wants <name>")
		}
		return &Op{Kind: OpSnapshotActivate, Name: args[0]}, nil, nil

	case "reset":
		if len(args) != 1 {
			return nil, nil, invalidf("reset wants <vdev>")
		}
		return &Op{Kind: OpHealthReset, VDev: args[0]}, nil, nil

	case "port":
		if len(args) == 0 {
			return nil, nil, invalidf("port wants attach|detach|list")
		}
		switch args[0] {
		case "attach":
			if len(args) != 3 {
				return nil, nil, invalidf("port attach wants <port> <transport-spec>")
			}
			p, err := strconv.Atoi(args[1])
			if err != nil {
				return nil, nil, invalidf("bad port %q", args[1])
			}
			return &Op{Kind: OpPortAttach, PhysPort: p, Spec: args[2]}, nil, nil
		case "detach":
			if len(args) != 2 {
				return nil, nil, invalidf("port detach wants <port>")
			}
			p, err := strconv.Atoi(args[1])
			if err != nil {
				return nil, nil, invalidf("bad port %q", args[1])
			}
			return &Op{Kind: OpPortDetach, PhysPort: p}, nil, nil
		case "list":
			if len(args) != 1 {
				return nil, nil, invalidf("port list takes no arguments")
			}
			return nil, &Query{Kind: "ports"}, nil
		case "health":
			if len(args) != 1 {
				return nil, nil, invalidf("port health takes no arguments")
			}
			return nil, &Query{Kind: "port_health"}, nil
		}
		return nil, nil, invalidf("port wants attach|detach|list|health, got %q", args[0])

	case "verify":
		if len(args) > 1 {
			return nil, nil, invalidf("verify wants at most one <vdev>")
		}
		op := &Op{Kind: OpVerify}
		if len(args) == 1 {
			op.VDev = args[0]
		}
		return op, nil, nil

	case "lint":
		if len(args) > 1 {
			return nil, nil, invalidf("lint wants at most one <vdev>")
		}
		q := &Query{Kind: "lint"}
		if len(args) == 1 {
			q.VDev = args[0]
		}
		return nil, q, nil

	case "prove":
		if len(args) != 1 {
			return nil, nil, invalidf("prove wants exactly one <vdev>")
		}
		return nil, &Query{Kind: "prove", VDev: args[0]}, nil

	case "dump":
		if len(args) != 0 {
			return nil, nil, invalidf("dump takes no arguments")
		}
		return nil, &Query{Kind: "dump"}, nil

	case "fuse":
		if len(args) != 0 {
			return nil, nil, invalidf("fuse takes no arguments")
		}
		return nil, &Query{Kind: "fuse"}, nil

	case "vdevs":
		return nil, &Query{Kind: "vdevs"}, nil

	case "snapshots":
		return nil, &Query{Kind: "snapshots"}, nil

	case "stats":
		if len(args) != 1 {
			return nil, nil, invalidf("stats wants <vdev>")
		}
		return nil, &Query{Kind: "stats", VDev: args[0]}, nil

	case "health":
		if len(args) > 1 {
			return nil, nil, invalidf("health wants at most one <vdev>")
		}
		q := &Query{Kind: "health"}
		if len(args) == 1 {
			q.VDev = args[0]
		}
		return nil, q, nil
	}

	// "<vdev> table_add ..." — any first token followed by a table op.
	if len(args) > 0 {
		if kind, ok := vdevOps[args[0]]; ok {
			return parseTableOp(kind, cmd, args[1:])
		}
		if strings.HasPrefix(args[0], "table_") {
			return nil, nil, invalidf("unknown virtual operation %q", args[0])
		}
	}
	return nil, nil, fmt.Errorf("unknown dpmu command %q: %w", cmd, ErrUnknown)
}

// parseTableOp splits a virtual table operation into its textual Op form.
// The match/argument tokens stay raw; apply parses them against the device's
// compiled program.
func parseTableOp(kind OpKind, vdev string, args []string) (*Op, *Query, error) {
	op := &Op{Kind: kind, VDev: vdev}
	switch kind {
	case OpTableAdd:
		if len(args) < 2 {
			return nil, nil, invalidf("table_add wants <table> <action> <match>... => <args>...")
		}
		op.Table, op.Action = args[0], args[1]
		op.Match, op.Args = runtime.SplitEntry(args[2:])

	case OpTableDelete:
		if len(args) != 2 {
			return nil, nil, invalidf("table_delete wants <table> <handle>")
		}
		h, err := strconv.Atoi(args[1])
		if err != nil {
			return nil, nil, invalidf("bad handle %q", args[1])
		}
		op.Table, op.Handle = args[0], h

	case OpTableModify:
		if len(args) < 3 {
			return nil, nil, invalidf("table_modify wants <table> <handle> <action> <match>... => <args>...")
		}
		h, err := strconv.Atoi(args[1])
		if err != nil {
			return nil, nil, invalidf("bad handle %q", args[1])
		}
		op.Table, op.Handle, op.Action = args[0], h, args[2]
		op.Match, op.Args = runtime.SplitEntry(args[3:])

	case OpSetDefault:
		if len(args) < 2 {
			return nil, nil, invalidf("table_set_default wants <table> <action> [args...]")
		}
		op.Table, op.Action = args[0], args[1]
		op.Args = args[2:]
	}
	return op, nil, nil
}
