package ctl

import (
	"fmt"

	"hyper4/internal/core/dpmu"
	"hyper4/internal/core/hp4c"
	"hyper4/internal/functions"
	"hyper4/internal/sim"
	"hyper4/internal/sim/runtime"
)

// applyOp executes one op, not a port op, inside a DPMU write. Callers
// hold c.wmu.
func (c *Ctl) applyOp(t *dpmu.Tx, owner string, op *Op) (Result, error) {
	switch op.Kind {
	case OpLoadVDev:
		prog, err := functions.Load(op.Function)
		if err != nil {
			return Result{}, fmt.Errorf("%w: %w", err, dpmu.ErrNotFound)
		}
		comp, err := hp4c.Compile(prog, c.D.Config())
		if err != nil {
			return Result{}, err
		}
		v, err := t.Load(op.VDev, comp, owner, op.Quota)
		if err != nil {
			return Result{}, err
		}
		return Result{PID: v.PID, Msg: fmt.Sprintf("loaded %s as program %d", v.Name, v.PID)}, nil

	case OpUnload:
		return Result{}, t.Unload(owner, op.VDev)

	case OpAssign:
		return Result{}, t.AssignPort(owner, dpmu.Assignment{PhysPort: op.PhysPort, VDev: op.VDev, VIngress: op.VIngress})

	case OpClearAssignments:
		t.ClearAssignments()
		return Result{}, nil

	case OpMapVPort:
		return Result{}, t.MapVPort(owner, op.VDev, op.VPort, op.PhysPort)

	case OpLink:
		return Result{}, t.LinkVPorts(owner, op.VDev, op.VPort, op.ToVDev, op.ToVPort)

	case OpMcast:
		targets := make([]dpmu.VPortRef, len(op.Targets))
		for i, tg := range op.Targets {
			targets[i] = dpmu.VPortRef{VDev: tg.VDev, VIngress: tg.VIngress}
		}
		return Result{}, t.MulticastGroup(owner, op.VDev, op.VPort, targets)

	case OpRateLimit:
		return Result{}, t.SetRateLimit(owner, op.VDev, op.YellowAt, op.RedAt)

	case OpMeterTick:
		return Result{}, c.D.TickMeters()

	case OpSnapshotSave:
		as := make([]dpmu.Assignment, len(op.Assignments))
		for i, a := range op.Assignments {
			as[i] = dpmu.Assignment{PhysPort: a.PhysPort, VDev: a.VDev, VIngress: a.VIngress}
		}
		return Result{}, t.SaveSnapshot(op.Name, as)

	case OpSnapshotActivate:
		return Result{}, t.ActivateSnapshot(op.Name)

	case OpTableAdd:
		spec, err := c.entrySpec(t, op)
		if err != nil {
			return Result{}, err
		}
		h, err := t.TableAdd(owner, op.VDev, spec)
		if err != nil {
			return Result{}, err
		}
		return Result{Handle: h, Msg: fmt.Sprintf("handle %d", h)}, nil

	case OpTableModify:
		spec, err := c.entrySpec(t, op)
		if err != nil {
			return Result{}, err
		}
		return Result{}, t.TableModify(owner, op.VDev, op.Handle, spec)

	case OpTableDelete:
		return Result{}, t.TableDelete(owner, op.VDev, op.Table, op.Handle)

	case OpHealthReset:
		if err := t.ResetHealth(owner, op.VDev); err != nil {
			return Result{}, err
		}
		return Result{Msg: fmt.Sprintf("health reset for %s", op.VDev)}, nil

	case OpVerify:
		return c.applyVerify(t, op)

	case OpSetDefault:
		args, err := runtime.ParseArgs(op.Args)
		if err != nil {
			return Result{}, invalidf("%s", err)
		}
		return Result{}, t.SetDefault(owner, op.VDev, op.Table, op.Action, args)
	}
	return Result{}, invalidf("unknown op kind %q", op.Kind)
}

// isPortOp reports whether an op attaches or detaches a transport. Port
// ops run outside any DPMU write: a detach drains the port's rings, and
// the workers draining them need the switch's read lock.
func isPortOp(k OpKind) bool { return k == OpPortAttach || k == OpPortDetach }

// applyPortOp executes a port op against the packet I/O runtime. Callers
// hold c.wmu.
func (c *Ctl) applyPortOp(op *Op) (Result, error) {
	if c.IO == nil {
		return Result{}, invalidf("this switch has no packet I/O runtime")
	}
	if op.Kind == OpPortAttach {
		if err := c.IO.AttachSpec(op.PhysPort, op.Spec); err != nil {
			return Result{}, err
		}
		return Result{Msg: fmt.Sprintf("port %d attached (%s)", op.PhysPort, op.Spec)}, nil
	}
	if err := c.IO.Detach(op.PhysPort); err != nil {
		return Result{}, err
	}
	return Result{Msg: fmt.Sprintf("port %d detached", op.PhysPort)}, nil
}

// entrySpec materializes a table_add/table_modify op as a dpmu.EntrySpec,
// parsing the textual match/argument tokens against the device's compiled
// program.
func (c *Ctl) entrySpec(t *dpmu.Tx, op *Op) (dpmu.EntrySpec, error) {
	spec := dpmu.EntrySpec{Table: op.Table, Action: op.Action}
	v, err := t.VDev(op.VDev)
	if err != nil {
		return spec, err
	}
	tbl, ok := v.Comp.Prog.Tables[op.Table]
	if !ok {
		return spec, fmt.Errorf("program %s has no table %q: %w", v.Comp.Name, op.Table, dpmu.ErrNotFound)
	}
	act, ok := v.Comp.Actions[op.Action]
	if !ok {
		return spec, fmt.Errorf("program %s has no action %q: %w", v.Comp.Name, op.Action, dpmu.ErrNotFound)
	}
	reads := make([]sim.ReadSpec, len(tbl.Reads))
	for i, r := range tbl.Reads {
		reads[i] = sim.ReadSpec{Kind: r.Match, Width: 1}
		if r.Field != nil {
			if reads[i].Width, err = v.Comp.Prog.FieldWidth(*r.Field); err != nil {
				return spec, err
			}
		}
	}
	spec.Params, spec.Args, spec.Priority, err = runtime.ParseEntry(op.Table, reads, op.Action, len(act.Params), op.Match, op.Args)
	if err != nil {
		return spec, invalidf("%s", err)
	}
	return spec, nil
}
