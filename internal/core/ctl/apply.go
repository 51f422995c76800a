package ctl

import (
	"fmt"

	"hyper4/internal/core/dpmu"
	"hyper4/internal/core/hp4c"
	"hyper4/internal/functions"
	"hyper4/internal/sim"
	"hyper4/internal/sim/runtime"
)

// applyOp executes one op against the DPMU. Callers hold c.wmu.
func (c *Ctl) applyOp(owner string, op *Op) (Result, error) {
	d := c.D
	switch op.Kind {
	case OpLoadVDev:
		prog, err := functions.Load(op.Function)
		if err != nil {
			return Result{}, fmt.Errorf("%w: %w", err, dpmu.ErrNotFound)
		}
		comp, err := hp4c.Compile(prog, d.Config())
		if err != nil {
			return Result{}, err
		}
		v, err := d.Load(op.VDev, comp, owner, op.Quota)
		if err != nil {
			return Result{}, err
		}
		return Result{PID: v.PID, Msg: fmt.Sprintf("loaded %s as program %d", v.Name, v.PID)}, nil

	case OpUnload:
		return Result{}, d.Unload(owner, op.VDev)

	case OpAssign:
		return Result{}, d.AssignPort(owner, dpmu.Assignment{PhysPort: op.PhysPort, VDev: op.VDev, VIngress: op.VIngress})

	case OpClearAssignments:
		d.ClearAssignments()
		return Result{}, nil

	case OpMapVPort:
		return Result{}, d.MapVPort(owner, op.VDev, op.VPort, op.PhysPort)

	case OpLink:
		return Result{}, d.LinkVPorts(owner, op.VDev, op.VPort, op.ToVDev, op.ToVPort)

	case OpMcast:
		targets := make([]dpmu.VPortRef, len(op.Targets))
		for i, t := range op.Targets {
			targets[i] = dpmu.VPortRef{VDev: t.VDev, VIngress: t.VIngress}
		}
		return Result{}, d.MulticastGroup(owner, op.VDev, op.VPort, targets)

	case OpRateLimit:
		return Result{}, d.SetRateLimit(owner, op.VDev, op.YellowAt, op.RedAt)

	case OpMeterTick:
		return Result{}, d.TickMeters()

	case OpSnapshotSave:
		as := make([]dpmu.Assignment, len(op.Assignments))
		for i, a := range op.Assignments {
			as[i] = dpmu.Assignment{PhysPort: a.PhysPort, VDev: a.VDev, VIngress: a.VIngress}
		}
		return Result{}, d.SaveSnapshot(op.Name, as)

	case OpSnapshotActivate:
		return Result{}, d.ActivateSnapshot(op.Name)

	case OpTableAdd:
		spec, err := c.entrySpec(op)
		if err != nil {
			return Result{}, err
		}
		h, err := d.TableAdd(owner, op.VDev, spec)
		if err != nil {
			return Result{}, err
		}
		return Result{Handle: h, Msg: fmt.Sprintf("handle %d", h)}, nil

	case OpTableModify:
		spec, err := c.entrySpec(op)
		if err != nil {
			return Result{}, err
		}
		return Result{}, d.TableModify(owner, op.VDev, op.Handle, spec)

	case OpTableDelete:
		return Result{}, d.TableDelete(owner, op.VDev, op.Table, op.Handle)

	case OpHealthReset:
		if err := d.ResetHealth(owner, op.VDev); err != nil {
			return Result{}, err
		}
		return Result{Msg: fmt.Sprintf("health reset for %s", op.VDev)}, nil

	case OpVerify:
		return c.applyVerify(op)

	case OpPortAttach:
		if c.IO == nil {
			return Result{}, invalidf("this switch has no packet I/O runtime")
		}
		if err := c.IO.AttachSpec(op.PhysPort, op.Spec); err != nil {
			return Result{}, err
		}
		return Result{Msg: fmt.Sprintf("port %d attached (%s)", op.PhysPort, op.Spec)}, nil

	case OpPortDetach:
		if c.IO == nil {
			return Result{}, invalidf("this switch has no packet I/O runtime")
		}
		if err := c.IO.Detach(op.PhysPort); err != nil {
			return Result{}, err
		}
		return Result{Msg: fmt.Sprintf("port %d detached", op.PhysPort)}, nil

	case OpSetDefault:
		args := op.ArgVals
		if !op.Parsed {
			var err error
			if args, err = runtime.ParseArgs(op.Args); err != nil {
				return Result{}, invalidf("%s", err)
			}
		}
		return Result{}, d.SetDefault(owner, op.VDev, op.Table, op.Action, args)
	}
	return Result{}, invalidf("unknown op kind %q", op.Kind)
}

// entrySpec materializes a table_add/table_modify op as a dpmu.EntrySpec,
// parsing the textual match/argument tokens against the device's compiled
// program unless the caller pre-parsed them.
func (c *Ctl) entrySpec(op *Op) (dpmu.EntrySpec, error) {
	spec := dpmu.EntrySpec{Table: op.Table, Action: op.Action}
	if op.Parsed {
		spec.Params, spec.Args, spec.Priority = op.Params, op.ArgVals, op.Priority
		return spec, nil
	}
	v, err := c.D.VDev(op.VDev)
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
