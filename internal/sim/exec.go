package sim

import (
	"errors"
	"fmt"

	"hyper4/internal/bitfield"
	"hyper4/internal/p4/ast"
)

// maxActionDepth bounds compound-action recursion.
const maxActionDepth = 32

var errBadBool = errors.New("bad boolean expression")

// runStmts executes a compiled control-flow statement list.
func (sw *Switch) runStmts(stmts []stmt, ps *packetState, tr *Trace) error {
	for i := range stmts {
		s := &stmts[i]
		switch s.kind {
		case ast.StmtApply:
			if err := sw.applyTable(s.apply, ps, tr); err != nil {
				return err
			}
		case ast.StmtIf:
			ok, err := ps.test(s.cond)
			if err != nil {
				return err
			}
			branch := s.then
			if !ok {
				branch = s.els
			}
			if err := sw.runStmts(branch, ps, tr); err != nil {
				return err
			}
		case ast.StmtCall:
			if s.call == nil {
				return fmt.Errorf("sim: call of unknown control %q", s.name)
			}
			if err := sw.runStmts(s.call.body, ps, tr); err != nil {
				return err
			}
		}
	}
	return nil
}

// applyTable performs one match-action stage: build the key, look up the
// entry, run the action (or default on miss), then any apply-case blocks.
func (sw *Switch) applyTable(a *applyStmt, ps *packetState, tr *Trace) error {
	t := a.t
	if t == nil {
		return fmt.Errorf("sim: no table %q", a.name)
	}
	if err := sw.quarCheck(ps); err != nil {
		return err
	}
	sw.stats.tableApplies.Add(1)
	var entry *Entry
	if inj := sw.injector; inj != nil && inj.ForceMiss(sw.attrOf(ps), a.name) {
		// Injected lookup miss: skip the lookup, run the default action.
	} else {
		var err error
		if entry, err = t.lookup(ps); err != nil {
			return fmt.Errorf("sim: table %s: %w", a.name, err)
		}
	}
	tr.recordApply(a.name, t, entry, ps.inEgress)

	hit := entry != nil
	actName, act, args := t.defaultAction, t.defaultAct, t.defaultArgs
	if hit {
		t.metrics.hits.Add(1)
		entry.hits.Add(1)
		actName, act, args = entry.Action, entry.act, entry.Args
	} else {
		t.metrics.misses.Add(1)
		if actName != "" {
			t.metrics.defaults.Add(1)
		}
	}
	ran := noAction
	if actName != "" {
		if err := sw.runAction(act, actName, args, ps, tr, 0); err != nil {
			return fmt.Errorf("sim: table %s action %s: %w", a.name, actName, err)
		}
		ran = act.id
	}
	// Apply-case blocks: hit {} / miss {} / per-action {}.
	for i := range a.cases {
		c := &a.cases[i]
		run := false
		switch {
		case c.hit:
			run = hit
		case c.miss:
			run = !hit
		default:
			run = ran == c.action
		}
		if run {
			if err := sw.runStmts(c.body, ps, tr); err != nil {
				return err
			}
		}
	}
	return nil
}

// runAction executes a compound action with args bound to its parameters.
// act is nil when name is not a declared action.
func (sw *Switch) runAction(act *action, name string, args []bitfield.Value, ps *packetState, tr *Trace, depth int) error {
	if depth >= maxActionDepth {
		return fmt.Errorf("action nesting exceeds %d", maxActionDepth)
	}
	if act == nil {
		return fmt.Errorf("unknown action %q", name)
	}
	sw.metrics.actionCounts[act.id].Add(1)
	if inj := sw.injector; inj != nil {
		// May panic to simulate a defect in the action body; Process
		// recovers it into a FaultPanic.
		inj.Action(sw.attrOf(ps), act.name)
	}
	if len(args) != act.params {
		return fmt.Errorf("action %s wants %d args, got %d", act.name, act.params, len(args))
	}
	body := sw.actionBody(act)
	for i := range body {
		if err := sw.runOp(&body[i], args, ps, tr, depth); err != nil {
			return err
		}
	}
	return nil
}

// eval evaluates an operand at its width hint (its natural width when the
// hint is 0). The result may alias a constant, an action argument or tmp, so
// it is read-only and valid until tmp is reused.
func (ps *packetState) eval(o *operand, args []bitfield.Value, tmp *bitfield.Value) (bitfield.Value, error) {
	switch o.kind {
	case opndConst:
		return o.c, nil
	case opndField:
		f := o.f
		src, err := ps.fieldVal(f)
		if err != nil {
			return bitfield.Value{}, err
		}
		loc := f.loc
		switch w := o.width; {
		case w == 0 || w == loc.width:
			src.SliceInto(tmp, loc.off, loc.width)
		case w < loc.width: // keep the low w bits
			src.SliceInto(tmp, loc.off+loc.width-w, w)
		default: // zero-extend
			tmp.Reset(w)
			tmp.InsertBits(w-loc.width, *src, loc.off, loc.width)
		}
		return *tmp, nil
	case opndParam:
		v := args[o.param]
		if w := o.width; w != 0 && v.Width() != w {
			tmp.Reset(w)
			tmp.SetFrom(v)
			return *tmp, nil
		}
		return v, nil
	}
	return bitfield.Value{}, o.f.err
}

// test evaluates an if condition.
func (ps *packetState) test(c *cond) (bool, error) {
	switch c.kind {
	case ast.BoolValid:
		slot, err := ps.slotFor(c.hdr)
		if err != nil {
			return false, err
		}
		return ps.headers[slot].valid, nil
	case ast.BoolAnd:
		l, err := ps.test(c.a)
		if err != nil || !l {
			return false, err
		}
		return ps.test(c.b)
	case ast.BoolOr:
		l, err := ps.test(c.a)
		if err != nil || l {
			return l, err
		}
		return ps.test(c.b)
	case ast.BoolNot:
		v, err := ps.test(c.a)
		return !v, err
	case ast.BoolCmp:
		l, err := ps.eval(&c.l, nil, &ps.tmp[0])
		if err != nil {
			return false, err
		}
		r, err := ps.eval(&c.r, nil, &ps.tmp[1])
		if err != nil {
			return false, err
		}
		switch c.op {
		case ast.OpEq:
			return l.Equal(r), nil
		case ast.OpNe:
			return !l.Equal(r), nil
		case ast.OpLt:
			return l.Cmp(r) < 0, nil
		case ast.OpLe:
			return l.Cmp(r) <= 0, nil
		case ast.OpGt:
			return l.Cmp(r) > 0, nil
		case ast.OpGe:
			return l.Cmp(r) >= 0, nil
		}
	}
	return false, errBadBool
}
