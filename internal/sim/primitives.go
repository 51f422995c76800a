package sim

import (
	"fmt"

	"hyper4/internal/bitfield"
	"hyper4/internal/p4/hlir"
)

// runOp executes one compiled primitive, or a nested compound action, with
// args bound to the enclosing action's parameters. Operands evaluate and
// references resolve in the order the primitive names them: when several
// are at fault, the packet fails with the first one's error.
func (sw *Switch) runOp(o *op, args []bitfield.Value, ps *packetState, tr *Trace, depth int) error {
	opnds, aux, df := o.args, o.aux, o.dst
	if o.code == opCall {
		vals := make([]bitfield.Value, len(opnds))
		for i := range opnds {
			v, err := ps.eval(&opnds[i], args, &ps.tmp[0])
			if err != nil {
				return err
			}
			vals[i] = v.Clone()
		}
		return sw.runAction(aux.callee, aux.name, vals, ps, tr, depth+1)
	}

	tr.Primitives++
	tmp := &ps.tmp
	switch o.code {
	case opFail:
		return aux.err

	case opNop:
		return nil

	case opModify:
		v, err := ps.eval(&opnds[0], args, &tmp[0])
		if err != nil {
			return err
		}
		if len(opnds) == 1 {
			return ps.store(df, v)
		}
		mask, err := ps.eval(&opnds[1], args, &tmp[1])
		if err != nil {
			return err
		}
		dst, err := ps.fieldVal(df)
		if err != nil {
			return err
		}
		// dst = v&mask | dst&^mask
		loc := df.loc
		v.SliceInto(&tmp[2], 0, loc.width)
		tmp[2].AndWith(mask)
		mask.SliceInto(&tmp[3], 0, loc.width)
		tmp[3].NotSelf()
		dst.SliceInto(&tmp[4], loc.off, loc.width)
		tmp[4].AndWith(tmp[3])
		tmp[2].OrWith(tmp[4])
		dst.Insert(loc.off, tmp[2])
		return nil

	case opAddTo, opSubFrom:
		amt, err := ps.eval(&opnds[0], args, &tmp[0])
		if err != nil {
			return err
		}
		dst, err := ps.fieldVal(df)
		if err != nil {
			return err
		}
		loc := df.loc
		dst.SliceInto(&tmp[1], loc.off, loc.width)
		if o.code == opAddTo {
			tmp[1].AddWith(amt)
		} else {
			tmp[1].SubWith(amt)
		}
		dst.Insert(loc.off, tmp[1])
		return nil

	case opAdd, opSub, opAnd, opOr, opXor:
		a, err := ps.eval(&opnds[0], args, &tmp[0])
		if err != nil {
			return err
		}
		b, err := ps.eval(&opnds[1], args, &tmp[1])
		if err != nil {
			return err
		}
		// a may alias a constant or an entry argument: combine in tmp[2].
		out := &tmp[2]
		a.SliceInto(out, 0, a.Width())
		switch o.code {
		case opAdd:
			out.AddWith(b)
		case opSub:
			out.SubWith(b)
		case opAnd:
			out.AndWith(b)
		case opOr:
			out.OrWith(b)
		case opXor:
			out.XorWith(b)
		}
		return ps.store(df, *out)

	case opShl, opShr:
		a, err := ps.eval(&opnds[0], args, &tmp[0])
		if err != nil {
			return err
		}
		shv, err := ps.eval(&opnds[1], args, &tmp[1])
		if err != nil {
			return err
		}
		n := int(shv.Uint64())
		if o.code == opShl {
			return ps.store(df, a.Shl(n))
		}
		return ps.store(df, a.Shr(n))

	case opDrop:
		ps.dropped = true
		ps.setStdMeta(stdEgressSpec, hlir.DropSpec)
		return nil

	case opAddHeader:
		slot, err := ps.slotFor(o.hdrs[0])
		if err != nil {
			return err
		}
		h := &ps.headers[slot]
		if !h.valid {
			h.valid = true
			h.value.Zero()
		}
		return nil

	case opRemoveHeader:
		slot, err := ps.slotFor(o.hdrs[0])
		if err != nil {
			return err
		}
		ps.headers[slot].valid = false
		return nil

	case opCopyHeader:
		dst, err := ps.slotFor(o.hdrs[0])
		if err != nil {
			return err
		}
		src, err := ps.slotFor(o.hdrs[1])
		if err != nil {
			return err
		}
		sh := &ps.headers[src]
		dh := &ps.headers[dst]
		dh.valid = sh.valid
		dh.value.SetFrom(sh.value)
		return nil

	case opResubmit:
		ps.resubmitRaised = true
		if aux != nil {
			if aux.err != nil {
				return aux.err
			}
			ps.resubmitList = aux.list
		}
		return nil

	case opRecirculate:
		ps.recircRaised = true
		if aux != nil {
			if aux.err != nil {
				return aux.err
			}
			ps.recircList = aux.list
		}
		return nil

	case opCloneI2E, opCloneE2E:
		sess, err := ps.eval(&opnds[0], args, &tmp[0])
		if err != nil {
			return err
		}
		if o.code == opCloneI2E {
			ps.cloneI2ERaised = true
			ps.cloneI2ESession = int(sess.Uint64())
		} else {
			ps.cloneE2ERaised = true
			ps.cloneE2ESession = int(sess.Uint64())
		}
		// The field list is not consulted: a clone copies all metadata.
		if aux != nil {
			return aux.err
		}
		return nil

	case opCount:
		idx, err := ps.eval(&opnds[0], args, &tmp[0])
		if err != nil {
			return err
		}
		if aux.ctr == nil {
			return fmt.Errorf("sim: no counter %q", aux.name)
		}
		return aux.ctr.inc(aux.name, int(idx.Uint64()), len(ps.data))

	case opMeter:
		idx, err := ps.eval(&opnds[0], args, &tmp[0])
		if err != nil {
			return err
		}
		if df.err != nil {
			return df.err
		}
		if aux.mtr == nil {
			return fmt.Errorf("sim: no meter %q", aux.name)
		}
		color, err := aux.mtr.execute(aux.name, int(idx.Uint64()), len(ps.data))
		if err != nil {
			return err
		}
		return ps.storeUint(df, uint64(color))

	case opRegRead:
		idx, err := ps.eval(&opnds[0], args, &tmp[0])
		if err != nil {
			return err
		}
		if aux.reg == nil {
			return fmt.Errorf("sim: no register %q", aux.name)
		}
		tmp[1].Reset(df.loc.width)
		if err := aux.reg.readInto(aux.name, int(idx.Uint64()), &tmp[1]); err != nil {
			return err
		}
		return ps.store(df, tmp[1])

	case opRegWrite:
		idx, err := ps.eval(&opnds[0], args, &tmp[0])
		if err != nil {
			return err
		}
		src, err := ps.eval(&opnds[1], args, &tmp[1])
		if err != nil {
			return err
		}
		if aux.reg == nil {
			return fmt.Errorf("sim: no register %q", aux.name)
		}
		return aux.reg.write(aux.name, int(idx.Uint64()), src)

	case opTruncate:
		n, err := ps.eval(&opnds[0], args, &tmp[0])
		if err != nil {
			return err
		}
		ps.truncateTo = int(n.Uint64())
		return nil
	}
	return fmt.Errorf("sim: bad opcode %d", o.code)
}
