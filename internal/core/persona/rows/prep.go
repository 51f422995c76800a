package rows

import (
	"fmt"
	"math/bits"

	"hyper4/internal/bitfield"
	"hyper4/internal/core/persona"
	"hyper4/internal/sim"
)

// The a_prep_* row format, read from and written to the shape in
// persona.Opcodes. The persona isolates a field at bit offset O, width W of
// a T-bit store embedded at the low end of the EW-bit scratch with a double
// shift, tmp = (tmp << (EW-T+O)) >> (EW-W), so:
//
//	dmask   = MaskRange(T, O, W) resized (right-aligned) to EW bits
//	dshift  = T-O-W
//	slshift = EW-T+O, srshift = EW-W (over the source store)
//	cval    = the constant, ConstWidth bits

func storeWidth(s persona.Store, ew int) int {
	if s == persona.StoreMeta {
		return persona.MetaWidth
	}
	return ew
}

func prepOpcode(action string) (persona.Opcode, bool) {
	for _, o := range persona.Opcodes {
		if action == "a_prep_"+o.Name {
			return o, true
		}
	}
	return persona.Opcode{}, false
}

// DecodePrep inverts one a_prep_* row into its Op (Exec left nil). Every
// argument must have its declared width and every derived shift must agree
// with the others: a row the encoder could not have produced is an error,
// so no consumer ever guesses at its meaning.
func DecodePrep(e *sim.Entry, ew int) (Op, error) {
	oc, ok := prepOpcode(e.Action)
	if !ok {
		return Op{}, fmt.Errorf("unknown prep action %q", e.Action)
	}
	if len(e.Args) != oc.Arity {
		return Op{}, fmt.Errorf("%s arity %d, want %d", e.Action, len(e.Args), oc.Arity)
	}
	op := Op{Code: oc.Code, Dst: oc.Dst, Src: oc.Src, Prep: e}
	args := e.Args
	shift := func(i int) (int, error) {
		if args[i].Width() != persona.ShiftWidth {
			return 0, fmt.Errorf("shift arg %d is %d bits, want %d", i, args[i].Width(), persona.ShiftWidth)
		}
		return int(args[i].Uint64()), nil
	}
	if oc.Dst != persona.StoreNone {
		dshift, err := shift(1)
		if err != nil {
			return Op{}, err
		}
		if op.DstOff, op.DstW, err = decodeDstMask(args[0], dshift, storeWidth(oc.Dst, ew), ew); err != nil {
			return Op{}, err
		}
		args = args[2:]
	}
	if oc.Src != persona.StoreNone {
		sl, err := shift(0)
		if err != nil {
			return Op{}, err
		}
		sr, err := shift(1)
		if err != nil {
			return Op{}, err
		}
		total := storeWidth(oc.Src, ew)
		op.SrcOff, op.SrcW = sl-ew+total, ew-sr
		if op.SrcOff < 0 || op.SrcW <= 0 || op.SrcOff+op.SrcW > total {
			return Op{}, fmt.Errorf("source slice [%d,%d) outside %d-bit field", op.SrcOff, op.SrcOff+op.SrcW, total)
		}
		if oc.HasConst() && (op.SrcOff != op.DstOff || op.SrcW != op.DstW) {
			return Op{}, fmt.Errorf("add shift encoding mismatch: reads [%d,%d), writes [%d,%d)", op.SrcOff, op.SrcOff+op.SrcW, op.DstOff, op.DstOff+op.DstW)
		}
		args = args[2:]
	}
	if oc.HasConst() {
		if args[0].Width() != persona.ConstWidth {
			return Op{}, fmt.Errorf("cval is %d bits, want %d", args[0].Width(), persona.ConstWidth)
		}
		op.Const = args[0].Uint64()
	}
	return op, nil
}

// decodeDstMask recovers (off, w) from dmask and dshift, requiring the mask
// to be exactly one contiguous run inside the dstTotal-bit store (no stray
// bits anywhere in the ew-bit mask) and dshift to agree with it.
func decodeDstMask(dmask bitfield.Value, dshift, dstTotal, ew int) (int, int, error) {
	if dmask.Width() != ew {
		return 0, 0, fmt.Errorf("dmask width %d, want %d", dmask.Width(), ew)
	}
	w := dmask.PopCount()
	if w == 0 {
		return 0, 0, fmt.Errorf("empty dmask")
	}
	f := 0 // the mask's first set bit
	for ; ; f += 64 {
		n := min(64, ew-f)
		if x := dmask.UintAt(f, n); x != 0 {
			f += n - bits.Len64(x)
			break
		}
	}
	off := f - (ew - dstTotal)
	if off < 0 || off+w > dstTotal {
		return 0, 0, fmt.Errorf("dmask run [%d,%d) outside %d-bit field", off, off+w, dstTotal)
	}
	if !dmask.Equal(bitfield.MaskRange(dstTotal, off, w).Resize(ew)) {
		return 0, 0, fmt.Errorf("dmask is not one contiguous run")
	}
	if dshift != dstTotal-off-w {
		return 0, 0, fmt.Errorf("dshift %d disagrees with dmask run [%d,%d)", dshift, off, off+w)
	}
	return off, w, nil
}

// EncodePrep is DecodePrep's inverse: the a_prep_* action and args that
// realize op (an add's source geometry is taken from its destination).
func EncodePrep(op Op, ew int) (string, []bitfield.Value, error) {
	oc, ok := persona.OpcodeOf(op.Code)
	if !ok {
		return "", nil, fmt.Errorf("opcode %d has no prep action", op.Code)
	}
	sh := func(n int) bitfield.Value { return bitfield.FromUint(persona.ShiftWidth, uint64(n)) }
	var args []bitfield.Value
	if oc.Dst != persona.StoreNone {
		total := storeWidth(oc.Dst, ew)
		args = append(args, bitfield.MaskRange(total, op.DstOff, op.DstW).Resize(ew), sh(total-op.DstOff-op.DstW))
	}
	if oc.Src != persona.StoreNone {
		off, w := op.SrcOff, op.SrcW
		if oc.HasConst() {
			off, w = op.DstOff, op.DstW
		}
		args = append(args, sh(ew-storeWidth(oc.Src, ew)+off), sh(ew-w))
	}
	if oc.HasConst() {
		args = append(args, bitfield.FromUint(persona.ConstWidth, op.Const))
	}
	return "a_prep_" + oc.Name, args, nil
}
