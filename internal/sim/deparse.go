package sim

import (
	"fmt"

	"hyper4/internal/bitfield"
	"hyper4/internal/p4/ast"
	"hyper4/internal/pkt"
)

// deparse serializes the packet: calculated-field updates are applied to the
// parsed representation, then every valid header is emitted in parse-graph
// order (HeaderOrder), followed by the unparsed payload, then truncation.
func (sw *Switch) deparse(ps *packetState) ([]byte, error) {
	if err := sw.updateCalculatedFields(ps); err != nil {
		return nil, err
	}
	// Size the output exactly: valid header bytes + remaining payload.
	size := len(ps.data) - ps.consumed
	for _, d := range sw.code.deparse {
		if ps.headers[d.slot].valid {
			size += d.width / 8
		}
	}
	out := make([]byte, 0, size)
	for _, d := range sw.code.deparse {
		if h := &ps.headers[d.slot]; h.valid {
			out = h.value.AppendSliceTo(out, 0, d.width)
		}
	}
	out = append(out, ps.data[ps.consumed:]...)
	if ps.truncateTo > 0 && len(out) > ps.truncateTo {
		out = out[:ps.truncateTo]
	}
	return out, nil
}

// updateCalculatedFields recomputes checksum fields declared with "update".
func (sw *Switch) updateCalculatedFields(ps *packetState) error {
	for i := range sw.code.calcs {
		cf := &sw.code.calcs[i]
		slot, err := ps.slotFor(cf.guard)
		if err != nil {
			return err
		}
		if !ps.headers[slot].valid {
			continue
		}
		if cf.err != nil {
			return cf.err
		}
		// Compute the checksum with the target field zeroed, as checksum
		// algorithms require.
		if err := ps.storeUint(cf.target, 0); err != nil {
			return err
		}
		data, bits, err := ps.serialize(cf.input)
		if err != nil {
			return err
		}
		if bits%8 != 0 {
			return fmt.Errorf("sim: field list %s width %d is not byte aligned", cf.calc.Input, bits)
		}
		if cf.calc.Algorithm != ast.AlgoCsum16 {
			return fmt.Errorf("sim: unsupported checksum algorithm %q", cf.calc.Algorithm)
		}
		sum := uint64(pkt.Checksum(data))
		if w := cf.calc.OutputWidth; w < 64 {
			sum &= 1<<w - 1
		}
		if err := ps.storeUint(cf.target, sum); err != nil {
			return err
		}
	}
	return nil
}

// serialize concatenates a flattened field list's values into bytes in the
// packet state's scratch, appending the payload when the list includes the
// payload token. Checksum inputs are byte-aligned in practice (the csum16
// caller rejects unaligned totals), so each field appends whole bytes.
func (ps *packetState) serialize(fl *fieldList) ([]byte, int, error) {
	out := ps.serBuf[:0]
	bits := 0
	for i := range fl.items {
		it := &fl.items[i]
		src, err := ps.fieldVal(it.f)
		if err != nil {
			return nil, 0, err
		}
		loc := it.f.loc
		if it.aligned {
			out = src.AppendSliceTo(out, loc.off, loc.width)
		} else {
			// Unaligned fields fall back to a value round-trip.
			v := src.Slice(loc.off, loc.width)
			grown := bitfield.New(bits + v.Width())
			grown.Insert(0, bitfield.FromBytes(bits, out))
			grown.Insert(bits, v)
			out = grown.Bytes()
		}
		bits += loc.width
	}
	if fl.payload {
		out = append(out, ps.data[ps.consumed:]...)
	}
	ps.serBuf = out
	return out, bits, nil
}
