package rows

import (
	"testing"

	"hyper4/internal/bitfield"
	"hyper4/internal/core/persona"
	"hyper4/internal/sim"
)

// FuzzDecodeRow drives the row decoders with arbitrary action names, arg
// counts, widths and values. None may panic, and any prep row DecodePrep
// accepts must re-encode through the opcode table to exactly the action
// and args it came from — so the decoder accepts nothing the encoder could
// not have written.
func FuzzDecodeRow(f *testing.F) {
	ew := persona.Reference.ExtractedWidth()
	for _, oc := range persona.Opcodes {
		action, args, err := EncodePrep(Op{Code: oc.Code, DstOff: 8, DstW: 16, SrcOff: 40, SrcW: 16, Const: 7}, ew)
		if err != nil {
			f.Fatal(err)
		}
		var seed []byte
		for _, a := range args {
			seed = append(seed, byte(a.Width()>>8), byte(a.Width()))
			seed = append(seed, a.Bytes()...)
		}
		f.Add(action, seed)
	}
	f.Add(persona.ActParseMore, []byte{0, 16, 0, 30, 0, 16, 0, 2})
	f.Add(persona.ActIPv4Csum, []byte{0, 16, 0, 1})
	f.Add("a_prep_", []byte{})

	f.Fuzz(func(t *testing.T, action string, data []byte) {
		// data is a sequence of (16-bit width, value bytes) args, widths
		// capped so a run stays small.
		var args []bitfield.Value
		for len(data) >= 2 && len(args) < 8 {
			w := (int(data[0])<<8 | int(data[1])) % (2*ew + 1)
			data = data[2:]
			n := min((w+7)/8, len(data))
			args = append(args, bitfield.FromBytes(w, data[:n]))
			data = data[n:]
		}
		e := &sim.Entry{Action: action, Args: args}
		if op, err := DecodePrep(e, ew); err == nil {
			reAction, reArgs, err := EncodePrep(op, ew)
			if err != nil {
				t.Fatalf("accepted %s does not re-encode: %v", action, err)
			}
			if reAction != action || len(reArgs) != len(args) {
				t.Fatalf("accepted %s(%d args) re-encodes as %s(%d args)", action, len(args), reAction, len(reArgs))
			}
			for i := range args {
				if !args[i].Equal(reArgs[i]) {
					t.Fatalf("accepted %s arg %d = %v re-encodes as %v", action, i, args[i], reArgs[i])
				}
			}
		}
		_, _ = ParseAction(persona.Reference, action, args)
		tbl := &Tables{cfg: persona.Reference}
		e.Params = []sim.MatchParam{sim.ExactUint(persona.ProgramWidth, 1)}
		_, _ = tbl.decodeCsum(e)
	})
}
