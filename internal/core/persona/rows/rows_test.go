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

// PortOwner takes the first matching t_assign row in precedence order, and
// answers "unknown" once an undecodable row, which might claim any port,
// comes first.
func TestPortOwner(t *testing.T) {
	row := func(val, mask uint64, pid int, args ...bitfield.Value) Assign {
		if args == nil {
			args = []bitfield.Value{bitfield.FromUint(persona.ProgramWidth, uint64(pid)), bitfield.FromUint(persona.VPortWidth, 1)}
		}
		return decodeAssign(&sim.Entry{
			Params: []sim.MatchParam{sim.Ternary(bitfield.FromUint(9, val), bitfield.FromUint(9, mask))},
			Action: persona.ActSetProgram, Args: args,
		})
	}
	bad := row(0, 0, 0, bitfield.FromUint(8, 1)) // one arg of two
	if bad.Err == nil {
		t.Fatal("a one-arg set_program row decoded")
	}
	for _, tc := range []struct {
		name   string
		as     []Assign
		port   int
		want   int
		wantOK bool
	}{
		{"specific", []Assign{row(3, 0x1ff, 1), row(0, 0, 2)}, 3, 0, true},
		{"wildcard", []Assign{row(3, 0x1ff, 1), row(0, 0, 2)}, 4, 1, true},
		{"first of equals", []Assign{row(0, 0, 2), row(0, 0, 1)}, 4, 0, true},
		{"none", []Assign{row(3, 0x1ff, 1)}, 4, -1, true},
		{"undecodable first", []Assign{bad, row(4, 0x1ff, 1)}, 4, -1, false},
		{"undecodable after the owner", []Assign{row(4, 0x1ff, 1), bad}, 4, 0, true},
	} {
		if got, ok := PortOwner(tc.as, tc.port); got != tc.want || ok != tc.wantOK {
			t.Errorf("%s: PortOwner = %d, %v; want %d, %v", tc.name, got, ok, tc.want, tc.wantOK)
		}
	}
}
