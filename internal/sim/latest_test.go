package sim

import (
	"bytes"
	"errors"
	"testing"
)

// These tests pin where latest.X resolves when the program is compiled and
// where it stays per packet. After a scalar extract in the same state the
// header is known statically; after a stack [next] extract the element is
// the one just extracted; in a state that extracts nothing it is whichever
// header an earlier state extracted last; before any extract it is an error.

// latestRoutes sends packets whose p header parsed to port 1, others to 2.
const latestRoutes = `
action out(port) { modify_field(standard_metadata.egress_spec, port); }
table with_p { actions { out; } }
table without_p { actions { out; } }
control ingress { if (valid(p)) { apply(with_p); } else { apply(without_p); } }
`

const latestHeaders = `
header_type h_t { fields { v : 8; } }
header h_t h;
header_type p_t { fields { x : 8; } }
header p_t p;
parser parse_p { extract(p); return ingress; }
`

func latestSwitch(t *testing.T, parser string) *Switch {
	t.Helper()
	sw := load(t, latestHeaders+parser+latestRoutes)
	if err := sw.TableSetDefault("with_p", "out", Args(9, 1)); err != nil {
		t.Fatal(err)
	}
	if err := sw.TableSetDefault("without_p", "out", Args(9, 2)); err != nil {
		t.Fatal(err)
	}
	return sw
}

// wantLatest processes data and checks the output port, the bytes and the
// parser's extract count.
func wantLatest(t *testing.T, sw *Switch, data []byte, port, extracts int) {
	t.Helper()
	out, tr, err := sw.Process(data, 0)
	if err != nil {
		t.Fatalf("%x: %v", data, err)
	}
	if len(out) != 1 || out[0].Port != port || !bytes.Equal(out[0].Data, data) {
		t.Fatalf("%x: outputs %+v, want %x on port %d", data, out, data, port)
	}
	if tr.Extracts != extracts || tr.Applies != 1 || tr.Primitives != 1 || tr.Passes != 1 {
		t.Fatalf("%x: trace %+v, want %d extracts, 1 apply, 1 primitive, 1 pass", data, tr, extracts)
	}
}

func TestLatestAfterScalarExtract(t *testing.T) {
	sw := latestSwitch(t, `
parser start { extract(h); return select(latest.v) { 1 : parse_p; default : ingress; } }
`)
	wantLatest(t, sw, []byte{1, 0xaa, 0xbb}, 1, 2)
	wantLatest(t, sw, []byte{2, 0xaa, 0xbb}, 2, 1)
}

func TestLatestInStateWithoutExtract(t *testing.T) {
	sw := latestSwitch(t, `
parser start { extract(h); return check; }
parser check { return select(latest.v) { 1 : parse_p; default : ingress; } }
`)
	wantLatest(t, sw, []byte{1, 0xaa, 0xbb}, 1, 2)
	wantLatest(t, sw, []byte{3, 0xaa, 0xbb}, 2, 1)
}

func TestLatestAfterStackNextExtract(t *testing.T) {
	// Each pass through start extracts the next stack element and loops
	// until one is zero: latest must be the element just extracted, not the
	// stack's first.
	sw := load(t, `
header_type b_t { fields { v : 8; } }
header b_t ext[4];
parser start { extract(ext[next]); return select(latest.v) { 0 : ingress; default : start; } }
action out(port) { modify_field(standard_metadata.egress_spec, port); }
table t { actions { out; } }
control ingress { apply(t); }
`)
	if err := sw.TableSetDefault("t", "out", Args(9, 3)); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		data     []byte
		extracts int
	}{
		{[]byte{0, 9, 9}, 1},
		{[]byte{5, 7, 0, 9}, 3},
		{[]byte{5, 7, 6, 0}, 4},
	} {
		out, tr, err := sw.Process(c.data, 0)
		if err != nil {
			t.Fatalf("%x: %v", c.data, err)
		}
		if len(out) != 1 || out[0].Port != 3 || !bytes.Equal(out[0].Data, c.data) {
			t.Fatalf("%x: outputs %+v", c.data, out)
		}
		if tr.Extracts != c.extracts {
			t.Fatalf("%x: %d extracts, want %d", c.data, tr.Extracts, c.extracts)
		}
	}
	// A fifth nonzero element overflows the stack.
	_, _, err := sw.Process([]byte{5, 7, 6, 4, 1}, 0)
	var f *PacketFault
	if !errors.As(err, &f) || f.Kind != FaultParse || f.Msg != `sim: stack "ext" element 4 out of range` {
		t.Fatalf("overflow: %v", err)
	}
}

func TestLatestBeforeAnyExtract(t *testing.T) {
	sw := latestSwitch(t, `
parser start { return select(latest.v) { 1 : parse_p; default : ingress; } }
`)
	_, _, err := sw.Process([]byte{1, 2}, 0)
	var f *PacketFault
	if !errors.As(err, &f) || f.Kind != FaultParse || f.Msg != "sim: select(latest.v) before any extract" {
		t.Fatalf("got %v, want a parse fault before any extract", err)
	}
}
