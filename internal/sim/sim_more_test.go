package sim

import (
	"bytes"
	"testing"

	"hyper4/internal/p4/ast"
)

const cloneE2ESrc = `
header_type h_t { fields { v : 8; } }
header h_t h;
parser start { extract(h); return ingress; }
action fwd() { modify_field(standard_metadata.egress_spec, 1); }
table t { actions { fwd; } }
action mirror() { clone_egress_pkt_to_egress(3); }
table e { reads { standard_metadata.instance_type : exact; } actions { mirror; } }
control ingress { apply(t); }
control egress { apply(e); }
`

func TestCloneE2E(t *testing.T) {
	sw := load(t, cloneE2ESrc)
	sw.SetMirror(3, 7)
	if err := sw.TableSetDefault("t", "fwd", nil); err != nil {
		t.Fatal(err)
	}
	// Only normal packets (instance_type 0) trigger the mirror, or the
	// clone would clone itself forever.
	if _, err := sw.TableAdd("e", "mirror", []MatchParam{ExactUint(32, 0)}, nil, 0); err != nil {
		t.Fatal(err)
	}
	out, tr, err := sw.Process([]byte{0xaa, 0xbb}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("want original + clone: %+v", out)
	}
	ports := map[int]bool{}
	for _, o := range out {
		ports[o.Port] = true
		if !bytes.Equal(o.Data, []byte{0xaa, 0xbb}) {
			t.Errorf("data: %x", o.Data)
		}
	}
	if !ports[1] || !ports[7] {
		t.Errorf("ports: %v", ports)
	}
	if tr.ClonesE2E != 1 {
		t.Errorf("clones = %d", tr.ClonesE2E)
	}
}

func TestByteMeter(t *testing.T) {
	sw := load(t, `
header_type h_t { fields { v : 8; } }
header h_t h;
meter bw { type : bytes; instance_count : 1; }
header_type m_t { fields { color : 8; } }
metadata m_t m;
action check() {
    execute_meter(bw, 0, m.color);
    modify_field(h.v, m.color);
    modify_field(standard_metadata.egress_spec, 1);
}
table t { actions { check; } }
parser start { extract(h); return ingress; }
control ingress { apply(t); }
`)
	if err := sw.TableSetDefault("t", "check", nil); err != nil {
		t.Fatal(err)
	}
	// 100-byte yellow threshold: a 64-byte packet stays green, the next
	// crosses into yellow.
	if err := sw.MeterSetRates("bw", 0, 100, 1000); err != nil {
		t.Fatal(err)
	}
	frame := make([]byte, 64)
	out, _, err := sw.Process(frame, 0)
	if err != nil {
		t.Fatal(err)
	}
	if out[0].Data[0] != MeterGreen {
		t.Errorf("first packet color = %d", out[0].Data[0])
	}
	out, _, err = sw.Process(frame, 0)
	if err != nil {
		t.Fatal(err)
	}
	if out[0].Data[0] != MeterYellow {
		t.Errorf("second packet color = %d", out[0].Data[0])
	}
}

func TestIntrospection(t *testing.T) {
	sw := load(t, l2Src)
	reads, err := TableReads(sw.Program(), "dmac")
	if err != nil {
		t.Fatal(err)
	}
	if len(reads) != 1 || reads[0].Kind != ast.MatchExact || reads[0].Width != 48 {
		t.Errorf("reads: %+v", reads)
	}
	if _, err := TableReads(sw.Program(), "ghost"); err == nil {
		t.Error("unknown table should error")
	}
	if n, err := ActionArity(sw.Program(), "forward"); err != nil || n != 1 {
		t.Errorf("arity: %d, %v", n, err)
	}
	if _, err := ActionArity(sw.Program(), "ghost"); err == nil {
		t.Error("unknown action should error")
	}
	names := sw.TableNames()
	if len(names) != 1 || names[0] != "dmac" {
		t.Errorf("names: %v", names)
	}
	if _, err := sw.TableEntryCount("ghost"); err == nil {
		t.Error("unknown table should error")
	}
	if n, err := sw.TableEntryCount("dmac"); err != nil || n != 0 {
		t.Errorf("count: %d, %v", n, err)
	}
}

func TestProgramAccessorAndStats(t *testing.T) {
	sw := load(t, l2Src)
	if sw.Program() == nil {
		t.Fatal("Program() nil")
	}
	if _, _, err := sw.Process(ethFrame("00:00:00:00:00:02", "00:00:00:00:00:01", 0, ""), 1); err != nil {
		t.Fatal(err)
	}
	s := sw.Stats()
	if s.PacketsIn != 1 || s.PacketsDropped != 1 || s.TableApplies == 0 {
		t.Errorf("stats: %+v", s)
	}
}

func TestMaskedModifyField(t *testing.T) {
	sw := load(t, `
header_type h_t { fields { v : 16; } }
header h_t h;
action m() {
    modify_field(h.v, 0xabcd, 0x0ff0);
    modify_field(standard_metadata.egress_spec, 1);
}
table t { actions { m; } }
parser start { extract(h); return ingress; }
control ingress { apply(t); }
`)
	if err := sw.TableSetDefault("t", "m", nil); err != nil {
		t.Fatal(err)
	}
	out, _, err := sw.Process([]byte{0x12, 0x34}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// (0xabcd & 0x0ff0) | (0x1234 & ~0x0ff0) = 0x0bc0 | 0x1004 = 0x1bc4.
	if !bytes.Equal(out[0].Data, []byte{0x1b, 0xc4}) {
		t.Errorf("masked modify = %x", out[0].Data)
	}
}

func TestCopyHeaderValiditySpread(t *testing.T) {
	sw := load(t, `
header_type h_t { fields { v : 8; } }
header h_t a;
header h_t b;
action cp() {
    copy_header(b, a);
    modify_field(standard_metadata.egress_spec, 1);
}
table t { actions { cp; } }
parser start { extract(a); return ingress; }
control ingress { apply(t); }
`)
	if err := sw.TableSetDefault("t", "cp", nil); err != nil {
		t.Fatal(err)
	}
	out, _, err := sw.Process([]byte{0x7e}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// b becomes valid with a's contents; deparse emits both.
	if !bytes.Equal(out[0].Data, []byte{0x7e, 0x7e}) {
		t.Errorf("data: %x", out[0].Data)
	}
}

func TestRuntimeConditionErrors(t *testing.T) {
	// Unknown primitive argument kinds and bad stateful names surface as
	// processing errors.
	sw := load(t, `
header_type h_t { fields { v : 8; } }
header h_t h;
action bad() { register_write(nope, 0, 1); }
table t { actions { bad; } }
parser start { extract(h); return ingress; }
control ingress { apply(t); }
`)
	if err := sw.TableSetDefault("t", "bad", nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := sw.Process([]byte{1}, 0); err == nil {
		t.Fatal("unknown register should error at execution")
	}
}

func TestComparisonOperators(t *testing.T) {
	sw := load(t, `
header_type h_t { fields { v : 8; } }
header h_t h;
action out(p) { modify_field(standard_metadata.egress_spec, p); }
table t1 { actions { out; } }
table t2 { actions { out; } }
parser start { extract(h); return ingress; }
control ingress {
    if (h.v < 10) { apply(t1); }
    if (h.v >= 10 and h.v <= 20) { apply(t2); }
}
`)
	if err := sw.TableSetDefault("t1", "out", Args(9, 1)); err != nil {
		t.Fatal(err)
	}
	if err := sw.TableSetDefault("t2", "out", Args(9, 2)); err != nil {
		t.Fatal(err)
	}
	out, _, _ := sw.Process([]byte{5}, 0)
	if out[0].Port != 1 {
		t.Errorf("v=5 port %d", out[0].Port)
	}
	out, _, _ = sw.Process([]byte{15}, 0)
	if out[0].Port != 2 {
		t.Errorf("v=15 port %d", out[0].Port)
	}
	out, _, _ = sw.Process([]byte{99}, 0)
	if len(out) != 0 {
		t.Errorf("v=99 should drop: %+v", out)
	}
}

func TestResubmitWithoutFieldList(t *testing.T) {
	sw := load(t, `
header_type h_t { fields { v : 8; } }
header h_t h;
header_type m_t { fields { n : 8; } }
metadata m_t m;
action again() { modify_field(m.n, 5); resubmit(); }
action out() { modify_field(standard_metadata.egress_spec, 1); }
table t { reads { m.n : exact; } actions { again; out; } }
parser start { extract(h); return ingress; }
control ingress { apply(t); }
`)
	// Without a field list, metadata resets: m.n is 0 again on the second
	// pass — install out for 0 after the resubmit entry is deleted.
	if _, err := sw.TableAdd("t", "again", []MatchParam{ExactUint(8, 0)}, nil, 0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := sw.Process([]byte{1}, 0); err == nil {
		t.Fatal("resubmit without preservation should loop to the pass bound")
	}
}

func TestEgressOnlyPortOnClone(t *testing.T) {
	sw := load(t, cloneE2ESrc)
	// No mirror configured: clone is a no-op.
	if err := sw.TableSetDefault("t", "fwd", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := sw.TableAdd("e", "mirror", []MatchParam{ExactUint(32, 0)}, nil, 0); err != nil {
		t.Fatal(err)
	}
	out, _, err := sw.Process([]byte{1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 {
		t.Fatalf("outputs: %+v", out)
	}
}
