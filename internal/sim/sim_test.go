package sim

import (
	"bytes"
	"testing"

	"hyper4/internal/bitfield"
	"hyper4/internal/p4/hlir"
	"hyper4/internal/p4/parser"
	"hyper4/internal/pkt"
)

func load(t testing.TB, src string) *Switch {
	t.Helper()
	prog, err := parser.Parse("test", src)
	if err != nil {
		t.Fatal(err)
	}
	h, err := hlir.Resolve(prog)
	if err != nil {
		t.Fatal(err)
	}
	sw, err := New("s1", h)
	if err != nil {
		t.Fatal(err)
	}
	return sw
}

const l2Src = `
header_type ethernet_t { fields { dstAddr : 48; srcAddr : 48; etherType : 16; } }
header ethernet_t ethernet;
parser start { extract(ethernet); return ingress; }
action forward(port) { modify_field(standard_metadata.egress_spec, port); }
action _drop() { drop(); }
table dmac { reads { ethernet.dstAddr : exact; } actions { forward; _drop; } }
control ingress { apply(dmac); }
`

func ethFrame(dst, src string, et uint16, payload string) []byte {
	return pkt.Serialize(
		&pkt.Ethernet{Dst: pkt.MustMAC(dst), Src: pkt.MustMAC(src), EtherType: et},
		pkt.Payload(payload),
	)
}

func TestExactForward(t *testing.T) {
	sw := load(t, l2Src)
	mac := pkt.MustMAC("00:00:00:00:00:02")
	if _, err := sw.TableAdd("dmac", "forward",
		[]MatchParam{Exact(bitfield.FromBytes(48, mac[:]))}, Args(9, 3), 0); err != nil {
		t.Fatal(err)
	}
	frame := ethFrame("00:00:00:00:00:02", "00:00:00:00:00:01", 0x1234, "hi")
	out, tr, err := sw.Process(frame, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].Port != 3 {
		t.Fatalf("outputs = %+v", out)
	}
	if !bytes.Equal(out[0].Data, frame) {
		t.Errorf("frame modified: %x vs %x", out[0].Data, frame)
	}
	if tr.Applies != 1 || tr.Hits != 1 {
		t.Errorf("trace: %+v", tr)
	}
}

func TestMissDefaultsToDrop(t *testing.T) {
	sw := load(t, l2Src)
	out, tr, err := sw.Process(ethFrame("00:00:00:00:00:09", "00:00:00:00:00:01", 0x1234, ""), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Fatalf("miss with no default should drop, got %+v", out)
	}
	if tr.Misses != 1 {
		t.Errorf("trace: %+v", tr)
	}
}

func TestDefaultAction(t *testing.T) {
	sw := load(t, l2Src)
	if err := sw.TableSetDefault("dmac", "forward", Args(9, 7)); err != nil {
		t.Fatal(err)
	}
	out, _, err := sw.Process(ethFrame("00:00:00:00:00:09", "00:00:00:00:00:01", 0, ""), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].Port != 7 {
		t.Fatalf("default action should forward to 7: %+v", out)
	}
}

func TestDropAction(t *testing.T) {
	sw := load(t, l2Src)
	mac := pkt.MustMAC("00:00:00:00:00:02")
	if _, err := sw.TableAdd("dmac", "_drop",
		[]MatchParam{Exact(bitfield.FromBytes(48, mac[:]))}, nil, 0); err != nil {
		t.Fatal(err)
	}
	out, _, err := sw.Process(ethFrame("00:00:00:00:00:02", "00:00:00:00:00:01", 0, ""), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Fatalf("drop action should drop: %+v", out)
	}
}

func TestTableRuntimeErrors(t *testing.T) {
	sw := load(t, l2Src)
	if _, err := sw.TableAdd("ghost", "forward", nil, nil, 0); err == nil {
		t.Error("unknown table should error")
	}
	if _, err := sw.TableAdd("dmac", "ghost", []MatchParam{ExactUint(48, 1)}, nil, 0); err == nil {
		t.Error("unknown action should error")
	}
	if _, err := sw.TableAdd("dmac", "forward", []MatchParam{}, Args(9, 1), 0); err == nil {
		t.Error("wrong param count should error")
	}
	if _, err := sw.TableAdd("dmac", "forward", []MatchParam{ExactUint(16, 1)}, Args(9, 1), 0); err == nil {
		t.Error("wrong key width should error")
	}
	if _, err := sw.TableAdd("dmac", "forward", []MatchParam{TernaryUint(48, 1, 1)}, Args(9, 1), 0); err == nil {
		t.Error("wrong match kind should error")
	}
	if _, err := sw.TableAdd("dmac", "forward", []MatchParam{ExactUint(48, 1)}, nil, 0); err == nil {
		t.Error("wrong arg count should error")
	}
}

func TestTableDeleteModify(t *testing.T) {
	sw := load(t, l2Src)
	h, err := sw.TableAdd("dmac", "forward", []MatchParam{ExactUint(48, 2)}, Args(9, 3), 0)
	if err != nil {
		t.Fatal(err)
	}
	frame := ethFrame("00:00:00:00:00:02", "00:00:00:00:00:01", 0, "")
	if err := sw.TableModify("dmac", h, "forward", Args(9, 5)); err != nil {
		t.Fatal(err)
	}
	out, _, _ := sw.Process(frame, 1)
	if len(out) != 1 || out[0].Port != 5 {
		t.Fatalf("after modify: %+v", out)
	}
	if err := sw.TableDelete("dmac", h); err != nil {
		t.Fatal(err)
	}
	out, _, _ = sw.Process(frame, 1)
	if len(out) != 0 {
		t.Fatalf("after delete: %+v", out)
	}
	if err := sw.TableDelete("dmac", h); err == nil {
		t.Error("double delete should error")
	}
	hs, _ := sw.TableEntries("dmac")
	if len(hs) != 0 {
		t.Errorf("entries: %v", hs)
	}
}

const ternarySrc = `
header_type h_t { fields { a : 16; } }
header h_t h;
parser start { extract(h); return ingress; }
action out(port) { modify_field(standard_metadata.egress_spec, port); }
table t { reads { h.a : ternary; } actions { out; } }
control ingress { apply(t); }
`

func TestTernaryPriority(t *testing.T) {
	sw := load(t, ternarySrc)
	// Catch-all at low precedence (high number), specific at high precedence.
	if _, err := sw.TableAdd("t", "out", []MatchParam{TernaryUint(16, 0, 0)}, Args(9, 1), 100); err != nil {
		t.Fatal(err)
	}
	if _, err := sw.TableAdd("t", "out", []MatchParam{TernaryUint(16, 0xab00, 0xff00)}, Args(9, 2), 1); err != nil {
		t.Fatal(err)
	}
	out, tr, err := sw.Process([]byte{0xab, 0xcd}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if out[0].Port != 2 {
		t.Fatalf("specific entry should win: %+v", out)
	}
	if tr.TernaryMatches != 1 || tr.TernaryBitsTotal != 16 || tr.TernaryBitsActive != 8 {
		t.Errorf("ternary trace: %+v", tr)
	}
	out, _, err = sw.Process([]byte{0x11, 0x22}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if out[0].Port != 1 {
		t.Fatalf("catch-all should match: %+v", out)
	}
}

const lpmSrc = `
header_type h_t { fields { ip : 32; } }
header h_t h;
parser start { extract(h); return ingress; }
action out(port) { modify_field(standard_metadata.egress_spec, port); }
table t { reads { h.ip : lpm; } actions { out; } }
control ingress { apply(t); }
`

func TestLPMLongestWins(t *testing.T) {
	sw := load(t, lpmSrc)
	if _, err := sw.TableAdd("t", "out", []MatchParam{LPM(bitfield.FromUint(32, 0x0a000000), 8)}, Args(9, 1), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := sw.TableAdd("t", "out", []MatchParam{LPM(bitfield.FromUint(32, 0x0a000100), 24)}, Args(9, 2), 0); err != nil {
		t.Fatal(err)
	}
	out, _, err := sw.Process([]byte{10, 0, 1, 2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if out[0].Port != 2 {
		t.Fatalf("/24 should win: %+v", out)
	}
	out, _, _ = sw.Process([]byte{10, 9, 9, 9}, 0)
	if out[0].Port != 1 {
		t.Fatalf("/8 should match: %+v", out)
	}
	out, _, _ = sw.Process([]byte{11, 0, 0, 1}, 0)
	if len(out) != 0 {
		t.Fatalf("no prefix should drop: %+v", out)
	}
}

const rangeValidSrc = `
header_type a_t { fields { x : 16; } }
header a_t a;
header a_t b;
parser start {
    extract(a);
    return select(latest.x) {
        1 : parse_b;
        default : ingress;
    }
}
parser parse_b { extract(b); return ingress; }
action out(port) { modify_field(standard_metadata.egress_spec, port); }
table t { reads { valid(b) : exact; a.x : range; } actions { out; } }
control ingress { apply(t); }
`

func TestRangeAndValidMatch(t *testing.T) {
	sw := load(t, rangeValidSrc)
	if _, err := sw.TableAdd("t", "out",
		[]MatchParam{Valid(true), Range(bitfield.FromUint(16, 0), bitfield.FromUint(16, 10))}, Args(9, 4), 0); err != nil {
		t.Fatal(err)
	}
	// a.x = 1 → b extracted and in range → match.
	out, _, err := sw.Process([]byte{0, 1, 0, 99}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].Port != 4 {
		t.Fatalf("valid+range should match: %+v", out)
	}
	// a.x = 5: in range but b not valid → miss.
	out, _, _ = sw.Process([]byte{0, 5, 0, 0}, 0)
	if len(out) != 0 {
		t.Fatalf("invalid b should miss: %+v", out)
	}
	// a.x = 1 but wait, range is on a.x: value 1 is within [0,10]... craft
	// a.x = 1 with second short; covered above. Now out-of-range: a.x=1 only
	// triggers extraction; use an entry bound tighter to check the range arm.
	if err := sw.TableClear("t"); err != nil {
		t.Fatal(err)
	}
	if _, err := sw.TableAdd("t", "out",
		[]MatchParam{Valid(true), Range(bitfield.FromUint(16, 5), bitfield.FromUint(16, 10))}, Args(9, 4), 0); err != nil {
		t.Fatal(err)
	}
	out, _, _ = sw.Process([]byte{0, 1, 0, 0}, 0)
	if len(out) != 0 {
		t.Fatalf("a.x=1 outside [5,10] should miss: %+v", out)
	}
}

const primSrc = `
header_type h_t { fields { a : 16; b : 16; c : 16; } }
header h_t h;
metadata h_t m;
parser start { extract(h); return ingress; }
action math() {
    add_to_field(h.a, 1);
    subtract_from_field(h.b, 2);
    bit_and(m.a, h.a, h.b);
    bit_or(m.b, h.a, h.b);
    bit_xor(m.c, h.a, h.b);
    add(h.c, m.a, m.b);
    shift_left(m.a, m.a, 4);
    shift_right(m.b, m.b, 4);
    modify_field(h.a, m.c);
    subtract(h.b, m.b, m.a);
    modify_field(standard_metadata.egress_spec, 1);
}
table t { actions { math; } }
control ingress { apply(t); }
`

func TestArithmeticPrimitives(t *testing.T) {
	sw := load(t, primSrc)
	if err := sw.TableSetDefault("t", "math", nil); err != nil {
		t.Fatal(err)
	}
	// h.a=0x0010, h.b=0x0022, h.c=0
	out, tr, err := sw.Process([]byte{0x00, 0x10, 0x00, 0x22, 0x00, 0x00}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 {
		t.Fatal("should emit")
	}
	// After add/sub: a=0x11, b=0x20. and=0x00, or=0x31, xor=0x31.
	// c = 0x00 + 0x31 = 0x31. m.a=0x00<<4=0, m.b=0x31>>4=0x03.
	// h.a = xor = 0x31. h.b = m.b - m.a = 3.
	want := []byte{0x00, 0x31, 0x00, 0x03, 0x00, 0x31}
	if !bytes.Equal(out[0].Data, want) {
		t.Errorf("data = %x, want %x", out[0].Data, want)
	}
	if tr.Primitives != 11 {
		t.Errorf("primitives = %d", tr.Primitives)
	}
}

const headerOpsSrc = `
header_type o_t { fields { v : 8; } }
header o_t h1;
header o_t h2;
parser start {
    extract(h1);
    return select(latest.v) {
        2 : parse_h2;
        default : ingress;
    }
}
parser parse_h2 { extract(h2); return ingress; }
action grow() {
    add_header(h2);
    modify_field(h2.v, 0xee);
    modify_field(standard_metadata.egress_spec, 1);
}
action shrink() {
    remove_header(h2);
    modify_field(standard_metadata.egress_spec, 1);
}
action dup() {
    add_header(h2);
    copy_header(h2, h1);
    modify_field(standard_metadata.egress_spec, 1);
}
table t { reads { h1.v : exact; } actions { grow; shrink; dup; } }
control ingress { apply(t); }
`

func TestAddRemoveCopyHeader(t *testing.T) {
	sw := load(t, headerOpsSrc)
	mustAdd := func(v uint64, action string) {
		t.Helper()
		if _, err := sw.TableAdd("t", action, []MatchParam{ExactUint(8, v)}, nil, 0); err != nil {
			t.Fatal(err)
		}
	}
	mustAdd(1, "grow")
	mustAdd(2, "shrink")
	mustAdd(3, "dup")

	// grow: h1=01 → emit 01 ee + payload.
	out, _, err := sw.Process([]byte{0x01, 0x99}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out[0].Data, []byte{0x01, 0xee, 0x99}) {
		t.Errorf("grow = %x", out[0].Data)
	}
	// shrink: h1=02 causes h2 extraction then removal → 02 + payload.
	out, _, err = sw.Process([]byte{0x02, 0x55, 0x77}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out[0].Data, []byte{0x02, 0x77}) {
		t.Errorf("shrink = %x", out[0].Data)
	}
	// dup: h1=03 → h2 copied from h1 → 03 03.
	out, _, err = sw.Process([]byte{0x03}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out[0].Data, []byte{0x03, 0x03}) {
		t.Errorf("dup = %x", out[0].Data)
	}
}

const resubmitSrc = `
header_type h_t { fields { v : 8; } }
header h_t h;
header_type m_t { fields { round : 8; } }
metadata m_t m;
field_list keep { m.round; }
action again() { add_to_field(m.round, 1); resubmit(keep); }
action out() { modify_field(standard_metadata.egress_spec, 2); }
parser start { extract(h); return ingress; }
table t { reads { m.round : exact; } actions { again; out; } }
control ingress { apply(t); }
`

func TestResubmitPreservesFieldList(t *testing.T) {
	sw := load(t, resubmitSrc)
	if _, err := sw.TableAdd("t", "again", []MatchParam{ExactUint(8, 0)}, nil, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := sw.TableAdd("t", "again", []MatchParam{ExactUint(8, 1)}, nil, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := sw.TableAdd("t", "out", []MatchParam{ExactUint(8, 2)}, nil, 0); err != nil {
		t.Fatal(err)
	}
	out, tr, err := sw.Process([]byte{0xaa}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].Port != 2 {
		t.Fatalf("outputs: %+v", out)
	}
	if tr.Resubmits != 2 || tr.Passes != 3 {
		t.Errorf("trace: resubmits=%d passes=%d", tr.Resubmits, tr.Passes)
	}
	if !bytes.Equal(out[0].Data, []byte{0xaa}) {
		t.Errorf("resubmit should reprocess the original bytes: %x", out[0].Data)
	}
}

const recircSrc = `
header_type h_t { fields { v : 8; } }
header h_t h;
header_type m_t { fields { hops : 8; } }
metadata m_t m;
field_list keep { m.hops; }
action bump() {
    add_to_field(h.v, 1);
    modify_field(standard_metadata.egress_spec, 5);
}
table t { actions { bump; } }
action loop() { add_to_field(m.hops, 1); recirculate(keep); }
action pass() { no_op(); }
table e { reads { m.hops : exact; } actions { loop; pass; } }
parser start { extract(h); return ingress; }
control ingress { apply(t); }
control egress { apply(e); }
`

func TestRecirculateCarriesModifiedPacket(t *testing.T) {
	sw := load(t, recircSrc)
	if err := sw.TableSetDefault("t", "bump", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := sw.TableAdd("e", "loop", []MatchParam{ExactUint(8, 0)}, nil, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := sw.TableAdd("e", "pass", []MatchParam{ExactUint(8, 1)}, nil, 0); err != nil {
		t.Fatal(err)
	}
	out, tr, err := sw.Process([]byte{0x10}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].Port != 5 {
		t.Fatalf("outputs: %+v", out)
	}
	// Recirculated once: ingress bump ran twice on the evolving packet.
	if !bytes.Equal(out[0].Data, []byte{0x12}) {
		t.Errorf("data = %x, want 12", out[0].Data)
	}
	if tr.Recirculates != 1 {
		t.Errorf("recirculates = %d", tr.Recirculates)
	}
}

const cloneSrc = `
header_type h_t { fields { v : 8; } }
header h_t h;
parser start { extract(h); return ingress; }
action fwd_and_clone() {
    modify_field(standard_metadata.egress_spec, 1);
    clone_ingress_pkt_to_egress(7);
}
table t { actions { fwd_and_clone; } }
control ingress { apply(t); }
`

func TestCloneI2E(t *testing.T) {
	sw := load(t, cloneSrc)
	sw.SetMirror(7, 9)
	if err := sw.TableSetDefault("t", "fwd_and_clone", nil); err != nil {
		t.Fatal(err)
	}
	out, tr, err := sw.Process([]byte{0x42}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("want 2 outputs (original + clone): %+v", out)
	}
	ports := map[int]bool{}
	for _, o := range out {
		ports[o.Port] = true
		if !bytes.Equal(o.Data, []byte{0x42}) {
			t.Errorf("clone data = %x", o.Data)
		}
	}
	if !ports[1] || !ports[9] {
		t.Errorf("ports = %v", ports)
	}
	if tr.ClonesI2E != 1 {
		t.Errorf("clones = %d", tr.ClonesI2E)
	}
}

func TestCloneWithoutMirrorIsNoOp(t *testing.T) {
	sw := load(t, cloneSrc)
	if err := sw.TableSetDefault("t", "fwd_and_clone", nil); err != nil {
		t.Fatal(err)
	}
	out, _, err := sw.Process([]byte{0x42}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 {
		t.Fatalf("unconfigured session should only emit original: %+v", out)
	}
}

const statefulSrc = `
header_type h_t { fields { v : 8; } }
header h_t h;
register seen { width : 16; instance_count : 4; }
counter hits { type : packets; instance_count : 4; }
meter rate { type : packets; instance_count : 2; }
header_type m_t { fields { color : 8; prev : 16; } }
metadata m_t m;
action track(idx) {
    register_read(m.prev, seen, idx);
    add_to_field(m.prev, 1);
    register_write(seen, idx, m.prev);
    count(hits, idx);
    execute_meter(rate, 0, m.color);
    modify_field(h.v, m.color);
    modify_field(standard_metadata.egress_spec, 1);
}
table t { actions { track; } }
parser start { extract(h); return ingress; }
control ingress { apply(t); }
`

func TestStatefulObjects(t *testing.T) {
	sw := load(t, statefulSrc)
	if err := sw.TableSetDefault("t", "track", Args(32, 2)); err != nil {
		t.Fatal(err)
	}
	if err := sw.MeterSetRates("rate", 0, 2, 4); err != nil {
		t.Fatal(err)
	}
	var lastColor byte
	for i := 0; i < 5; i++ {
		out, _, err := sw.Process([]byte{0}, 0)
		if err != nil {
			t.Fatal(err)
		}
		lastColor = out[0].Data[0]
	}
	v, err := sw.RegisterRead("seen", 2)
	if err != nil {
		t.Fatal(err)
	}
	if v.Uint64() != 5 {
		t.Errorf("register = %d, want 5", v.Uint64())
	}
	pkts, _, err := sw.CounterRead("hits", 2)
	if err != nil {
		t.Fatal(err)
	}
	if pkts != 5 {
		t.Errorf("counter = %d, want 5", pkts)
	}
	if lastColor != MeterRed {
		t.Errorf("5th packet color = %d, want red (%d)", lastColor, MeterRed)
	}
	if err := sw.MeterTick("rate"); err != nil {
		t.Fatal(err)
	}
	out, _, _ := sw.Process([]byte{0}, 0)
	if out[0].Data[0] != MeterGreen {
		t.Errorf("after tick color = %d, want green", out[0].Data[0])
	}
	// Out-of-range and unknown-name errors.
	if _, err := sw.RegisterRead("seen", 99); err == nil {
		t.Error("register index out of range should error")
	}
	if _, err := sw.RegisterRead("ghost", 0); err == nil {
		t.Error("unknown register should error")
	}
	if _, _, err := sw.CounterRead("ghost", 0); err == nil {
		t.Error("unknown counter should error")
	}
	if err := sw.CounterReset("hits", 2); err != nil {
		t.Fatal(err)
	}
	pkts, _, _ = sw.CounterRead("hits", 2)
	if pkts != 0 {
		t.Errorf("after reset = %d", pkts)
	}
}

const checksumSrc = `
header_type ipv4_t {
    fields {
        verIhl : 8; tos : 8; totalLen : 16;
        id : 16; flagsFrag : 16;
        ttl : 8; protocol : 8; hdrChecksum : 16;
        srcAddr : 32; dstAddr : 32;
    }
}
header ipv4_t ipv4;
field_list ipv4_fl {
    ipv4.verIhl; ipv4.tos; ipv4.totalLen;
    ipv4.id; ipv4.flagsFrag;
    ipv4.ttl; ipv4.protocol;
    ipv4.srcAddr; ipv4.dstAddr;
}
field_list_calculation ipv4_csum {
    input { ipv4_fl; }
    algorithm : csum16;
    output_width : 16;
}
calculated_field ipv4.hdrChecksum {
    update ipv4_csum if (valid(ipv4));
}
parser start { extract(ipv4); return ingress; }
action route() {
    add_to_field(ipv4.ttl, 0xff);
    modify_field(standard_metadata.egress_spec, 1);
}
table t { actions { route; } }
control ingress { apply(t); }
`

func TestCalculatedFieldChecksum(t *testing.T) {
	sw := load(t, checksumSrc)
	if err := sw.TableSetDefault("t", "route", nil); err != nil {
		t.Fatal(err)
	}
	ip := &pkt.IPv4{TTL: 64, Protocol: pkt.IPProtoUDP, TotalLen: 20,
		Src: pkt.MustIP4("10.0.0.1"), Dst: pkt.MustIP4("10.0.0.2")}
	in := ip.Serialize(nil)
	out, _, err := sw.Process(in, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := pkt.DecodeIPv4(out[0].Data)
	if err != nil {
		t.Fatal(err)
	}
	if got.TTL != 63 {
		t.Errorf("ttl = %d, want 63", got.TTL)
	}
	// The recomputed checksum over the emitted header must verify.
	if pkt.Checksum(out[0].Data[:20]) != 0 {
		t.Errorf("checksum does not verify: %x", out[0].Data)
	}
	if got.Checksum == 0 {
		t.Error("checksum not written")
	}
}

const truncateSrc = `
header_type h_t { fields { v : 8; } }
header h_t h;
parser start { extract(h); return ingress; }
action cut() { truncate(2); modify_field(standard_metadata.egress_spec, 1); }
table t { actions { cut; } }
control ingress { apply(t); }
`

func TestTruncate(t *testing.T) {
	sw := load(t, truncateSrc)
	if err := sw.TableSetDefault("t", "cut", nil); err != nil {
		t.Fatal(err)
	}
	out, _, err := sw.Process([]byte{1, 2, 3, 4, 5}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out[0].Data, []byte{1, 2}) {
		t.Errorf("truncated = %x", out[0].Data)
	}
}

const loopSrc = `
header_type h_t { fields { v : 8; } }
header h_t h;
action again() { resubmit(); }
table t { actions { again; } }
parser start { extract(h); return ingress; }
control ingress { apply(t); }
`

func TestInfiniteLoopIsBounded(t *testing.T) {
	sw := load(t, loopSrc)
	if err := sw.TableSetDefault("t", "again", nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := sw.Process([]byte{1}, 0); err == nil {
		t.Fatal("unbounded resubmit loop should error")
	}
}

const stackSrc = `
header_type u_t { fields { b : 8; } }
header u_t ext[4];
header_type m_t { fields { n : 8; } }
metadata m_t m;
parser start {
    extract(ext[next]);
    extract(ext[next]);
    return ingress;
}
action gather() {
    modify_field(m.n, ext[1].b);
    modify_field(ext[0].b, m.n);
    modify_field(standard_metadata.egress_spec, 1);
}
table t { actions { gather; } }
control ingress { apply(t); }
`

func TestHeaderStackNextAndDeparse(t *testing.T) {
	sw := load(t, stackSrc)
	if err := sw.TableSetDefault("t", "gather", nil); err != nil {
		t.Fatal(err)
	}
	out, tr, err := sw.Process([]byte{0xaa, 0xbb, 0xcc}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// ext[0]=aa, ext[1]=bb → ext[0] overwritten with bb; payload cc kept.
	if !bytes.Equal(out[0].Data, []byte{0xbb, 0xbb, 0xcc}) {
		t.Errorf("data = %x", out[0].Data)
	}
	if tr.Extracts != 2 {
		t.Errorf("extracts = %d", tr.Extracts)
	}
}

func TestSelectWithMask(t *testing.T) {
	sw := load(t, `
header_type h_t { fields { v : 8; } }
header h_t h;
header h_t h2;
parser start {
    extract(h);
    return select(latest.v) {
        0x40 mask 0xf0 : more;
        default : ingress;
    }
}
parser more { extract(h2); return ingress; }
action out() { modify_field(standard_metadata.egress_spec, 1); }
table t { reads { valid(h2) : exact; } actions { out; } }
control ingress { apply(t); }
`)
	if _, err := sw.TableAdd("t", "out", []MatchParam{Valid(true)}, nil, 0); err != nil {
		t.Fatal(err)
	}
	out, _, _ := sw.Process([]byte{0x45, 0x01}, 0)
	if len(out) != 1 {
		t.Fatal("0x45 should match mask case and extract h2")
	}
	out, _, _ = sw.Process([]byte{0x52, 0x01}, 0)
	if len(out) != 0 {
		t.Fatal("0x52 should not match mask case")
	}
}

func TestSelectNoDefaultDrops(t *testing.T) {
	sw := load(t, `
header_type h_t { fields { v : 8; } }
header h_t h;
parser start {
    extract(h);
    return select(latest.v) {
        1 : ingress;
    }
}
action out() { modify_field(standard_metadata.egress_spec, 1); }
table t { actions { out; } }
control ingress { apply(t); }
`)
	if err := sw.TableSetDefault("t", "out", nil); err != nil {
		t.Fatal(err)
	}
	out, _, err := sw.Process([]byte{9}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Fatalf("unmatched select without default should drop: %+v", out)
	}
	out, _, _ = sw.Process([]byte{1}, 0)
	if len(out) != 1 {
		t.Fatal("matched case should pass")
	}
}

func TestApplyHitMissBlocks(t *testing.T) {
	sw := load(t, `
header_type h_t { fields { v : 8; } }
header h_t h;
parser start { extract(h); return ingress; }
action nop() { no_op(); }
action mark(x) { modify_field(h.v, x); }
action out() { modify_field(standard_metadata.egress_spec, 1); }
table first { reads { h.v : exact; } actions { nop; } }
table onhit { actions { mark; } }
table onmiss { actions { mark; } }
table sender { actions { out; } }
control ingress {
    apply(first) {
        hit { apply(onhit); }
        miss { apply(onmiss); }
    }
    apply(sender);
}
`)
	if _, err := sw.TableAdd("first", "nop", []MatchParam{ExactUint(8, 1)}, nil, 0); err != nil {
		t.Fatal(err)
	}
	if err := sw.TableSetDefault("onhit", "mark", Args(8, 0xaa)); err != nil {
		t.Fatal(err)
	}
	if err := sw.TableSetDefault("onmiss", "mark", Args(8, 0xbb)); err != nil {
		t.Fatal(err)
	}
	if err := sw.TableSetDefault("sender", "out", nil); err != nil {
		t.Fatal(err)
	}
	out, _, err := sw.Process([]byte{1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if out[0].Data[0] != 0xaa {
		t.Errorf("hit block: %x", out[0].Data)
	}
	out, _, err = sw.Process([]byte{9}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if out[0].Data[0] != 0xbb {
		t.Errorf("miss block: %x", out[0].Data)
	}
}
