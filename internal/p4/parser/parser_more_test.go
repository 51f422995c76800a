package parser

import (
	"testing"

	"hyper4/internal/p4/ast"
)

func mustParse(t *testing.T, src string) *ast.Program {
	t.Helper()
	p, err := Parse("t", src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func mustFail(t *testing.T, src string) {
	t.Helper()
	if _, err := Parse("t", src); err == nil {
		t.Fatalf("expected parse error for: %s", src)
	}
}

func TestFieldRefIndexForms(t *testing.T) {
	p := mustParse(t, `
header_type u_t { fields { b : 8; } }
header u_t s[8];
action a() {
    modify_field(s[3].b, 1);
    modify_field(s[last].b, 2);
}
parser start { extract(s[next]); return ingress; }
`)
	body := p.Actions[0].Body
	if body[0].Args[0].Field.Index != 3 {
		t.Errorf("explicit index: %+v", body[0].Args[0].Field)
	}
	if body[1].Args[0].Field.Index != ast.IndexLast {
		t.Errorf("[last]: %+v", body[1].Args[0].Field)
	}
	if p.ParserStates[0].Statements[0].Extract.Index != ast.IndexNext {
		t.Errorf("[next]: %+v", p.ParserStates[0].Statements[0].Extract)
	}
}

func TestFieldRefErrors(t *testing.T) {
	mustFail(t, `action a() { modify_field(h[, 1); }`)
	mustFail(t, `action a() { modify_field(h[1.b, 1); }`)
	mustFail(t, `action a() { modify_field(h., 1); }`)
	mustFail(t, `table t { reads { h.b : } actions { a; } }`)
}

func TestParserStateSetMetadataAndDirect(t *testing.T) {
	p := mustParse(t, `
header_type h_t { fields { v : 8; } }
header h_t h;
header_type m_t { fields { x : 8; } }
metadata m_t m;
parser start {
    set_metadata(m.x, 7);
    extract(h);
    return next_state;
}
parser next_state {
    set_metadata(m.x, h.v);
    return ingress;
}
`)
	st := p.ParserStates[0]
	if st.Statements[0].SetValue.Const.Int64() != 7 {
		t.Errorf("set_metadata const: %+v", st.Statements[0])
	}
	st2 := p.ParserStates[1]
	if st2.Statements[0].SetValue.Kind != ast.ExprField {
		t.Errorf("set_metadata field: %+v", st2.Statements[0])
	}
}

func TestParserStateErrors(t *testing.T) {
	mustFail(t, `parser start { extract(; return ingress; }`)
	mustFail(t, `parser start { set_metadata(m.x); return ingress; }`)
	mustFail(t, `parser start { bogus_stmt(h); return ingress; }`)
	mustFail(t, `parser start { return select(h.v) { zork : ingress; } }`)
	mustFail(t, `parser start { return select() { } }`)
	mustFail(t, `parser start { }`)
	mustFail(t, `parser start { return ingress; extract(h); }`)
}

func TestSelectKeyCurrentAndErrors(t *testing.T) {
	p := mustParse(t, `
header_type h_t { fields { v : 8; } }
header h_t h;
parser start {
    extract(h);
    return select(current(16, 8), h.v) {
        1, 2 : ingress;
        default : ingress;
    }
}
`)
	keys := p.ParserStates[0].Return.SelectKeys
	if !keys[0].IsCurrent || keys[0].CurrentOffset != 16 || keys[0].CurrentWidth != 8 {
		t.Errorf("current key: %+v", keys[0])
	}
	if keys[1].Field == nil {
		t.Errorf("field key: %+v", keys[1])
	}
	mustFail(t, `parser start { return select(current(1)) { default : ingress; } }`)
	mustFail(t, `parser start { return select(latest.) { default : ingress; } }`)
}

func TestCalculatedFieldVerifyAndUpdate(t *testing.T) {
	p := mustParse(t, `
header_type h_t { fields { c : 16; } }
header h_t h;
field_list fl { h.c; }
field_list_calculation calc { input { fl; } algorithm : csum16; output_width : 16; }
calculated_field h.c {
    verify calc;
    update calc;
}
parser start { extract(h); return ingress; }
`)
	cf := p.CalculatedFields[0]
	if cf.Verify != "calc" || cf.Update != "calc" || cf.IfValid != nil {
		t.Errorf("calculated field: %+v", cf)
	}
	mustFail(t, `calculated_field h.c { frobnicate calc; }`)
	mustFail(t, `field_list_calculation c { bogus : 1; }`)
	mustFail(t, `field_list_calculation c { output_width : 16; }`)
}

func TestStatefulDirectBindings(t *testing.T) {
	p := mustParse(t, `
register r { width : 8; instance_count : 4; direct : t; }
counter c { type : bytes; instance_count : 4; direct : t; }
meter m { type : packets; instance_count : 4; direct : t; }
action a() { no_op(); }
table t { actions { a; } }
control ingress { apply(t); }
`)
	if p.Registers[0].DirectTable != "t" {
		t.Errorf("register direct: %+v", p.Registers[0])
	}
	if p.Counters[0].DirectTable != "t" || p.Counters[0].Kind != ast.CounterBytes {
		t.Errorf("counter: %+v", p.Counters[0])
	}
	if p.Meters[0].DirectTable != "t" {
		t.Errorf("meter: %+v", p.Meters[0])
	}
	mustFail(t, `register r { bogus : 1; }`)
	mustFail(t, `counter c { bogus : 1; }`)
	mustFail(t, `meter m { bogus : 1; }`)
	mustFail(t, `register r { width : x; }`)
	mustFail(t, `counter c { instance_count : 4; }`)
	mustFail(t, `meter m { instance_count : 4; }`)
}

func TestHeaderRefArgForms(t *testing.T) {
	p := mustParse(t, `
header_type h_t { fields { v : 8; } }
header h_t a;
header h_t s[4];
action act() {
    add_header(s[2]);
    remove_header(a);
    copy_header(s[next], a);
}
parser start { extract(a); return ingress; }
`)
	body := p.Actions[0].Body
	if body[0].Args[0].Kind != ast.ExprHeader || body[0].Args[0].Header.Index != 2 {
		t.Errorf("add_header arg: %+v", body[0].Args[0])
	}
	// A bare name parses as ExprName; HLIR/sim resolve it as a header.
	if body[1].Args[0].Kind != ast.ExprName {
		t.Errorf("remove_header arg: %+v", body[1].Args[0])
	}
	if body[2].Args[0].Header.Index != ast.IndexNext {
		t.Errorf("copy_header arg: %+v", body[2].Args[0])
	}
}

func TestReadEntryValidWithIndex(t *testing.T) {
	p := mustParse(t, `
header_type h_t { fields { v : 8; } }
header h_t s[4];
action a() { no_op(); }
table t {
    reads {
        valid(s[1]) : exact;
        s[0].v : exact;
    }
    actions { a; }
}
`)
	reads := p.Tables[0].Reads
	if reads[0].Header.Index != 1 {
		t.Errorf("valid index: %+v", reads[0])
	}
	if reads[1].Field.Index != 0 {
		t.Errorf("field index: %+v", reads[1])
	}
	mustFail(t, `table t { reads { valid( : exact; } actions { a; } }`)
}

func TestTableParseErrors(t *testing.T) {
	mustFail(t, `table t { size : x; }`)
	mustFail(t, `table t { default_action : ; }`)
	mustFail(t, `table t { reads { } bogus { } }`)
	mustFail(t, `control ingress { apply(t) { hit } }`)
	mustFail(t, `control ingress { if (x ~ y) { } }`)
	mustFail(t, `control ingress { name(; }`)
	mustFail(t, `table t { reads { h.b : valid; } actions { a; } }`)
	mustFail(t, `control ingress { if (x == 1) { } else { } else(); }`)
}

func TestBooleanOperatorSymbols(t *testing.T) {
	p := mustParse(t, `
header_type m_t { fields { x : 8; } }
metadata m_t m;
action a() { no_op(); }
table t { actions { a; } }
control ingress {
    if ((m.x == 1 || m.x == 2) && !(m.x > 5)) { apply(t); }
}
`)
	cond := p.Controls[0].Body[0].Cond
	if cond.Kind != ast.BoolAnd {
		t.Fatalf("cond: %+v", cond)
	}
	if cond.A.Kind != ast.BoolOr || cond.B.Kind != ast.BoolNot {
		t.Errorf("sub-conditions: %+v / %+v", cond.A, cond.B)
	}
}
