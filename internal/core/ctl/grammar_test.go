package ctl

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"hyper4/internal/core/dpmu"
	"hyper4/internal/functions"
	"hyper4/internal/sim"
	"hyper4/internal/sim/runtime"
)

// TestTableAddGrammarsAgree feeds the same table_add lines to the native
// switch CLI (internal/sim/runtime) and to the control plane (ParseLine,
// then entrySpec against a virtual device of the same function). Both must
// accept or reject each line alike and, when they accept it, produce the
// same match params, action args and priority — LPM priorities included.
func TestTableAddGrammarsAgree(t *testing.T) {
	c := newPersonaCtl(t)
	mustBatch(t, c, "op", []Op{
		{Kind: OpLoadVDev, VDev: "router", Function: functions.Router},
		{Kind: OpLoadVDev, VDev: "firewall", Function: functions.Firewall},
	})
	native := map[string]*runtime.Runtime{}
	for _, fn := range []string{functions.Router, functions.Firewall} {
		prog, err := functions.Load(fn)
		if err != nil {
			t.Fatal(err)
		}
		sw, err := sim.New(fn, prog)
		if err != nil {
			t.Fatal(err)
		}
		native[fn] = runtime.New(sw)
	}
	for _, tc := range []struct {
		fn, line string
		prio     int
		ok       bool
	}{
		{functions.Router, "table_add ipv4_lpm set_nhop 10.0.0.0/8 => 10.0.0.1 2", 0, true},
		{functions.Router, "table_add ipv4_lpm set_nhop 10.0.0.0/8 => 10.0.0.1 2 7", 7, true},
		{functions.Router, "table_add ipv4_lpm set_nhop 10.0.0.0/8 => 10.0.0.1", 0, false},
		{functions.Router, "table_add ipv4_lpm set_nhop 10.0.0.0/8 => 10.0.0.1 2 x", 0, false},
		{functions.Router, "table_add ipv4_lpm set_nhop 10.0.0.0 => 10.0.0.1 2", 0, false},
		{functions.Router, "table_add forward set_dmac 10.0.0.1 => 00:00:00:00:00:01", 0, true},
		{functions.Router, "table_add forward set_dmac 10.0.0.1 => 00:00:00:00:00:01 3", 0, false},
		{functions.Router, "table_add forward set_dmac 10.0.0.1 10.0.0.2 => 00:00:00:00:00:01", 0, false},
		{functions.Firewall, "table_add tcp_filter _drop 0&&&0 5201&&&0xffff => 3", 3, true},
		{functions.Firewall, "table_add tcp_filter _drop 0&&&0 5201&&&0xffff =>", 0, true},
		{functions.Firewall, "table_add tcp_filter _drop 0&&&0 5201 => 3", 0, false},
	} {
		var nat *sim.Entry
		out, nerr := native[tc.fn].Exec(tc.line)
		if nerr == nil {
			es, err := native[tc.fn].SW.TableEntriesOrdered(strings.Fields(tc.line)[1])
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range es {
				if fmt.Sprintf("handle %d", e.Handle) == out {
					nat = e
				}
			}
		}
		op, _, err := ParseLine(tc.fn + " " + tc.line)
		if err != nil {
			t.Fatalf("%q: ParseLine: %v", tc.line, err)
		}
		var s dpmu.EntrySpec
		var cerr error
		_ = c.D.Update(func(tx *dpmu.Tx) error {
			s, cerr = c.entrySpec(tx, op)
			return nil
		})
		if (cerr == nil) != tc.ok || (nerr == nil) != tc.ok {
			t.Fatalf("%q: native err %v, ctl err %v; want ok=%v", tc.line, nerr, cerr, tc.ok)
		}
		if !tc.ok {
			continue
		}
		if nat == nil {
			t.Fatalf("%q: native entry not found after %q", tc.line, out)
		}
		if s.Priority != tc.prio || nat.Priority != tc.prio {
			t.Errorf("%q: priority native %d, ctl %d; want %d", tc.line, nat.Priority, s.Priority, tc.prio)
		}
		if !reflect.DeepEqual(s.Params, nat.Params) || !reflect.DeepEqual(s.Args, nat.Args) {
			t.Errorf("%q: native params %+v args %v, ctl params %+v args %v", tc.line, nat.Params, nat.Args, s.Params, s.Args)
		}
	}
}
