package ctl

import (
	"fmt"
	"testing"

	"hyper4/internal/bitfield"
	"hyper4/internal/core/dpmu"
	"hyper4/internal/core/hp4c"
	"hyper4/internal/core/verify"
	"hyper4/internal/functions"
	"hyper4/internal/p4/hlir"
	"hyper4/internal/p4/parser"
	"hyper4/internal/sim"
	"hyper4/internal/sim/runtime"
)

// admissionCase is one table entry in both forms: values for native sim,
// the DPMU and verify, and a table_add line (without the device prefix) for
// the two text surfaces, empty when the values have no text form.
type admissionCase struct {
	name     string
	vdev     string
	table    string
	action   string
	params   []sim.MatchParam
	args     []bitfield.Value
	priority int
	text     string
	accept   bool
	// prioritized cases skip native sim.Tx.TableAdd, which takes any
	// priority: the DPMU installs its own rows there at up to 32 bands.
	prioritized bool
}

func admissionCases() []admissionCase {
	mac := func(w int) []sim.MatchParam { return []sim.MatchParam{sim.ExactUint(w, 2)} }
	port := sim.Args(9, 1)
	cases := []admissionCase{
		{name: "dmac forward", vdev: "l2", table: "dmac", action: "forward", params: mac(48), args: port,
			text: "dmac forward 00:00:00:00:00:02 => 1", accept: true},
		{name: "smac forward not allowed", vdev: "l2", table: "smac", action: "forward", params: mac(48), args: port,
			text: "smac forward 00:00:00:00:00:02 => 1"},
		{name: "dmac 32-bit key", vdev: "l2", table: "dmac", action: "forward", params: mac(32), args: port},
		{name: "dmac 64-bit key", vdev: "l2", table: "dmac", action: "forward", params: mac(64), args: port},
		{name: "tcp_filter exact", vdev: "fw", table: "tcp_filter", action: "_drop",
			params: []sim.MatchParam{sim.ExactUint(16, 0), sim.ExactUint(16, 6000)}, text: "tcp_filter _drop 0 6000 =>"},
		{name: "param count", vdev: "l2", table: "dmac", action: "forward", params: append(mac(48), mac(48)...), args: port,
			text: "dmac forward 00:00:00:00:00:02 00:00:00:00:00:03 => 1"},
		{name: "undeclared action", vdev: "l2", table: "dmac", action: "ghost", params: mac(48), args: port,
			text: "dmac ghost 00:00:00:00:00:02 => 1"},
		{name: "undeclared table", vdev: "l2", table: "ghost", action: "forward", params: mac(48), args: port,
			text: "ghost forward 00:00:00:00:00:02 => 1"},
		{name: "unapplied table", vdev: "l2x", table: "spare", action: "forward", params: mac(48), args: port,
			text: "spare forward 00:00:00:00:00:02 => 1"},
	}
	for _, p := range []int{-5, 99_995, 100_001, 250_000, 1, sim.MaxPriority} {
		cases = append(cases, admissionCase{
			name: fmt.Sprintf("priority %d", p), vdev: "fw", table: "tcp_filter", action: "_drop",
			params:   []sim.MatchParam{sim.TernaryUint(16, 0, 0), sim.TernaryUint(16, 6000, 0xffff)},
			priority: p, text: fmt.Sprintf("tcp_filter _drop 0&&&0 6000&&&0xffff => %d", p),
			accept: p >= 0 && p <= sim.MaxPriority, prioritized: true,
		})
	}
	return cases
}

// spareL2 is l2_switch plus a table its control flow never applies.
const spareL2 = `
table spare {
    reads {
        ethernet.dstAddr : exact;
    }
    actions {
        forward;
    }
}
`

// admissionProgram resolves a case's device program: l2_switch, firewall,
// or l2x, which is l2_switch with spareL2 appended.
func admissionProgram(t *testing.T, vdev string) *hlir.Program {
	t.Helper()
	fns := map[string]string{"l2": functions.L2Switch, "l2x": functions.L2Switch, "fw": functions.Firewall}
	src := functions.Sources[fns[vdev]]
	if vdev == "l2x" {
		src += spareL2
	}
	parsed, err := parser.Parse(vdev, src)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := hlir.Resolve(parsed)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// TestAdmissionParity holds every surface that admits a table entry to one
// answer per case: native sim, dpmu.Tx.TableAdd, ctl text on a persona,
// sim/runtime text on a native switch and verify over the entry. ctl never
// answers INTERNAL. An accepted tcp_filter _drop for TCP/6000 drops the
// frame natively and on the persona alike.
func TestAdmissionParity(t *testing.T) {
	for _, tc := range admissionCases() {
		t.Run(tc.name, func(t *testing.T) {
			prog := admissionProgram(t, tc.vdev)
			native, err := sim.New("native", prog)
			if err != nil {
				t.Fatal(err)
			}
			c := newPersonaCtl(t)
			cli := NewCLI(c, "op")
			comp, err := hp4c.Compile(prog, c.D.Config())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.D.Load(tc.vdev, comp, "op", 0); err != nil {
				t.Fatal(err)
			}
			check := func(surface string, err error) {
				t.Helper()
				if (err == nil) != tc.accept {
					t.Errorf("%s: err = %v, want accept=%t", surface, err, tc.accept)
				}
			}

			if !tc.prioritized {
				h, err := native.TableAdd(tc.table, tc.action, tc.params, tc.args, tc.priority)
				check("native sim", err)
				if err == nil {
					if err := native.TableDelete(tc.table, h); err != nil {
						t.Fatal(err)
					}
				}
			}
			spec := dpmu.EntrySpec{Table: tc.table, Action: tc.action, Params: tc.params, Args: tc.args, Priority: tc.priority}
			h, err := c.D.TableAdd("op", tc.vdev, spec)
			check("dpmu", err)
			if err == nil {
				if err := c.D.TableDelete("op", tc.vdev, tc.table, h); err != nil {
					t.Fatal(err)
				}
			}
			v, err := c.D.VDev(tc.vdev)
			if err != nil {
				t.Fatal(err)
			}
			fs := verify.Entries(v.Comp, []verify.Entry{{Handle: 1, Table: tc.table, Action: tc.action, Params: tc.params, Args: tc.args, Priority: tc.priority}})
			if verify.HasErrors(fs) == tc.accept {
				t.Errorf("verify: findings %v, want accept=%t", fs, tc.accept)
			}
			if tc.text == "" {
				return
			}
			_, err = runtime.New(native).Exec("table_add " + tc.text)
			check("sim/runtime text", err)
			_, err = cli.Exec(tc.vdev + " table_add " + tc.text)
			check("ctl text", err)
			if code := CodeOf(err); code == CodeInternal {
				t.Errorf("ctl text: code %s: %v", code, err)
			}
			if tc.accept && tc.prioritized {
				requireTCP6000Drops(t, native, c, cli)
			}
		})
	}
}

// requireTCP6000Drops wires both firewalls to forward to port 2 and sends a
// TCP/6000 frame, which the tcp_filter entry just added must drop on both.
func requireTCP6000Drops(t *testing.T, native *sim.Switch, c *Ctl, cli *CLI) {
	t.Helper()
	if _, err := runtime.New(native).Exec("table_add dmac forward 00:00:00:00:00:02 => 2"); err != nil {
		t.Fatal(err)
	}
	if err := cli.ExecAll("fw table_add dmac forward 00:00:00:00:00:02 => 2\nmap fw 2 2\nassign 1 fw 1"); err != nil {
		t.Fatal(err)
	}
	for name, process := range map[string]func([]byte, int) ([]sim.Output, *sim.Trace, error){
		"native": native.Process, "persona": c.D.SW.Process,
	} {
		for _, tc := range []struct {
			port uint16
			outs int
		}{{6000, 0}, {6001, 1}} {
			outs, _, err := process(tcpFrame(tc.port), 1)
			if err != nil {
				t.Fatal(err)
			}
			if len(outs) != tc.outs {
				t.Errorf("%s: TCP/%d gave %d outputs, want %d", name, tc.port, len(outs), tc.outs)
			}
		}
	}
}
