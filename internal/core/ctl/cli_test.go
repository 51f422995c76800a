package ctl

import (
	"errors"
	"strings"
	"testing"

	"hyper4/internal/core/dpmu"
	"hyper4/internal/core/persona"
	"hyper4/internal/pkt"
	"hyper4/internal/sim"
)

var (
	mac1 = pkt.MustMAC("00:00:00:00:00:01")
	mac2 = pkt.MustMAC("00:00:00:00:00:02")
	ip1  = pkt.MustIP4("10.0.0.1")
	ip2  = pkt.MustIP4("10.0.0.2")
)

// newPersonaCtl builds a control plane over a reference persona switch.
func newPersonaCtl(t testing.TB) *Ctl {
	t.Helper()
	p, err := persona.Generate(persona.Reference)
	if err != nil {
		t.Fatal(err)
	}
	sw, err := sim.New("hp4", p.Program)
	if err != nil {
		t.Fatal(err)
	}
	d, err := dpmu.New(sw, p)
	if err != nil {
		t.Fatal(err)
	}
	return New(d)
}

func tcpFrame(dstPort uint16) []byte {
	return pkt.Pad(pkt.Serialize(
		&pkt.Ethernet{Dst: mac2, Src: mac1, EtherType: pkt.EtherTypeIPv4},
		&pkt.IPv4{TTL: 64, Protocol: pkt.IPProtoTCP, Src: ip1, Dst: ip2},
		&pkt.TCP{SrcPort: 44444, DstPort: dstPort},
		pkt.Payload("data"),
	))
}

// TestCLIFullScenario drives the whole Figure 2(c) flow through text
// commands: load two devices, populate them in their native dialect, wire
// the virtual network, snapshot, and verify traffic at each step.
func TestCLIFullScenario(t *testing.T) {
	c := newPersonaCtl(t)
	cli := NewCLI(c, "op")

	script := `
# two virtual devices
load l2 l2_switch
load fw firewall

# native-dialect population, prefixed by the device name
l2 table_add smac _nop 00:00:00:00:00:01 =>
l2 table_add dmac forward 00:00:00:00:00:01 => 1
l2 table_add smac _nop 00:00:00:00:00:02 =>
l2 table_add dmac forward 00:00:00:00:00:02 => 2
fw table_add dmac forward 00:00:00:00:00:02 => 2
fw table_add tcp_filter _drop 0&&&0 5201&&&0xffff => 1

# wiring
map l2 1 1
map l2 2 2
map fw 2 2
snapshot_save A 1:l2:1 2:l2:2
snapshot_save B 1:fw:1 2:fw:2
snapshot_activate A
`
	if err := cli.ExecAll(script); err != nil {
		t.Fatal(err)
	}
	out, err := cli.Exec("vdevs")
	if err != nil || out != "fw l2" {
		t.Errorf("vdevs = %q, %v", out, err)
	}

	blocked := tcpFrame(5201)
	outs, _, err := c.D.SW.Process(blocked, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 1 {
		t.Fatalf("under A (l2) the frame passes: %+v", outs)
	}
	if _, err := cli.Exec("snapshot_activate B"); err != nil {
		t.Fatal(err)
	}
	outs, _, err = c.D.SW.Process(blocked, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 0 {
		t.Fatalf("under B (fw) the frame drops: %+v", outs)
	}

	// Traffic stats via CLI.
	statsOut, err := cli.Exec("stats fw")
	if err != nil || !strings.HasPrefix(statsOut, "passes=") {
		t.Errorf("stats = %q, %v", statsOut, err)
	}

	// Virtual delete via handle.
	h, err := cli.Exec("l2 table_add dmac forward 00:00:00:00:00:09 => 1")
	if err != nil || !strings.HasPrefix(h, "handle ") {
		t.Fatalf("add = %q, %v", h, err)
	}
	if _, err := cli.Exec("l2 table_delete dmac " + strings.TrimPrefix(h, "handle ")); err != nil {
		t.Fatal(err)
	}

	// Modify through the CLI.
	h2cmd, err := cli.Exec("l2 table_add dmac forward 00:00:00:00:00:0a => 1")
	if err != nil {
		t.Fatal(err)
	}
	handle := strings.TrimPrefix(h2cmd, "handle ")
	if _, err := cli.Exec("l2 table_modify dmac " + handle + " _drop 00:00:00:00:00:0a"); err != nil {
		t.Fatal(err)
	}

	// Unload through the CLI.
	if _, err := cli.Exec("unload fw"); err != nil {
		t.Fatal(err)
	}
	if out, _ := cli.Exec("vdevs"); out != "l2" {
		t.Errorf("after unload: %q", out)
	}
}

func TestCLILinkAndMcast(t *testing.T) {
	c := newPersonaCtl(t)
	cli := NewCLI(c, "op")
	script := `
load src l2_switch
load a l2_switch
load b l2_switch
src table_add dmac forward 00:00:00:00:00:02 => 10
a table_add dmac forward 00:00:00:00:00:02 => 5
b table_add dmac forward 00:00:00:00:00:02 => 6
assign 1 src 1
map a 5 5
map b 6 6
mcast src 10 a:1 b:1
`
	if err := cli.ExecAll(script); err != nil {
		t.Fatal(err)
	}
	frame := pkt.Pad(pkt.Serialize(&pkt.Ethernet{Dst: mac2, Src: mac1, EtherType: 0x0800}))
	outs, _, err := c.D.SW.Process(frame, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 2 {
		t.Fatalf("multicast copies: %+v", outs)
	}
}

// TestCLIErrorCodes asserts not just that bad commands fail, but that each
// failure carries the right structured code — the property hp4switch and
// hp4ctl exit codes are built on.
func TestCLIErrorCodes(t *testing.T) {
	c := newPersonaCtl(t)
	cli := NewCLI(c, "op")
	// vport 11 is mapped, vport 12 carries a multicast group.
	for _, line := range []string{"load l2 l2_switch", "map l2 11 3", "mcast l2 12 l2:1 l2:2"} {
		if _, err := cli.Exec(line); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		cmd  string
		code Code
	}{
		{"load x", CodeInvalidArgument},           // arity
		{"load x nosuchfn", CodeNotFound},         // unknown builtin
		{"load l2 l2_switch", CodeAlreadyExists},  // duplicate device
		{"assign one l2 1", CodeInvalidArgument},  // bad port token
		{"map l2 x 1", CodeInvalidArgument},       // bad vport token
		{"link l2 x l2 1", CodeInvalidArgument},   // bad port token
		{"mcast l2 10 junk", CodeInvalidArgument}, // bad target spec
		{"ratelimit l2 x y", CodeInvalidArgument}, // bad thresholds
		{"stats ghost", CodeNotFound},             // unknown device
		{"snapshot_save", CodeInvalidArgument},    // arity
		{"snapshot_save A port-vdev", CodeInvalidArgument},
		{"snapshot_activate ghost", CodeNotFound},
		{"l2 table_add ghost _nop =>", CodeNotFound},          // unknown table
		{"l2 table_add dmac ghost 1 =>", CodeNotFound},        // unknown action
		{"l2 table_add dmac forward =>", CodeInvalidArgument}, // missing match
		{"l2 table_delete dmac x", CodeInvalidArgument},       // bad handle token
		{"l2 table_delete dmac 999", CodeNotFound},            // unknown handle
		{"l2 bogus_op", CodeInvalidArgument},                  // unknown table op
		{"mcast l2 11 l2:1 l2:2", CodeAlreadyExists},          // a route holds the vport
		{"map l2 12 1", CodeAlreadyExists},                    // a group holds the vport
		{"link l2 12 l2 1", CodeAlreadyExists},
	}
	for _, tc := range cases {
		_, err := cli.Exec(tc.cmd)
		if err == nil {
			t.Errorf("command %q should fail", tc.cmd)
			continue
		}
		if got := CodeOf(err); got != tc.code {
			t.Errorf("command %q: code = %s, want %s (%v)", tc.cmd, got, tc.code, err)
		}
	}

	// A line outside the dialect entirely is distinguishable from a typo
	// inside it: the REPL falls through on ErrUnknown.
	if _, err := cli.Exec("bogus"); !errors.Is(err, ErrUnknown) {
		t.Errorf("non-dialect line: got %v, want ErrUnknown", err)
	}

	// Ownership enforcement: a foreign owner gets PERMISSION_DENIED, never
	// INVALID_ARGUMENT — scripts must be able to tell a typo from an
	// authorization failure.
	mallory := NewCLI(c, "mallory")
	for _, cmd := range []string{
		"unload l2",
		"l2 table_add dmac forward 00:00:00:00:00:02 => 1",
		"stats l2",
	} {
		_, err := mallory.Exec(cmd)
		if err == nil {
			t.Errorf("foreign %q should fail", cmd)
			continue
		}
		if got := CodeOf(err); got != CodePermissionDenied {
			t.Errorf("foreign %q: code = %s, want PERMISSION_DENIED (%v)", cmd, got, err)
		}
	}
}

// TestExitCodes pins the Code -> exit-code mapping scripts depend on.
func TestExitCodes(t *testing.T) {
	cases := map[Code]int{
		CodeOK:               0,
		CodeInternal:         1,
		CodeInvalidArgument:  2,
		CodeNotFound:         3,
		CodePermissionDenied: 4,
		CodeExhausted:        5,
		CodeAborted:          6,
		CodeAlreadyExists:    7,
	}
	for code, want := range cases {
		if got := code.ExitCode(); got != want {
			t.Errorf("%s.ExitCode() = %d, want %d", code, got, want)
		}
	}
}
