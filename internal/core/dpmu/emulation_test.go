package dpmu

import (
	"bytes"
	"testing"

	"hyper4/internal/core/hp4c"
	"hyper4/internal/core/persona"
	"hyper4/internal/functions"
	"hyper4/internal/pkt"
	"hyper4/internal/sim"
)

var (
	mac1 = pkt.MustMAC("00:00:00:00:00:01")
	mac2 = pkt.MustMAC("00:00:00:00:00:02")
	ip1  = pkt.MustIP4("10.0.0.1")
	ip2  = pkt.MustIP4("10.0.0.2")
)

// newPersonaDPMU builds a reference persona switch with a DPMU.
func newPersonaDPMU(t testing.TB) *DPMU {
	t.Helper()
	p, err := persona.Generate(persona.Reference)
	if err != nil {
		t.Fatal(err)
	}
	sw, err := sim.New("hp4", p.Program)
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(sw, p)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func compileFn(t testing.TB, name string) *hp4c.Compiled {
	t.Helper()
	prog, err := functions.Load(name)
	if err != nil {
		t.Fatal(err)
	}
	comp, err := hp4c.Compile(prog, persona.Reference)
	if err != nil {
		t.Fatal(err)
	}
	return comp
}

// loadL2 loads an emulated L2 switch with hosts on virtual ports 1 and 2
// mapped to the same-numbered physical ports.
func loadL2(t *testing.T, d *DPMU, name, owner string) {
	t.Helper()
	comp := compileFn(t, functions.L2Switch)
	if _, err := d.Load(name, comp, owner, 0); err != nil {
		t.Fatal(err)
	}
	c := functions.NewL2ControllerFunc(d.Installer(owner, name))
	if err := c.AddHost(mac1, 1); err != nil {
		t.Fatal(err)
	}
	if err := c.AddHost(mac2, 2); err != nil {
		t.Fatal(err)
	}
	for _, port := range []int{1, 2} {
		if err := d.AssignPort(owner, Assignment{PhysPort: port, VDev: name, VIngress: port}); err != nil {
			t.Fatal(err)
		}
		if err := d.MapVPort(owner, name, port, port); err != nil {
			t.Fatal(err)
		}
	}
}

func TestEmulatedL2SwitchForwards(t *testing.T) {
	d := newPersonaDPMU(t)
	loadL2(t, d, "l2", "alice")
	frame := pkt.Pad(pkt.Serialize(&pkt.Ethernet{Dst: mac2, Src: mac1, EtherType: 0x0800}, pkt.Payload("hello!")))
	out, tr, err := d.SW.Process(frame, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].Port != 2 {
		t.Fatalf("outputs: %+v (trace tables: %v)", out, tr.ApplyLog)
	}
	if !bytes.Equal(out[0].Data, frame) {
		t.Errorf("emulated L2 must not modify the frame:\n got %x\nwant %x", out[0].Data, frame)
	}
	// The paper's Table 1: emulated L2 switch ≈ 13 matches, no resubmits.
	if tr.Resubmits != 0 {
		t.Errorf("L2 emulation should not resubmit (frame fits the default extraction): %d", tr.Resubmits)
	}
	t.Logf("emulated l2 applies=%d (paper: 13)", tr.Applies)
	if tr.Applies < 8 || tr.Applies > 20 {
		t.Errorf("emulated applies = %d, expected near 13", tr.Applies)
	}
}

func TestEmulatedL2UnknownDstDrops(t *testing.T) {
	d := newPersonaDPMU(t)
	loadL2(t, d, "l2", "alice")
	frame := pkt.Pad(pkt.Serialize(&pkt.Ethernet{Dst: pkt.MustMAC("00:00:00:00:00:99"), Src: mac1, EtherType: 0x0800}))
	out, _, err := d.SW.Process(frame, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Fatalf("unknown destination should drop: %+v", out)
	}
}
