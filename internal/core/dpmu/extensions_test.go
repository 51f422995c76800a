package dpmu

import (
	"bytes"
	"testing"

	"hyper4/internal/functions"
	"hyper4/internal/pkt"
)

// TestVirtualMulticast loads three L2 switches and multicasts traffic from
// the first to the other two (§4.6): one packet in, one copy delivered
// through each target device.
func TestVirtualMulticast(t *testing.T) {
	d := newPersonaDPMU(t)
	const owner = "op"
	comp := compileFn(t, functions.L2Switch)
	for _, name := range []string{"src", "tgt_a", "tgt_b"} {
		if _, err := d.Load(name, comp, owner, 0); err != nil {
			t.Fatal(err)
		}
	}
	// src switches everything to virtual port 10, the multicast port.
	src := functions.NewL2ControllerFunc(d.Installer(owner, "src"))
	if err := src.AddHost(mac2, 10); err != nil {
		t.Fatal(err)
	}
	// Each target forwards to a distinct physical port.
	ca := functions.NewL2ControllerFunc(d.Installer(owner, "tgt_a"))
	if err := ca.AddHost(mac2, 5); err != nil {
		t.Fatal(err)
	}
	cb := functions.NewL2ControllerFunc(d.Installer(owner, "tgt_b"))
	if err := cb.AddHost(mac2, 6); err != nil {
		t.Fatal(err)
	}
	if err := d.AssignPort(owner, Assignment{PhysPort: 1, VDev: "src", VIngress: 1}); err != nil {
		t.Fatal(err)
	}
	for _, tgt := range []string{"tgt_a", "tgt_b"} {
		for _, port := range []int{5, 6} {
			if err := d.MapVPort(owner, tgt, port, port); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := d.MulticastGroup(owner, "src", 10, []VPortRef{
		{VDev: "tgt_a", VIngress: 1},
		{VDev: "tgt_b", VIngress: 1},
	}); err != nil {
		t.Fatal(err)
	}

	frame := pkt.Pad(pkt.Serialize(&pkt.Ethernet{Dst: mac2, Src: mac1, EtherType: 0x0800}, pkt.Payload("mc")))
	outs, tr, err := d.SW.Process(frame, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 2 {
		t.Fatalf("want 2 delivered copies, got %d (tables %v)", len(outs), tr.ApplyLog)
	}
	ports := map[int]bool{}
	for _, o := range outs {
		ports[o.Port] = true
		if !bytes.Equal(o.Data, frame) {
			t.Errorf("copy modified: %x", o.Data)
		}
	}
	if !ports[5] || !ports[6] {
		t.Errorf("copies on ports %v, want 5 and 6", ports)
	}
	if tr.ClonesE2E != 1 || tr.Recirculates != 2 {
		t.Errorf("clones=%d recircs=%d, want 1 clone and 2 recirculations", tr.ClonesE2E, tr.Recirculates)
	}
}

// TestVirtualMulticastThreeWay exercises a longer sequence.
func TestVirtualMulticastThreeWay(t *testing.T) {
	d := newPersonaDPMU(t)
	const owner = "op"
	comp := compileFn(t, functions.L2Switch)
	for _, name := range []string{"src", "t1", "t2", "t3"} {
		if _, err := d.Load(name, comp, owner, 0); err != nil {
			t.Fatal(err)
		}
	}
	src := functions.NewL2ControllerFunc(d.Installer(owner, "src"))
	if err := src.AddHost(mac2, 10); err != nil {
		t.Fatal(err)
	}
	for i, tgt := range []string{"t1", "t2", "t3"} {
		c := functions.NewL2ControllerFunc(d.Installer(owner, tgt))
		if err := c.AddHost(mac2, 5+i); err != nil {
			t.Fatal(err)
		}
		if err := d.MapVPort(owner, tgt, 5+i, 5+i); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.AssignPort(owner, Assignment{PhysPort: 1, VDev: "src", VIngress: 1}); err != nil {
		t.Fatal(err)
	}
	if err := d.MulticastGroup(owner, "src", 10, []VPortRef{
		{VDev: "t1", VIngress: 1}, {VDev: "t2", VIngress: 1}, {VDev: "t3", VIngress: 1},
	}); err != nil {
		t.Fatal(err)
	}
	frame := pkt.Pad(pkt.Serialize(&pkt.Ethernet{Dst: mac2, Src: mac1, EtherType: 0x0800}))
	outs, tr, err := d.SW.Process(frame, 1)
	if err != nil {
		t.Fatal(err)
	}
	ports := map[int]bool{}
	for _, o := range outs {
		ports[o.Port] = true
	}
	if len(outs) != 3 || !ports[5] || !ports[6] || !ports[7] {
		t.Fatalf("want copies on 5,6,7; got %v", ports)
	}
	if tr.ClonesE2E != 2 {
		t.Errorf("clones = %d, want 2", tr.ClonesE2E)
	}
}

// TestMulticastSingleTargetIsLink verifies the degenerate one-target group.
func TestMulticastSingleTargetIsLink(t *testing.T) {
	d := newPersonaDPMU(t)
	const owner = "op"
	comp := compileFn(t, functions.L2Switch)
	for _, name := range []string{"src", "tgt"} {
		if _, err := d.Load(name, comp, owner, 0); err != nil {
			t.Fatal(err)
		}
	}
	src := functions.NewL2ControllerFunc(d.Installer(owner, "src"))
	if err := src.AddHost(mac2, 10); err != nil {
		t.Fatal(err)
	}
	c := functions.NewL2ControllerFunc(d.Installer(owner, "tgt"))
	if err := c.AddHost(mac2, 5); err != nil {
		t.Fatal(err)
	}
	if err := d.MapVPort(owner, "tgt", 5, 5); err != nil {
		t.Fatal(err)
	}
	if err := d.AssignPort(owner, Assignment{PhysPort: 1, VDev: "src", VIngress: 1}); err != nil {
		t.Fatal(err)
	}
	if err := d.MulticastGroup(owner, "src", 10, []VPortRef{{VDev: "tgt", VIngress: 1}}); err != nil {
		t.Fatal(err)
	}
	frame := pkt.Pad(pkt.Serialize(&pkt.Ethernet{Dst: mac2, Src: mac1, EtherType: 0x0800}))
	outs, _, err := d.SW.Process(frame, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 1 || outs[0].Port != 5 {
		t.Fatalf("outs: %+v", outs)
	}
}

func TestMulticastErrors(t *testing.T) {
	d := newPersonaDPMU(t)
	comp := compileFn(t, functions.L2Switch)
	if _, err := d.Load("src", comp, "op", 0); err != nil {
		t.Fatal(err)
	}
	if err := d.MulticastGroup("op", "src", 10, nil); err == nil {
		t.Error("empty group should error")
	}
	if err := d.MulticastGroup("op", "src", 10, []VPortRef{{VDev: "ghost"}}); err == nil {
		t.Error("unknown target should error")
	}
	if err := d.MulticastGroup("mallory", "src", 10, []VPortRef{{VDev: "src"}}); err == nil {
		t.Error("foreign owner should error")
	}
}

// TestIngressPolicing exercises the §4.5 meter: a device limited to 3
// packets per window passes 3 and drops the rest, while another device's
// traffic is unaffected; a new window restores service.
func TestIngressPolicing(t *testing.T) {
	d := newPersonaDPMU(t)
	loadL2(t, d, "limited", "op")
	frame := pkt.Pad(pkt.Serialize(&pkt.Ethernet{Dst: mac2, Src: mac1, EtherType: 0x0800}))

	if err := d.SetRateLimit("op", "limited", 3, 3); err != nil {
		t.Fatal(err)
	}
	delivered := 0
	for i := 0; i < 10; i++ {
		outs, _, err := d.SW.Process(frame, 1)
		if err != nil {
			t.Fatal(err)
		}
		delivered += len(outs)
	}
	if delivered != 3 {
		t.Errorf("delivered %d of 10, want 3 (meter threshold)", delivered)
	}
	// A new window restores the budget.
	if err := d.TickMeters(); err != nil {
		t.Fatal(err)
	}
	outs, _, err := d.SW.Process(frame, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 1 {
		t.Errorf("after tick: %d", len(outs))
	}
	// Authorization still applies.
	if err := d.SetRateLimit("mallory", "limited", 1, 1); err == nil {
		t.Error("foreign rate limit should be rejected")
	}
}

// TestPolicingIsolation verifies one device's red traffic does not affect a
// second device sharing the persona.
func TestPolicingIsolation(t *testing.T) {
	d := newPersonaDPMU(t)
	loadL2(t, d, "noisy", "op")
	d.ClearAssignments()
	comp := compileFn(t, functions.L2Switch)
	if _, err := d.Load("quiet", comp, "op", 0); err != nil {
		t.Fatal(err)
	}
	qc := functions.NewL2ControllerFunc(d.Installer("op", "quiet"))
	if err := qc.AddHost(mac2, 4); err != nil {
		t.Fatal(err)
	}
	if err := d.AssignPort("op", Assignment{PhysPort: 1, VDev: "noisy", VIngress: 1}); err != nil {
		t.Fatal(err)
	}
	if err := d.AssignPort("op", Assignment{PhysPort: 3, VDev: "quiet", VIngress: 3}); err != nil {
		t.Fatal(err)
	}
	if err := d.MapVPort("op", "noisy", 2, 2); err != nil {
		t.Fatal(err)
	}
	if err := d.MapVPort("op", "quiet", 4, 4); err != nil {
		t.Fatal(err)
	}
	if err := d.SetRateLimit("op", "noisy", 0, 0); err != nil { // drop everything
		t.Fatal(err)
	}
	frame := pkt.Pad(pkt.Serialize(&pkt.Ethernet{Dst: mac2, Src: mac1, EtherType: 0x0800}))
	for i := 0; i < 5; i++ {
		outs, _, err := d.SW.Process(frame, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(outs) != 0 {
			t.Fatalf("noisy device should be fully policed: %+v", outs)
		}
	}
	outs, _, err := d.SW.Process(frame, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 1 || outs[0].Port != 4 {
		t.Fatalf("quiet device must be unaffected: %+v", outs)
	}
}

// TestTrafficStats verifies the per-device monitoring counters: pipeline
// passes (including resubmissions) are attributed to the right device.
func TestTrafficStats(t *testing.T) {
	d := newPersonaDPMU(t)
	loadFirewall(t, d, "fw", "op")
	loadL2(t, d, "l2", "op")
	d.ClearAssignments()
	if err := d.AssignPort("op", Assignment{PhysPort: 1, VDev: "fw", VIngress: 1}); err != nil {
		t.Fatal(err)
	}
	if err := d.AssignPort("op", Assignment{PhysPort: 3, VDev: "l2", VIngress: 1}); err != nil {
		t.Fatal(err)
	}
	// Three TCP packets through the firewall: 3 × (1 initial + 2 resubmit)
	// pipeline passes.
	for i := 0; i < 3; i++ {
		if _, _, err := d.SW.Process(tcpFrame(80), 1); err != nil {
			t.Fatal(err)
		}
	}
	fw, err := d.StatsForVDev("op", "fw")
	if err != nil {
		t.Fatal(err)
	}
	if fw.Packets != 9 {
		t.Errorf("fw passes = %d, want 9 (3 packets x 3 passes)", fw.Packets)
	}
	if fw.Bytes == 0 {
		t.Error("fw bytes should be counted")
	}
	l2, err := d.StatsForVDev("op", "l2")
	if err != nil {
		t.Fatal(err)
	}
	if l2.Packets != 0 {
		t.Errorf("l2 passes = %d, want 0 (no traffic assigned)", l2.Packets)
	}
	if _, err := d.StatsForVDev("mallory", "fw"); err == nil {
		t.Error("foreign stats read should be rejected")
	}
}
