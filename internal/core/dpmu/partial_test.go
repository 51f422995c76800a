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

// Partial is the partial-virtualization configuration (§7.1, Figure 9(c)):
// the reference persona with the directly-implemented parser.
var partialCfg = persona.Config{
	Stages: 4, Primitives: 9,
	ParseDefault: 20, ParseStep: 10, ParseMax: 100,
	FixedParser: true,
}

func newPartialDPMU(t *testing.T) *DPMU {
	t.Helper()
	p, err := persona.Generate(partialCfg)
	if err != nil {
		t.Fatal(err)
	}
	sw, err := sim.New("hp4p", p.Program)
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(sw, p)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func compilePartial(t *testing.T, fn string) *hp4c.Compiled {
	t.Helper()
	prog, err := functions.Load(fn)
	if err != nil {
		t.Fatal(err)
	}
	comp, err := hp4c.Compile(prog, partialCfg)
	if err != nil {
		t.Fatal(err)
	}
	return comp
}

// TestPartialVirtualizationFirewall verifies §7.1's performance claim in
// kind: with the fixed parser, the emulated firewall needs ZERO resubmits
// (the full persona needs two per TCP packet) while behaving identically.
func TestPartialVirtualizationFirewall(t *testing.T) {
	d := newPartialDPMU(t)
	comp := compilePartial(t, functions.Firewall)
	// No parse-control row may be a resubmit row.
	for _, pe := range comp.ParseEntries {
		if pe.More {
			t.Fatalf("fixed parser must not emit resubmit rows: %+v", pe)
		}
	}
	if _, err := d.Load("fw", comp, "op", 0); err != nil {
		t.Fatal(err)
	}
	c := functions.NewFirewallControllerFunc(d.Installer("op", "fw"))
	if err := c.AddHost(mac1, 1); err != nil {
		t.Fatal(err)
	}
	if err := c.AddHost(mac2, 2); err != nil {
		t.Fatal(err)
	}
	if err := c.BlockTCPDstPort(5201); err != nil {
		t.Fatal(err)
	}
	if err := d.AssignPort("op", Assignment{PhysPort: -1, VDev: "fw", VIngress: 1}); err != nil {
		t.Fatal(err)
	}
	for _, port := range []int{1, 2} {
		if err := d.MapVPort("op", "fw", port, port); err != nil {
			t.Fatal(err)
		}
	}

	// Blocked TCP drops, with zero resubmits.
	out, tr, err := d.SW.Process(tcpFrame(5201), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Fatalf("blocked TCP should drop: %+v (tables %v)", out, tr.ApplyLog)
	}
	if tr.Resubmits != 0 {
		t.Errorf("partial virtualization resubmits = %d, want 0 (full persona: 2)", tr.Resubmits)
	}
	// Allowed TCP passes unmodified.
	frame := tcpFrame(80)
	out, tr, err = d.SW.Process(frame, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].Port != 2 {
		t.Fatalf("allowed TCP: %+v", out)
	}
	if !bytes.Equal(out[0].Data, frame) {
		t.Errorf("frame modified:\n got %x\nwant %x", out[0].Data, frame)
	}
	if tr.Resubmits != 0 || tr.Passes != 1 {
		t.Errorf("passes=%d resubmits=%d, want a single pass", tr.Passes, tr.Resubmits)
	}
	t.Logf("partial firewall: %d applies, %d passes (full persona: %d applies, 3 passes)",
		tr.Applies, tr.Passes, 27)
}

// TestPartialVirtualizationARP checks a field-rewriting program (the ARP
// proxy's nine-primitive reply) through the fixed parser's write-back path.
func TestPartialVirtualizationARP(t *testing.T) {
	d := newPartialDPMU(t)
	comp := compilePartial(t, functions.ARPProxy)
	if _, err := d.Load("arp", comp, "op", 0); err != nil {
		t.Fatal(err)
	}
	c := functions.NewARPControllerFunc(d.Installer("op", "arp"))
	if err := c.Init(); err != nil {
		t.Fatal(err)
	}
	if err := c.AddProxiedHost(ip2, mac2); err != nil {
		t.Fatal(err)
	}
	if err := d.AssignPort("op", Assignment{PhysPort: -1, VDev: "arp", VIngress: 1}); err != nil {
		t.Fatal(err)
	}
	if err := d.MapVPort("op", "arp", 1, 1); err != nil {
		t.Fatal(err)
	}
	req := pkt.Pad(pkt.Serialize(
		&pkt.Ethernet{Dst: pkt.Broadcast, Src: mac1, EtherType: pkt.EtherTypeARP},
		&pkt.ARP{Op: pkt.ARPRequest, SenderHW: mac1, SenderIP: ip1, TargetIP: ip2},
	))
	out, tr, err := d.SW.Process(req, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].Port != 1 {
		t.Fatalf("reply: %+v (tables %v)", out, tr.ApplyLog)
	}
	_, rest, _ := pkt.DecodeEthernet(out[0].Data)
	reply, err := pkt.DecodeARP(rest)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Op != pkt.ARPReply || reply.SenderHW != mac2 || reply.TargetHW != mac1 {
		t.Errorf("reply: %+v", reply)
	}
	if tr.Resubmits != 0 {
		t.Errorf("resubmits = %d, want 0", tr.Resubmits)
	}
}

// TestPartialVirtualizationRouterChecksum exercises the checksum fix-up
// through the fixed write-back.
func TestPartialVirtualizationRouterChecksum(t *testing.T) {
	d := newPartialDPMU(t)
	comp := compilePartial(t, functions.Router)
	if _, err := d.Load("r", comp, "op", 0); err != nil {
		t.Fatal(err)
	}
	c := functions.NewRouterControllerFunc(d.Installer("op", "r"))
	if err := c.Init(); err != nil {
		t.Fatal(err)
	}
	if err := c.AddRoute(ip2, 32, ip2, 2); err != nil {
		t.Fatal(err)
	}
	if err := c.AddNextHop(ip2, mac2); err != nil {
		t.Fatal(err)
	}
	if err := c.AddPortMAC(2, pkt.MustMAC("aa:aa:aa:aa:aa:02")); err != nil {
		t.Fatal(err)
	}
	if err := d.AssignPort("op", Assignment{PhysPort: -1, VDev: "r", VIngress: 1}); err != nil {
		t.Fatal(err)
	}
	if err := d.MapVPort("op", "r", 2, 2); err != nil {
		t.Fatal(err)
	}
	frame := pkt.Pad(pkt.Serialize(
		&pkt.Ethernet{Dst: pkt.MustMAC("aa:aa:aa:aa:aa:00"), Src: mac1, EtherType: pkt.EtherTypeIPv4},
		&pkt.IPv4{TTL: 64, Protocol: pkt.IPProtoUDP, Src: ip1, Dst: ip2},
		&pkt.UDP{SrcPort: 9, DstPort: 9},
	))
	out, tr, err := d.SW.Process(frame, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].Port != 2 {
		t.Fatalf("route: %+v (tables %v)", out, tr.ApplyLog)
	}
	_, rest, _ := pkt.DecodeEthernet(out[0].Data)
	ip, _, err := pkt.DecodeIPv4(rest)
	if err != nil {
		t.Fatal(err)
	}
	if ip.TTL != 63 {
		t.Errorf("ttl = %d", ip.TTL)
	}
	if pkt.Checksum(rest[:20]) != 0 {
		t.Error("checksum invalid through partial virtualization")
	}
	if tr.Resubmits != 0 {
		t.Errorf("resubmits = %d, want 0 (full persona: 1)", tr.Resubmits)
	}
}

// TestPartialDifferential compares the full and partial personas on the
// same firewall population over random traffic in the fixed header family.
func TestPartialDifferential(t *testing.T) {
	full := newPersonaDPMU(t)
	part := newPartialDPMU(t)
	for _, tc := range []struct {
		d    *DPMU
		comp *hp4c.Compiled
	}{
		{full, compileFn(t, functions.Firewall)},
		{part, compilePartial(t, functions.Firewall)},
	} {
		if _, err := tc.d.Load("fw", tc.comp, "op", 0); err != nil {
			t.Fatal(err)
		}
		c := functions.NewFirewallControllerFunc(tc.d.Installer("op", "fw"))
		if err := c.AddHost(mac1, 1); err != nil {
			t.Fatal(err)
		}
		if err := c.AddHost(mac2, 2); err != nil {
			t.Fatal(err)
		}
		if err := c.BlockTCPDstPort(5201); err != nil {
			t.Fatal(err)
		}
		if err := c.BlockUDPDstPort(53); err != nil {
			t.Fatal(err)
		}
		if err := tc.d.AssignPort("op", Assignment{PhysPort: -1, VDev: "fw", VIngress: 1}); err != nil {
			t.Fatal(err)
		}
		for _, port := range []int{1, 2} {
			if err := tc.d.MapVPort("op", "fw", port, port); err != nil {
				t.Fatal(err)
			}
		}
	}
	probes := [][]byte{
		tcpFrame(5201), tcpFrame(80), icmpFrame(),
		pkt.Pad(pkt.Serialize(&pkt.Ethernet{Dst: mac2, Src: mac1, EtherType: 0x88cc})),
		pkt.Pad(pkt.Serialize(
			&pkt.Ethernet{Dst: mac2, Src: mac1, EtherType: pkt.EtherTypeIPv4},
			&pkt.IPv4{TTL: 64, Protocol: pkt.IPProtoUDP, Src: ip1, Dst: ip2},
			&pkt.UDP{SrcPort: 1, DstPort: 53})),
	}
	for i, p := range probes {
		fOut, _, err := full.SW.Process(p, 1)
		if err != nil {
			t.Fatal(err)
		}
		pOut, _, err := part.SW.Process(p, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !sameOutputs(fOut, pOut) {
			t.Errorf("probe %d diverged:\nfull:    %s\npartial: %s", i, renderOutputs(fOut), renderOutputs(pOut))
		}
	}
}
