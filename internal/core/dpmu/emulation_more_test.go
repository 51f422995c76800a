package dpmu

import (
	"bytes"
	"testing"

	"hyper4/internal/functions"
	"hyper4/internal/pkt"
)

// loadFirewall loads an emulated firewall blocking TCP destination port 5201
// (the rule from §3.2), hosts on ports 1 and 2.
func loadFirewall(t *testing.T, d *DPMU, name, owner string) {
	t.Helper()
	comp := compileFn(t, functions.Firewall)
	if _, err := d.Load(name, comp, owner, 0); err != nil {
		t.Fatal(err)
	}
	c := functions.NewFirewallControllerFunc(d.Installer(owner, name))
	if err := c.AddHost(mac1, 1); err != nil {
		t.Fatal(err)
	}
	if err := c.AddHost(mac2, 2); err != nil {
		t.Fatal(err)
	}
	if err := c.BlockTCPDstPort(5201); err != nil {
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

func tcpFrame(dstPort uint16) []byte {
	return pkt.Pad(pkt.Serialize(
		&pkt.Ethernet{Dst: mac2, Src: mac1, EtherType: pkt.EtherTypeIPv4},
		&pkt.IPv4{TTL: 64, Protocol: pkt.IPProtoTCP, Src: ip1, Dst: ip2},
		&pkt.TCP{SrcPort: 44444, DstPort: dstPort},
		pkt.Payload("data"),
	))
}

func icmpFrame() []byte {
	return pkt.Pad(pkt.Serialize(
		&pkt.Ethernet{Dst: mac2, Src: mac1, EtherType: pkt.EtherTypeIPv4},
		&pkt.IPv4{TTL: 64, Protocol: pkt.IPProtoICMP, Src: ip1, Dst: ip2},
		&pkt.ICMP{Type: pkt.ICMPEchoRequest, ID: 7, Seq: 1},
	))
}

func TestEmulatedFirewall(t *testing.T) {
	d := newPersonaDPMU(t)
	loadFirewall(t, d, "fw", "alice")

	// Blocked TCP port drops; §6.4: each TCP packet costs two resubmits.
	out, tr, err := d.SW.Process(tcpFrame(5201), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Fatalf("blocked TCP should drop: %+v (tables %v)", out, tr.ApplyLog)
	}
	if tr.Resubmits != 2 {
		t.Errorf("TCP resubmits = %d, want 2 (paper §6.4)", tr.Resubmits)
	}

	// Allowed TCP port passes unmodified.
	frame := tcpFrame(80)
	out, tr, err = d.SW.Process(frame, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].Port != 2 {
		t.Fatalf("allowed TCP should pass: %+v (tables %v)", out, tr.ApplyLog)
	}
	if !bytes.Equal(out[0].Data, frame) {
		t.Errorf("firewall must not modify frames:\n got %x\nwant %x", out[0].Data, frame)
	}
	t.Logf("emulated firewall TCP applies=%d (paper: 22), resubmits=%d", tr.Applies, tr.Resubmits)

	// ICMP passes with exactly one resubmit (§6.4: one per ping).
	ping := icmpFrame()
	out, tr, err = d.SW.Process(ping, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].Port != 2 || !bytes.Equal(out[0].Data, ping) {
		t.Fatalf("ICMP should pass unmodified: %+v", out)
	}
	if tr.Resubmits != 1 {
		t.Errorf("ICMP resubmits = %d, want 1 (paper §6.4)", tr.Resubmits)
	}

	// Non-IP traffic switches straight through.
	odd := pkt.Pad(pkt.Serialize(&pkt.Ethernet{Dst: mac2, Src: mac1, EtherType: 0x88cc}, pkt.Payload("lldp-ish")))
	out, tr, err = d.SW.Process(odd, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].Port != 2 || !bytes.Equal(out[0].Data, odd) {
		t.Fatalf("non-IP should pass: %+v", out)
	}
	if tr.Resubmits != 0 {
		t.Errorf("non-IP resubmits = %d, want 0", tr.Resubmits)
	}
}

func TestEmulatedARPProxy(t *testing.T) {
	d := newPersonaDPMU(t)
	comp := compileFn(t, functions.ARPProxy)
	if _, err := d.Load("arp", comp, "alice", 0); err != nil {
		t.Fatal(err)
	}
	c := functions.NewARPControllerFunc(d.Installer("alice", "arp"))
	if err := c.Init(); err != nil {
		t.Fatal(err)
	}
	if err := c.AddProxiedHost(ip2, mac2); err != nil {
		t.Fatal(err)
	}
	if err := c.AddHost(mac1, 1); err != nil {
		t.Fatal(err)
	}
	if err := c.AddHost(mac2, 2); err != nil {
		t.Fatal(err)
	}
	for _, port := range []int{1, 2} {
		if err := d.AssignPort("alice", Assignment{PhysPort: port, VDev: "arp", VIngress: port}); err != nil {
			t.Fatal(err)
		}
		if err := d.MapVPort("alice", "arp", port, port); err != nil {
			t.Fatal(err)
		}
	}

	// An ARP request for the proxied host is answered in place.
	req := pkt.Pad(pkt.Serialize(
		&pkt.Ethernet{Dst: pkt.Broadcast, Src: mac1, EtherType: pkt.EtherTypeARP},
		&pkt.ARP{Op: pkt.ARPRequest, SenderHW: mac1, SenderIP: ip1, TargetIP: ip2},
	))
	out, tr, err := d.SW.Process(req, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].Port != 1 {
		t.Fatalf("reply should exit the ingress port: %+v (tables %v)", out, tr.ApplyLog)
	}
	eth, rest, err := pkt.DecodeEthernet(out[0].Data)
	if err != nil {
		t.Fatal(err)
	}
	if eth.Dst != mac1 || eth.Src != mac2 {
		t.Errorf("reply MACs: %v -> %v", eth.Src, eth.Dst)
	}
	reply, err := pkt.DecodeARP(rest)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Op != pkt.ARPReply || reply.SenderHW != mac2 || reply.SenderIP != ip2 ||
		reply.TargetHW != mac1 || reply.TargetIP != ip1 {
		t.Errorf("reply: %+v", reply)
	}
	t.Logf("emulated arp_proxy applies=%d (paper: 48), resubmits=%d", tr.Applies, tr.Resubmits)
	if tr.Applies < 30 {
		t.Errorf("applies = %d; the nine-primitive reply should cost ~40+", tr.Applies)
	}

	// Compare against the native proxy on the same request.
	native, err := functions.NewSwitch("native", functions.ARPProxy)
	if err != nil {
		t.Fatal(err)
	}
	nc := functions.NewARPControllerFunc(functions.Native(native))
	if err := nc.Init(); err != nil {
		t.Fatal(err)
	}
	if err := nc.AddProxiedHost(ip2, mac2); err != nil {
		t.Fatal(err)
	}
	nOut, _, err := native.Process(req, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(nOut) != 1 || !bytes.Equal(nOut[0].Data, out[0].Data) {
		t.Errorf("native and emulated replies differ:\nnative   %x\nemulated %x", nOut[0].Data, out[0].Data)
	}

	// Non-ARP traffic is switched.
	frame := pkt.Pad(pkt.Serialize(&pkt.Ethernet{Dst: mac2, Src: mac1, EtherType: 0x0800}, pkt.Payload("xyz")))
	out, _, err = d.SW.Process(frame, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].Port != 2 || !bytes.Equal(out[0].Data, frame) {
		t.Fatalf("non-ARP should switch: %+v", out)
	}

	// An ARP request for an unproxied IP falls through to L2 switching.
	req2 := pkt.Pad(pkt.Serialize(
		&pkt.Ethernet{Dst: mac2, Src: mac1, EtherType: pkt.EtherTypeARP},
		&pkt.ARP{Op: pkt.ARPRequest, SenderHW: mac1, SenderIP: ip1, TargetIP: pkt.MustIP4("10.0.0.77")},
	))
	out, _, err = d.SW.Process(req2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].Port != 2 || !bytes.Equal(out[0].Data, req2) {
		t.Fatalf("unproxied request should be switched: %+v", out)
	}
}

func TestEmulatedRouter(t *testing.T) {
	d := newPersonaDPMU(t)
	comp := compileFn(t, functions.Router)
	if _, err := d.Load("r1", comp, "alice", 0); err != nil {
		t.Fatal(err)
	}
	c := functions.NewRouterControllerFunc(d.Installer("alice", "r1"))
	if err := c.Init(); err != nil {
		t.Fatal(err)
	}
	nhop := pkt.MustIP4("192.168.1.1")
	rMAC := pkt.MustMAC("aa:aa:aa:aa:aa:03")
	if err := c.AddRoute(pkt.MustIP4("20.0.0.0"), 8, nhop, 3); err != nil {
		t.Fatal(err)
	}
	if err := c.AddRoute(pkt.MustIP4("20.1.0.0"), 16, pkt.MustIP4("192.168.2.1"), 4); err != nil {
		t.Fatal(err)
	}
	if err := c.AddNextHop(nhop, mac2); err != nil {
		t.Fatal(err)
	}
	if err := c.AddNextHop(pkt.MustIP4("192.168.2.1"), pkt.MustMAC("00:00:00:00:00:04")); err != nil {
		t.Fatal(err)
	}
	if err := c.AddPortMAC(3, rMAC); err != nil {
		t.Fatal(err)
	}
	if err := c.AddPortMAC(4, pkt.MustMAC("aa:aa:aa:aa:aa:04")); err != nil {
		t.Fatal(err)
	}
	if err := d.AssignPort("alice", Assignment{PhysPort: -1, VDev: "r1", VIngress: 1}); err != nil {
		t.Fatal(err)
	}
	for _, port := range []int{3, 4} {
		if err := d.MapVPort("alice", "r1", port, port); err != nil {
			t.Fatal(err)
		}
	}

	frame := pkt.Pad(pkt.Serialize(
		&pkt.Ethernet{Dst: pkt.MustMAC("aa:aa:aa:aa:aa:00"), Src: mac1, EtherType: pkt.EtherTypeIPv4},
		&pkt.IPv4{TTL: 64, Protocol: pkt.IPProtoUDP, Src: ip1, Dst: pkt.MustIP4("20.9.9.9")},
		&pkt.UDP{SrcPort: 1000, DstPort: 2000},
		pkt.Payload("payload"),
	))
	out, tr, err := d.SW.Process(frame, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].Port != 3 {
		t.Fatalf("outputs: %+v (tables %v)", out, tr.ApplyLog)
	}
	eth, rest, err := pkt.DecodeEthernet(out[0].Data)
	if err != nil {
		t.Fatal(err)
	}
	if eth.Dst != mac2 || eth.Src != rMAC {
		t.Errorf("MAC rewrite: %v -> %v", eth.Src, eth.Dst)
	}
	ip, _, err := pkt.DecodeIPv4(rest)
	if err != nil {
		t.Fatal(err)
	}
	if ip.TTL != 63 {
		t.Errorf("ttl = %d, want 63", ip.TTL)
	}
	if pkt.Checksum(rest[:20]) != 0 {
		t.Errorf("emulated router should recompute the IPv4 checksum (§5.3)")
	}
	if tr.Resubmits != 1 {
		t.Errorf("router resubmits = %d, want 1 (needs 34 bytes)", tr.Resubmits)
	}
	t.Logf("emulated router applies=%d (paper: 28)", tr.Applies)

	// LPM precedence: the /16 route must beat the /8.
	frame2 := pkt.Pad(pkt.Serialize(
		&pkt.Ethernet{Dst: pkt.MustMAC("aa:aa:aa:aa:aa:00"), Src: mac1, EtherType: pkt.EtherTypeIPv4},
		&pkt.IPv4{TTL: 64, Protocol: pkt.IPProtoUDP, Src: ip1, Dst: pkt.MustIP4("20.1.2.3")},
		&pkt.UDP{SrcPort: 1, DstPort: 2},
	))
	out, _, err = d.SW.Process(frame2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].Port != 4 {
		t.Fatalf("/16 route should win: %+v", out)
	}

	// Expired TTL drops (validate_ttl entry via the DPMU).
	frame3 := pkt.Pad(pkt.Serialize(
		&pkt.Ethernet{Dst: pkt.MustMAC("aa:aa:aa:aa:aa:00"), Src: mac1, EtherType: pkt.EtherTypeIPv4},
		&pkt.IPv4{TTL: 1, Protocol: pkt.IPProtoUDP, Src: ip1, Dst: pkt.MustIP4("20.9.9.9")},
		&pkt.UDP{SrcPort: 1, DstPort: 2},
	))
	out, _, err = d.SW.Process(frame3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Fatalf("ttl=1 should drop: %+v", out)
	}
}
