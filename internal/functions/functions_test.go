package functions

import (
	"bytes"
	"testing"

	"hyper4/internal/pkt"
	"hyper4/internal/sim"
)

var (
	mac1 = pkt.MustMAC("00:00:00:00:00:01")
	mac2 = pkt.MustMAC("00:00:00:00:00:02")
	ip1  = pkt.MustIP4("10.0.0.1")
	ip2  = pkt.MustIP4("10.0.0.2")
)

func TestAllFunctionsLoad(t *testing.T) {
	for _, name := range Names() {
		if _, err := Load(name); err != nil {
			t.Errorf("Load(%s): %v", name, err)
		}
	}
	if _, err := Load("nope"); err == nil {
		t.Error("unknown function should error")
	}
}

func TestL2SwitchForwardsAndCounts(t *testing.T) {
	sw, err := NewSwitch("s1", L2Switch)
	if err != nil {
		t.Fatal(err)
	}
	c := NewL2ControllerFunc(Native(sw))
	if err := c.AddHost(mac1, 1); err != nil {
		t.Fatal(err)
	}
	if err := c.AddHost(mac2, 2); err != nil {
		t.Fatal(err)
	}
	frame := pkt.Serialize(&pkt.Ethernet{Dst: mac2, Src: mac1, EtherType: 0x0800}, pkt.Payload("x"))
	out, tr, err := sw.Process(frame, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].Port != 2 {
		t.Fatalf("outputs: %+v", out)
	}
	if !bytes.Equal(out[0].Data, frame) {
		t.Error("L2 switch must not modify the frame")
	}
	// Table 1: native L2 switch = 2 matches.
	if tr.Applies != 2 {
		t.Errorf("applies = %d, want 2 (paper Table 1)", tr.Applies)
	}
}

func TestRouterRoutesAndRewrites(t *testing.T) {
	sw, err := NewSwitch("r1", Router)
	if err != nil {
		t.Fatal(err)
	}
	c := NewRouterControllerFunc(Native(sw))
	if err := c.Init(); err != nil {
		t.Fatal(err)
	}
	nhop := pkt.MustIP4("192.168.1.1")
	rMAC := pkt.MustMAC("aa:aa:aa:aa:aa:01")
	if err := c.AddRoute(pkt.MustIP4("20.0.0.0"), 8, nhop, 3); err != nil {
		t.Fatal(err)
	}
	if err := c.AddNextHop(nhop, mac2); err != nil {
		t.Fatal(err)
	}
	if err := c.AddPortMAC(3, rMAC); err != nil {
		t.Fatal(err)
	}
	frame := pkt.Serialize(
		&pkt.Ethernet{Dst: pkt.MustMAC("aa:aa:aa:aa:aa:00"), Src: mac1, EtherType: pkt.EtherTypeIPv4},
		&pkt.IPv4{TTL: 64, Protocol: pkt.IPProtoUDP, Src: ip1, Dst: pkt.MustIP4("20.1.2.3")},
		&pkt.UDP{SrcPort: 1000, DstPort: 2000},
		pkt.Payload("data"),
	)
	out, tr, err := sw.Process(frame, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].Port != 3 {
		t.Fatalf("outputs: %+v", out)
	}
	eth, rest, _ := pkt.DecodeEthernet(out[0].Data)
	if eth.Dst != mac2 || eth.Src != rMAC {
		t.Errorf("MAC rewrite: %v -> %v", eth.Src, eth.Dst)
	}
	ip, _, err := pkt.DecodeIPv4(rest)
	if err != nil {
		t.Fatal(err)
	}
	if ip.TTL != 63 {
		t.Errorf("ttl = %d", ip.TTL)
	}
	if pkt.Checksum(rest[:20]) != 0 {
		t.Error("IPv4 checksum not recomputed")
	}
	// Table 1: native router = 4 matches.
	if tr.Applies != 4 {
		t.Errorf("applies = %d, want 4 (paper Table 1)", tr.Applies)
	}
}

func TestRouterDropsExpiredTTL(t *testing.T) {
	sw, err := NewSwitch("r1", Router)
	if err != nil {
		t.Fatal(err)
	}
	c := NewRouterControllerFunc(Native(sw))
	if err := c.Init(); err != nil {
		t.Fatal(err)
	}
	if err := c.AddRoute(pkt.MustIP4("0.0.0.0"), 0, pkt.MustIP4("192.168.1.1"), 2); err != nil {
		t.Fatal(err)
	}
	frame := pkt.Serialize(
		&pkt.Ethernet{Dst: mac2, Src: mac1, EtherType: pkt.EtherTypeIPv4},
		&pkt.IPv4{TTL: 1, Protocol: pkt.IPProtoUDP, Src: ip1, Dst: ip2},
		&pkt.UDP{SrcPort: 1, DstPort: 2},
	)
	out, _, err := sw.Process(frame, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Fatalf("ttl=1 should drop: %+v", out)
	}
}

func TestARPProxyAnswersRequests(t *testing.T) {
	sw, err := NewSwitch("a1", ARPProxy)
	if err != nil {
		t.Fatal(err)
	}
	c := NewARPControllerFunc(Native(sw))
	if err := c.Init(); err != nil {
		t.Fatal(err)
	}
	if err := c.AddProxiedHost(ip2, mac2); err != nil {
		t.Fatal(err)
	}
	if err := c.AddHost(mac1, 1); err != nil {
		t.Fatal(err)
	}
	req := pkt.Serialize(
		&pkt.Ethernet{Dst: pkt.Broadcast, Src: mac1, EtherType: pkt.EtherTypeARP},
		&pkt.ARP{Op: pkt.ARPRequest, SenderHW: mac1, SenderIP: ip1, TargetIP: ip2},
	)
	out, tr, err := sw.Process(req, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].Port != 1 {
		t.Fatalf("reply should exit the ingress port: %+v", out)
	}
	eth, rest, _ := pkt.DecodeEthernet(out[0].Data)
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
	// Table 1: ARP proxy's most complex path = 4 matches... for a proxied
	// request the path is check_arp + arp_resp = 2; the 4-match path is an
	// unproxied request falling through to smac+dmac.
	if tr.Applies != 2 {
		t.Errorf("proxied request applies = %d, want 2", tr.Applies)
	}
}

func TestARPProxyMostComplexPathIsFour(t *testing.T) {
	sw, err := NewSwitch("a1", ARPProxy)
	if err != nil {
		t.Fatal(err)
	}
	c := NewARPControllerFunc(Native(sw))
	if err := c.Init(); err != nil {
		t.Fatal(err)
	}
	if err := c.AddHost(mac2, 2); err != nil {
		t.Fatal(err)
	}
	// Request for an unproxied IP addressed at a known station.
	req := pkt.Serialize(
		&pkt.Ethernet{Dst: mac2, Src: mac1, EtherType: pkt.EtherTypeARP},
		&pkt.ARP{Op: pkt.ARPRequest, SenderHW: mac1, SenderIP: ip1, TargetIP: pkt.MustIP4("10.0.0.99")},
	)
	out, tr, err := sw.Process(req, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].Port != 2 {
		t.Fatalf("unproxied request should be switched: %+v", out)
	}
	if tr.Applies != 4 {
		t.Errorf("applies = %d, want 4 (paper Table 1)", tr.Applies)
	}
}

func TestARPProxySwitchesNonARP(t *testing.T) {
	sw, err := NewSwitch("a1", ARPProxy)
	if err != nil {
		t.Fatal(err)
	}
	c := NewARPControllerFunc(Native(sw))
	if err := c.Init(); err != nil {
		t.Fatal(err)
	}
	if err := c.AddHost(mac2, 2); err != nil {
		t.Fatal(err)
	}
	frame := pkt.Serialize(&pkt.Ethernet{Dst: mac2, Src: mac1, EtherType: 0x1234}, pkt.Payload("hi"))
	out, _, err := sw.Process(frame, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].Port != 2 || !bytes.Equal(out[0].Data, frame) {
		t.Fatalf("outputs: %+v", out)
	}
}

func firewallWithHosts(t *testing.T) (*sim.Switch, *FirewallController) {
	t.Helper()
	sw, err := NewSwitch("f1", Firewall)
	if err != nil {
		t.Fatal(err)
	}
	c := NewFirewallControllerFunc(Native(sw))
	if err := c.AddHost(mac1, 1); err != nil {
		t.Fatal(err)
	}
	if err := c.AddHost(mac2, 2); err != nil {
		t.Fatal(err)
	}
	return sw, c
}

func tcpFrame(dstPort uint16) []byte {
	return pkt.Serialize(
		&pkt.Ethernet{Dst: mac2, Src: mac1, EtherType: pkt.EtherTypeIPv4},
		&pkt.IPv4{TTL: 64, Protocol: pkt.IPProtoTCP, Src: ip1, Dst: ip2},
		&pkt.TCP{SrcPort: 44444, DstPort: dstPort},
		pkt.Payload("data"),
	)
}

func TestFirewallBlocksTCPPort(t *testing.T) {
	sw, c := firewallWithHosts(t)
	if err := c.BlockTCPDstPort(5201); err != nil {
		t.Fatal(err)
	}
	out, tr, err := sw.Process(tcpFrame(5201), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Fatalf("blocked port should drop: %+v", out)
	}
	// Table 1: native firewall = 3 matches on the most complex path.
	if tr.Applies != 3 {
		t.Errorf("applies = %d, want 3 (paper Table 1)", tr.Applies)
	}
	out, _, err = sw.Process(tcpFrame(80), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].Port != 2 {
		t.Fatalf("allowed port should pass: %+v", out)
	}
}

func TestFirewallBlocksUDPAndIPPair(t *testing.T) {
	sw, c := firewallWithHosts(t)
	if err := c.BlockUDPDstPort(53); err != nil {
		t.Fatal(err)
	}
	if err := c.BlockIPPair(ip1, pkt.MustIP4("10.0.0.9")); err != nil {
		t.Fatal(err)
	}
	udp := func(dst pkt.IP4, port uint16) []byte {
		return pkt.Serialize(
			&pkt.Ethernet{Dst: mac2, Src: mac1, EtherType: pkt.EtherTypeIPv4},
			&pkt.IPv4{TTL: 64, Protocol: pkt.IPProtoUDP, Src: ip1, Dst: dst},
			&pkt.UDP{SrcPort: 9999, DstPort: port},
		)
	}
	if out, _, _ := sw.Process(udp(ip2, 53), 1); len(out) != 0 {
		t.Error("UDP 53 should drop")
	}
	if out, _, _ := sw.Process(udp(ip2, 54), 1); len(out) != 1 {
		t.Error("UDP 54 should pass")
	}
	if out, _, _ := sw.Process(udp(pkt.MustIP4("10.0.0.9"), 54), 1); len(out) != 0 {
		t.Error("blocked IP pair should drop")
	}
}

func TestFirewallPassesICMP(t *testing.T) {
	sw, c := firewallWithHosts(t)
	if err := c.BlockTCPDstPort(5201); err != nil {
		t.Fatal(err)
	}
	ping := pkt.Serialize(
		&pkt.Ethernet{Dst: mac2, Src: mac1, EtherType: pkt.EtherTypeIPv4},
		&pkt.IPv4{TTL: 64, Protocol: pkt.IPProtoICMP, Src: ip1, Dst: ip2},
		&pkt.ICMP{Type: pkt.ICMPEchoRequest, ID: 1, Seq: 1},
	)
	out, tr, err := sw.Process(ping, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].Port != 2 {
		t.Fatalf("ICMP should pass: %+v", out)
	}
	// ICMP path applies ip_filter + dmac only.
	if tr.Applies != 2 {
		t.Errorf("applies = %d, want 2", tr.Applies)
	}
}
