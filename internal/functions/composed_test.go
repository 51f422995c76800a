package functions

import (
	"bytes"
	"testing"

	"hyper4/internal/pkt"
	"hyper4/internal/sim"
)

func composedSwitch(t *testing.T) (*ComposedController, *sim.Switch) {
	t.Helper()
	sw, err := NewSwitch("c1", Composed)
	if err != nil {
		t.Fatal(err)
	}
	c := NewComposedControllerFunc(Native(sw))
	if err := c.Init(); err != nil {
		t.Fatal(err)
	}
	if err := c.AddProxiedHost(ip2, mac2); err != nil {
		t.Fatal(err)
	}
	if err := c.BlockTCPDstPort(5201); err != nil {
		t.Fatal(err)
	}
	for _, r := range []struct {
		ip   pkt.IP4
		port int
		mac  pkt.MAC
	}{{ip1, 1, mac1}, {ip2, 2, mac2}} {
		if err := c.AddRoute(r.ip, 32, r.ip, r.port); err != nil {
			t.Fatal(err)
		}
		if err := c.AddNextHop(r.ip, r.mac); err != nil {
			t.Fatal(err)
		}
		if err := c.AddPortMAC(r.port, pkt.MustMAC("aa:aa:aa:aa:aa:09")); err != nil {
			t.Fatal(err)
		}
	}
	return c, sw
}

func TestComposedAnswersARP(t *testing.T) {
	_, sw := composedSwitch(t)
	req := pkt.Pad(pkt.Serialize(
		&pkt.Ethernet{Dst: pkt.Broadcast, Src: mac1, EtherType: pkt.EtherTypeARP},
		&pkt.ARP{Op: pkt.ARPRequest, SenderHW: mac1, SenderIP: ip1, TargetIP: ip2},
	))
	out, tr, err := sw.Process(req, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].Port != 1 {
		t.Fatalf("outputs: %+v", out)
	}
	_, rest, _ := pkt.DecodeEthernet(out[0].Data)
	reply, err := pkt.DecodeARP(rest)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Op != pkt.ARPReply || reply.SenderHW != mac2 {
		t.Errorf("reply: %+v", reply)
	}
	// ARP-request path: check_arp + arp_resp.
	if tr.Applies != 2 {
		t.Errorf("applies = %d", tr.Applies)
	}
}

func TestComposedFiltersAndRoutes(t *testing.T) {
	_, sw := composedSwitch(t)
	blocked := pkt.Pad(pkt.Serialize(
		&pkt.Ethernet{Dst: mac2, Src: mac1, EtherType: pkt.EtherTypeIPv4},
		&pkt.IPv4{TTL: 64, Protocol: pkt.IPProtoTCP, Src: ip1, Dst: ip2},
		&pkt.TCP{SrcPort: 999, DstPort: 5201},
	))
	out, _, err := sw.Process(blocked, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Fatalf("blocked TCP should drop: %+v", out)
	}
	allowed := pkt.Pad(pkt.Serialize(
		&pkt.Ethernet{Dst: mac2, Src: mac1, EtherType: pkt.EtherTypeIPv4},
		&pkt.IPv4{TTL: 64, Protocol: pkt.IPProtoTCP, Src: ip1, Dst: ip2},
		&pkt.TCP{SrcPort: 999, DstPort: 80},
	))
	out, tr, err := sw.Process(allowed, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].Port != 2 {
		t.Fatalf("allowed TCP should route: %+v", out)
	}
	eth, rest, _ := pkt.DecodeEthernet(out[0].Data)
	if eth.Dst != mac2 {
		t.Errorf("dst MAC: %v", eth.Dst)
	}
	ip, _, err := pkt.DecodeIPv4(rest)
	if err != nil {
		t.Fatal(err)
	}
	if ip.TTL != 63 {
		t.Errorf("ttl = %d", ip.TTL)
	}
	if pkt.Checksum(rest[:20]) != 0 {
		t.Error("checksum invalid")
	}
	// TCP path: check_arp, ip_filter, tcp_filter, ipv4_lpm, forward, send_frame.
	if tr.Applies != 6 {
		t.Errorf("applies = %d, want 6", tr.Applies)
	}
}

// TestComposedEquivalentToChain verifies the native composed program (the
// §7.2 "composition compiler" output) behaves like the HyPer4 virtual chain
// for representative packets: ICMP and allowed/blocked TCP.
func TestComposedEquivalentToChain(t *testing.T) {
	_, sw := composedSwitch(t)
	ping := pkt.Pad(pkt.Serialize(
		&pkt.Ethernet{Dst: mac2, Src: mac1, EtherType: pkt.EtherTypeIPv4},
		&pkt.IPv4{TTL: 64, Protocol: pkt.IPProtoICMP, Src: ip1, Dst: ip2},
		&pkt.ICMP{Type: pkt.ICMPEchoRequest, ID: 5, Seq: 6},
	))
	out, _, err := sw.Process(ping, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].Port != 2 {
		t.Fatalf("ping should route: %+v", out)
	}
	_, rest, _ := pkt.DecodeEthernet(out[0].Data)
	ip, icmpB, err := pkt.DecodeIPv4(rest)
	if err != nil {
		t.Fatal(err)
	}
	if ip.TTL != 63 {
		t.Errorf("ttl = %d", ip.TTL)
	}
	if !bytes.Equal(icmpB[:8], pingICMPHeader(5, 6)) {
		t.Errorf("icmp header changed: %x", icmpB[:8])
	}
}

func pingICMPHeader(id, seq uint16) []byte {
	h := &pkt.ICMP{Type: pkt.ICMPEchoRequest, ID: id, Seq: seq}
	b := h.Serialize(nil)
	// Checksum as Serialize in the frame: computed over header only here.
	full := pkt.Serialize(h)
	copy(b, full)
	return b
}
