package dpmu

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"hyper4/internal/functions"
	"hyper4/internal/pkt"
	"hyper4/internal/sim"
)

// TestDifferential is the core fidelity check: for each of the paper's four
// functions, a corpus of randomized packets is pushed through the native
// switch and the emulated (persona) switch with identical table state, and
// the emitted packets must be byte-identical on the same ports.
func TestDifferential(t *testing.T) {
	for _, fn := range functions.Names() {
		t.Run(fn, func(t *testing.T) {
			native, ed := differentialPair(t, fn)
			rng := rand.New(rand.NewSource(4242))
			for i := 0; i < 200; i++ {
				frame := randomFrame(rng)
				port := 1 + rng.Intn(2)
				nOut, _, err := native.Process(frame, port)
				if err != nil {
					t.Fatalf("packet %d native: %v", i, err)
				}
				eOut, _, err := ed.SW.Process(frame, port)
				if err != nil {
					t.Fatalf("packet %d emulated: %v", i, err)
				}
				if !sameOutputs(nOut, eOut) {
					t.Fatalf("packet %d (%s, port %d) diverged:\nnative:   %s\nemulated: %s\nframe: %x",
						i, pkt.Summary(frame), port, renderOutputs(nOut), renderOutputs(eOut), frame)
				}
			}
		})
	}
}

// differentialPair builds a native switch and an emulated DPMU for one
// function with the same table population.
func differentialPair(t *testing.T, fn string) (*sim.Switch, *DPMU) {
	t.Helper()
	native, err := functions.NewSwitch("native", fn)
	if err != nil {
		t.Fatal(err)
	}
	d := newPersonaDPMU(t)
	comp := compileFn(t, fn)
	if _, err := d.Load("dev", comp, "diff", 0); err != nil {
		t.Fatal(err)
	}
	install := d.Installer("diff", "dev")
	switch fn {
	case functions.L2Switch:
		nc := functions.NewL2ControllerFunc(functions.Native(native))
		ec := functions.NewL2ControllerFunc(install)
		for _, c := range []*functions.L2Controller{nc, ec} {
			if err := c.AddHost(mac1, 1); err != nil {
				t.Fatal(err)
			}
			if err := c.AddHost(mac2, 2); err != nil {
				t.Fatal(err)
			}
		}
	case functions.Firewall:
		nc := functions.NewFirewallControllerFunc(functions.Native(native))
		ec := functions.NewFirewallControllerFunc(install)
		for _, c := range []*functions.FirewallController{nc, ec} {
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
			if err := c.BlockIPPair(pkt.MustIP4("10.0.0.66"), ip2); err != nil {
				t.Fatal(err)
			}
		}
	case functions.Router:
		nc := functions.NewRouterControllerFunc(functions.Native(native))
		if err := nc.Init(); err != nil {
			t.Fatal(err)
		}
		ec := functions.NewRouterControllerFunc(install)
		if err := ec.Init(); err != nil {
			t.Fatal(err)
		}
		for _, c := range []*functions.RouterController{nc, ec} {
			if err := c.AddRoute(pkt.MustIP4("10.0.0.0"), 24, ip2, 2); err != nil {
				t.Fatal(err)
			}
			if err := c.AddRoute(pkt.MustIP4("10.0.0.128"), 25, pkt.MustIP4("10.0.0.130"), 1); err != nil {
				t.Fatal(err)
			}
			if err := c.AddNextHop(ip2, mac2); err != nil {
				t.Fatal(err)
			}
			if err := c.AddNextHop(pkt.MustIP4("10.0.0.130"), mac1); err != nil {
				t.Fatal(err)
			}
			if err := c.AddPortMAC(1, pkt.MustMAC("aa:aa:aa:aa:aa:01")); err != nil {
				t.Fatal(err)
			}
			if err := c.AddPortMAC(2, pkt.MustMAC("aa:aa:aa:aa:aa:02")); err != nil {
				t.Fatal(err)
			}
		}
	case functions.ARPProxy:
		nc := functions.NewARPControllerFunc(functions.Native(native))
		if err := nc.Init(); err != nil {
			t.Fatal(err)
		}
		ec := functions.NewARPControllerFunc(install)
		if err := ec.Init(); err != nil {
			t.Fatal(err)
		}
		for _, c := range []*functions.ARPController{nc, ec} {
			if err := c.AddProxiedHost(ip2, mac2); err != nil {
				t.Fatal(err)
			}
			if err := c.AddHost(mac1, 1); err != nil {
				t.Fatal(err)
			}
			if err := c.AddHost(mac2, 2); err != nil {
				t.Fatal(err)
			}
		}
	default:
		t.Fatalf("no differential population for %q", fn)
	}
	if err := d.AssignPort("diff", Assignment{PhysPort: -1, VDev: "dev", VIngress: 1}); err != nil {
		t.Fatal(err)
	}
	for _, port := range []int{1, 2} {
		if err := d.MapVPort("diff", "dev", port, port); err != nil {
			t.Fatal(err)
		}
	}
	return native, d
}

// randomFrame builds a random-but-plausible Ethernet frame: addresses drawn
// from known and unknown sets, all ethertype/protocol branches represented,
// boundary TTLs and filtered ports included.
func randomFrame(rng *rand.Rand) []byte {
	pick := func(options ...pkt.MAC) pkt.MAC { return options[rng.Intn(len(options))] }
	unknownMAC := pkt.MustMAC(fmt.Sprintf("02:%02x:%02x:%02x:%02x:%02x",
		rng.Intn(256), rng.Intn(256), rng.Intn(256), rng.Intn(256), rng.Intn(256)))
	dst := pick(mac1, mac2, unknownMAC, pkt.Broadcast)
	src := pick(mac1, mac2, unknownMAC)

	ipOpts := []pkt.IP4{ip1, ip2, pkt.MustIP4("10.0.0.66"),
		pkt.MustIP4("10.0.0.200"), pkt.MustIP4("192.168.9.9")}
	ipPick := func() pkt.IP4 { return ipOpts[rng.Intn(len(ipOpts))] }
	ttls := []uint8{0, 1, 2, 64, 255}
	ports := []uint16{53, 80, 5201, 9999, uint16(rng.Intn(65536))}

	payload := make([]byte, rng.Intn(40))
	rng.Read(payload)

	switch rng.Intn(6) {
	case 0: // non-IP, non-ARP
		return pkt.Pad(pkt.Serialize(
			&pkt.Ethernet{Dst: dst, Src: src, EtherType: uint16(rng.Intn(0x10000))},
			pkt.Payload(payload)))
	case 1: // ARP request or reply
		op := uint16(pkt.ARPRequest)
		if rng.Intn(3) == 0 {
			op = pkt.ARPReply
		}
		return pkt.Pad(pkt.Serialize(
			&pkt.Ethernet{Dst: dst, Src: src, EtherType: pkt.EtherTypeARP},
			&pkt.ARP{Op: op, SenderHW: src, SenderIP: ipPick(), TargetHW: pkt.MAC{}, TargetIP: ipPick()}))
	case 2: // ICMP
		return pkt.Pad(pkt.Serialize(
			&pkt.Ethernet{Dst: dst, Src: src, EtherType: pkt.EtherTypeIPv4},
			&pkt.IPv4{TTL: ttls[rng.Intn(len(ttls))], Protocol: pkt.IPProtoICMP, Src: ipPick(), Dst: ipPick()},
			&pkt.ICMP{Type: pkt.ICMPEchoRequest, ID: uint16(rng.Intn(1000)), Seq: uint16(rng.Intn(1000))},
			pkt.Payload(payload)))
	case 3: // TCP
		return pkt.Pad(pkt.Serialize(
			&pkt.Ethernet{Dst: dst, Src: src, EtherType: pkt.EtherTypeIPv4},
			&pkt.IPv4{TTL: ttls[rng.Intn(len(ttls))], Protocol: pkt.IPProtoTCP, Src: ipPick(), Dst: ipPick()},
			&pkt.TCP{SrcPort: ports[rng.Intn(len(ports))], DstPort: ports[rng.Intn(len(ports))]},
			pkt.Payload(payload)))
	case 4: // UDP
		return pkt.Pad(pkt.Serialize(
			&pkt.Ethernet{Dst: dst, Src: src, EtherType: pkt.EtherTypeIPv4},
			&pkt.IPv4{TTL: ttls[rng.Intn(len(ttls))], Protocol: pkt.IPProtoUDP, Src: ipPick(), Dst: ipPick()},
			&pkt.UDP{SrcPort: ports[rng.Intn(len(ports))], DstPort: ports[rng.Intn(len(ports))]},
			pkt.Payload(payload)))
	default: // IP with an unhandled protocol
		return pkt.Pad(pkt.Serialize(
			&pkt.Ethernet{Dst: dst, Src: src, EtherType: pkt.EtherTypeIPv4},
			&pkt.IPv4{TTL: ttls[rng.Intn(len(ttls))], Protocol: uint8(rng.Intn(256)), Src: ipPick(), Dst: ipPick()},
			pkt.Payload(payload)))
	}
}

func sameOutputs(a, b []sim.Output) bool {
	if len(a) != len(b) {
		return false
	}
	as, bs := sortedOutputs(a), sortedOutputs(b)
	for i := range as {
		if as[i].Port != bs[i].Port || !bytes.Equal(as[i].Data, bs[i].Data) {
			return false
		}
	}
	return true
}

func sortedOutputs(outs []sim.Output) []sim.Output {
	s := append([]sim.Output(nil), outs...)
	sort.Slice(s, func(i, j int) bool {
		if s[i].Port != s[j].Port {
			return s[i].Port < s[j].Port
		}
		return bytes.Compare(s[i].Data, s[j].Data) < 0
	})
	return s
}

func renderOutputs(outs []sim.Output) string {
	if len(outs) == 0 {
		return "(dropped)"
	}
	var b bytes.Buffer
	for _, o := range sortedOutputs(outs) {
		fmt.Fprintf(&b, "[port %d: %x] ", o.Port, o.Data)
	}
	return b.String()
}

// TestPriorityOrderPreserved installs overlapping ternary rules whose
// relative priority decides the verdict, and checks the DPMU's translated
// priorities preserve the order: a specific allow (priority 1) must beat a
// general drop (priority 2), natively and emulated.
func TestPriorityOrderPreserved(t *testing.T) {
	native, err := functions.NewSwitch("native", functions.Firewall)
	if err != nil {
		t.Fatal(err)
	}
	d := newPersonaDPMU(t)
	comp := compileFn(t, functions.Firewall)
	if _, err := d.Load("fw", comp, "p", 0); err != nil {
		t.Fatal(err)
	}
	add := func(c *functions.FirewallController) {
		t.Helper()
		if err := c.AddHost(mac1, 1); err != nil {
			t.Fatal(err)
		}
		if err := c.AddHost(mac2, 2); err != nil {
			t.Fatal(err)
		}
	}
	nc := functions.NewFirewallControllerFunc(functions.Native(native))
	ec := functions.NewFirewallControllerFunc(d.Installer("p", "fw"))
	add(nc)
	add(ec)
	// Overlapping rules, order decided purely by priority.
	allow := []sim.MatchParam{sim.TernaryUint(16, 0, 0), sim.TernaryUint(16, 5201, 0xffff)}
	dropAll := []sim.MatchParam{sim.TernaryUint(16, 0, 0), sim.TernaryUint(16, 0, 0)}
	if _, err := native.TableAdd("tcp_filter", "_nop", allow, nil, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := native.TableAdd("tcp_filter", "_drop", dropAll, nil, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := d.TableAdd("p", "fw", EntrySpec{Table: "tcp_filter", Action: "_nop", Params: allow, Priority: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.TableAdd("p", "fw", EntrySpec{Table: "tcp_filter", Action: "_drop", Params: dropAll, Priority: 2}); err != nil {
		t.Fatal(err)
	}
	if err := d.AssignPort("p", Assignment{PhysPort: -1, VDev: "fw", VIngress: 1}); err != nil {
		t.Fatal(err)
	}
	for _, port := range []int{1, 2} {
		if err := d.MapVPort("p", "fw", port, port); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		port uint16
		pass bool
	}{{5201, true}, {80, false}, {9999, false}} {
		frame := tcpFrame(tc.port)
		nOut, _, err := native.Process(frame, 1)
		if err != nil {
			t.Fatal(err)
		}
		eOut, _, err := d.SW.Process(frame, 1)
		if err != nil {
			t.Fatal(err)
		}
		if (len(nOut) == 1) != tc.pass {
			t.Errorf("native port %d: pass=%v want %v", tc.port, len(nOut) == 1, tc.pass)
		}
		if !sameOutputs(nOut, eOut) {
			t.Errorf("port %d diverged: native %s vs emulated %s", tc.port, renderOutputs(nOut), renderOutputs(eOut))
		}
	}
}
