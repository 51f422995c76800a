package dpmu

import (
	"bytes"
	"reflect"
	"testing"

	"hyper4/internal/bitfield"
	"hyper4/internal/core/persona"
	"hyper4/internal/functions"
	"hyper4/internal/pkt"
	"hyper4/internal/sim"
)

// composition wires arp_proxy → firewall → router inside one persona — the
// middle switch of the paper's Example 1 configuration C (§3.2, Figure 3).
// Virtual port 10 of each device is its "next function" port.
func loadComposition(t *testing.T, d *DPMU) {
	t.Helper()
	const owner = "op"

	// ARP proxy front end.
	if _, err := d.Load("arp", compileFn(t, functions.ARPProxy), owner, 0); err != nil {
		t.Fatal(err)
	}
	ac := functions.NewARPControllerFunc(d.Installer(owner, "arp"))
	if err := ac.Init(); err != nil {
		t.Fatal(err)
	}
	if err := ac.AddProxiedHost(ip2, mac2); err != nil {
		t.Fatal(err)
	}
	// All switched (non-ARP-request) traffic goes to the next function.
	if err := ac.AddHost(mac1, 10); err != nil {
		t.Fatal(err)
	}
	if err := ac.AddHost(mac2, 10); err != nil {
		t.Fatal(err)
	}

	// Firewall in the middle, blocking TCP 5201.
	if _, err := d.Load("fw", compileFn(t, functions.Firewall), owner, 0); err != nil {
		t.Fatal(err)
	}
	fc := functions.NewFirewallControllerFunc(d.Installer(owner, "fw"))
	if err := fc.BlockTCPDstPort(5201); err != nil {
		t.Fatal(err)
	}
	if err := fc.AddHost(mac1, 10); err != nil {
		t.Fatal(err)
	}
	if err := fc.AddHost(mac2, 10); err != nil {
		t.Fatal(err)
	}

	// Router at the back.
	if _, err := d.Load("r", compileFn(t, functions.Router), owner, 0); err != nil {
		t.Fatal(err)
	}
	rc := functions.NewRouterControllerFunc(d.Installer(owner, "r"))
	if err := rc.Init(); err != nil {
		t.Fatal(err)
	}
	if err := rc.AddRoute(ip1, 32, ip1, 1); err != nil {
		t.Fatal(err)
	}
	if err := rc.AddRoute(ip2, 32, ip2, 2); err != nil {
		t.Fatal(err)
	}
	if err := rc.AddNextHop(ip1, mac1); err != nil {
		t.Fatal(err)
	}
	if err := rc.AddNextHop(ip2, mac2); err != nil {
		t.Fatal(err)
	}
	if err := rc.AddPortMAC(1, pkt.MustMAC("aa:aa:aa:aa:aa:01")); err != nil {
		t.Fatal(err)
	}
	if err := rc.AddPortMAC(2, pkt.MustMAC("aa:aa:aa:aa:aa:02")); err != nil {
		t.Fatal(err)
	}

	// Wiring: physical ports feed the ARP proxy; virtual links chain the
	// functions; the router owns the physical egress mapping.
	for _, port := range []int{1, 2} {
		if err := d.AssignPort(owner, Assignment{PhysPort: port, VDev: "arp", VIngress: port}); err != nil {
			t.Fatal(err)
		}
		// ARP replies exit the virtual ingress port directly.
		if err := d.MapVPort(owner, "arp", port, port); err != nil {
			t.Fatal(err)
		}
		if err := d.MapVPort(owner, "r", port, port); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.LinkVPorts(owner, "arp", 10, "fw", 1); err != nil {
		t.Fatal(err)
	}
	if err := d.LinkVPorts(owner, "fw", 10, "r", 1); err != nil {
		t.Fatal(err)
	}
}

func TestCompositionPingPassCounts(t *testing.T) {
	d := newPersonaDPMU(t)
	loadComposition(t, d)
	ping := pkt.Pad(pkt.Serialize(
		&pkt.Ethernet{Dst: mac2, Src: mac1, EtherType: pkt.EtherTypeIPv4},
		&pkt.IPv4{TTL: 64, Protocol: pkt.IPProtoICMP, Src: ip1, Dst: ip2},
		&pkt.ICMP{Type: pkt.ICMPEchoRequest, ID: 1, Seq: 1},
	))
	out, tr, err := d.SW.Process(ping, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].Port != 2 {
		t.Fatalf("ping should route out port 2: %+v (tables %v)", out, tr.ApplyLog)
	}
	// §6.4: "pings incur a total of two recirculations and two resubmits".
	if tr.Recirculates != 2 {
		t.Errorf("recirculations = %d, want 2 (paper §6.4)", tr.Recirculates)
	}
	if tr.Resubmits != 2 {
		t.Errorf("resubmits = %d, want 2 (paper §6.4)", tr.Resubmits)
	}
	// The router decremented TTL and rewrote MACs.
	eth, rest, _ := pkt.DecodeEthernet(out[0].Data)
	if eth.Dst != mac2 || eth.Src != pkt.MustMAC("aa:aa:aa:aa:aa:02") {
		t.Errorf("MACs after composition: %v -> %v", eth.Src, eth.Dst)
	}
	ip, _, err := pkt.DecodeIPv4(rest)
	if err != nil {
		t.Fatal(err)
	}
	if ip.TTL != 63 {
		t.Errorf("ttl = %d, want 63", ip.TTL)
	}
	if pkt.Checksum(rest[:20]) != 0 {
		t.Error("IPv4 checksum invalid after composition")
	}
}

func TestCompositionTCPPassCounts(t *testing.T) {
	d := newPersonaDPMU(t)
	loadComposition(t, d)
	frame := pkt.Pad(pkt.Serialize(
		&pkt.Ethernet{Dst: mac2, Src: mac1, EtherType: pkt.EtherTypeIPv4},
		&pkt.IPv4{TTL: 64, Protocol: pkt.IPProtoTCP, Src: ip1, Dst: ip2},
		&pkt.TCP{SrcPort: 4000, DstPort: 80},
		pkt.Payload("GET /"),
	))
	out, tr, err := d.SW.Process(frame, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].Port != 2 {
		t.Fatalf("allowed TCP should route: %+v", out)
	}
	// §6.4: "TCP packets result in a total of two recirculations and three
	// resubmits".
	if tr.Recirculates != 2 {
		t.Errorf("recirculations = %d, want 2 (paper §6.4)", tr.Recirculates)
	}
	if tr.Resubmits != 3 {
		t.Errorf("resubmits = %d, want 3 (paper §6.4)", tr.Resubmits)
	}

	// Blocked port dies in the middle of the chain.
	blocked := pkt.Pad(pkt.Serialize(
		&pkt.Ethernet{Dst: mac2, Src: mac1, EtherType: pkt.EtherTypeIPv4},
		&pkt.IPv4{TTL: 64, Protocol: pkt.IPProtoTCP, Src: ip1, Dst: ip2},
		&pkt.TCP{SrcPort: 4000, DstPort: 5201},
	))
	out, _, err = d.SW.Process(blocked, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Fatalf("blocked TCP should drop inside the chain: %+v", out)
	}
}

func TestCompositionARPAnsweredUpFront(t *testing.T) {
	d := newPersonaDPMU(t)
	loadComposition(t, d)
	req := pkt.Pad(pkt.Serialize(
		&pkt.Ethernet{Dst: pkt.Broadcast, Src: mac1, EtherType: pkt.EtherTypeARP},
		&pkt.ARP{Op: pkt.ARPRequest, SenderHW: mac1, SenderIP: ip1, TargetIP: ip2},
	))
	out, tr, err := d.SW.Process(req, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].Port != 1 {
		t.Fatalf("ARP reply should exit the ingress port without touching the chain: %+v", out)
	}
	if tr.Recirculates != 0 {
		t.Errorf("ARP requests should not traverse the virtual network: %d recirculations", tr.Recirculates)
	}
	if _, _, err := pkt.DecodeEthernet(out[0].Data); err != nil {
		t.Fatal(err)
	}
}

// TestSlicing splits one persona between two independent L2 switches — the
// paper's Example Two (§3.3): ports 1–2 are one device, ports 3–4 another.
func TestSlicing(t *testing.T) {
	d := newPersonaDPMU(t)
	const owner = "op"
	macs := []pkt.MAC{
		pkt.MustMAC("00:00:00:00:00:01"), pkt.MustMAC("00:00:00:00:00:02"),
		pkt.MustMAC("00:00:00:00:00:03"), pkt.MustMAC("00:00:00:00:00:04"),
	}
	for i, name := range []string{"slice_a", "slice_b"} {
		if _, err := d.Load(name, compileFn(t, functions.L2Switch), owner, 0); err != nil {
			t.Fatal(err)
		}
		c := functions.NewL2ControllerFunc(d.Installer(owner, name))
		for j := 0; j < 2; j++ {
			port := i*2 + j + 1
			if err := c.AddHost(macs[i*2+j], port); err != nil {
				t.Fatal(err)
			}
			if err := d.AssignPort(owner, Assignment{PhysPort: port, VDev: name, VIngress: port}); err != nil {
				t.Fatal(err)
			}
			if err := d.MapVPort(owner, name, port, port); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Slice A: h1 → h2 works.
	f12 := pkt.Pad(pkt.Serialize(&pkt.Ethernet{Dst: macs[1], Src: macs[0], EtherType: 0x0800}))
	out, _, err := d.SW.Process(f12, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].Port != 2 {
		t.Fatalf("slice A forward: %+v", out)
	}
	// Slice B: h3 → h4 works.
	f34 := pkt.Pad(pkt.Serialize(&pkt.Ethernet{Dst: macs[3], Src: macs[2], EtherType: 0x0800}))
	out, _, err = d.SW.Process(f34, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].Port != 4 {
		t.Fatalf("slice B forward: %+v", out)
	}
	// Cross-slice leakage: a frame for h4 arriving on slice A's port is
	// dropped — slice A has no entry for h4's MAC.
	cross := pkt.Pad(pkt.Serialize(&pkt.Ethernet{Dst: macs[3], Src: macs[0], EtherType: 0x0800}))
	out, _, err = d.SW.Process(cross, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Fatalf("slices must be isolated: %+v", out)
	}
}

// TestSnapshots stores two device configurations and hot-swaps between them
// (the paper's Example One, §3.2).
func TestSnapshots(t *testing.T) {
	d := newPersonaDPMU(t)
	loadL2(t, d, "l2", "op2")
	loadFirewall(t, d, "fw", "op2")
	d.ClearAssignments()

	if err := d.SaveSnapshot("A", []Assignment{
		{PhysPort: 1, VDev: "l2", VIngress: 1}, {PhysPort: 2, VDev: "l2", VIngress: 2},
	}); err != nil {
		t.Fatal(err)
	}
	if err := d.SaveSnapshot("B", []Assignment{
		{PhysPort: 1, VDev: "fw", VIngress: 1}, {PhysPort: 2, VDev: "fw", VIngress: 2},
	}); err != nil {
		t.Fatal(err)
	}

	blocked := tcpFrame(5201) // the firewall blocks this; the L2 switch does not

	if err := d.ActivateSnapshot("A"); err != nil {
		t.Fatal(err)
	}
	if d.ActiveSnapshot() != "A" {
		t.Errorf("active = %q", d.ActiveSnapshot())
	}
	out, _, err := d.SW.Process(blocked, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 {
		t.Fatalf("under snapshot A (L2) the frame should pass: %+v", out)
	}

	if err := d.ActivateSnapshot("B"); err != nil {
		t.Fatal(err)
	}
	out, _, err = d.SW.Process(blocked, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Fatalf("under snapshot B (firewall) the frame should drop: %+v", out)
	}

	// And back, without reloading anything.
	if err := d.ActivateSnapshot("A"); err != nil {
		t.Fatal(err)
	}
	out, _, err = d.SW.Process(blocked, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 {
		t.Fatalf("back on snapshot A the frame should pass again: %+v", out)
	}

	if err := d.ActivateSnapshot("nope"); err == nil {
		t.Error("unknown snapshot should error")
	}
	if got := d.Snapshots(); len(got) != 2 || got[0] != "A" || got[1] != "B" {
		t.Errorf("snapshots = %v", got)
	}
}

// TestIsolation exercises the DPMU's §4.5 mechanisms: ownership checks and
// entry quotas.
func TestIsolation(t *testing.T) {
	d := newPersonaDPMU(t)
	comp := compileFn(t, functions.L2Switch)
	if _, err := d.Load("tenant1", comp, "alice", 2); err != nil {
		t.Fatal(err)
	}
	// Wrong owner is rejected.
	if _, err := d.TableAdd("mallory", "tenant1", EntrySpec{Table: "dmac", Action: "forward"}); err == nil {
		t.Error("foreign owner should be rejected")
	}
	if err := d.Unload("mallory", "tenant1"); err == nil {
		t.Error("foreign unload should be rejected")
	}
	// Quota: third entry is rejected.
	c := functions.NewL2ControllerFunc(d.Installer("alice", "tenant1"))
	if err := c.AddHost(mac1, 1); err != nil { // smac+dmac = 2 entries
		t.Fatal(err)
	}
	if err := c.AddHost(mac2, 2); err == nil {
		t.Error("quota of 2 should reject the third entry")
	}
	v, err := d.VDev("tenant1")
	if err != nil {
		t.Fatal(err)
	}
	if len(v.entries) != 2 {
		t.Errorf("entry count = %d", len(v.entries))
	}
}

// TestUnloadIsolation verifies removing one device leaves another running —
// the paper's live-update property.
func TestUnloadIsolation(t *testing.T) {
	d := newPersonaDPMU(t)
	loadL2(t, d, "keep", "a")
	comp := compileFn(t, functions.Firewall)
	if _, err := d.Load("gone", comp, "b", 0); err != nil {
		t.Fatal(err)
	}
	frame := pkt.Pad(pkt.Serialize(&pkt.Ethernet{Dst: mac2, Src: mac1, EtherType: 0x0800}))
	out, _, err := d.SW.Process(frame, 1)
	if err != nil || len(out) != 1 {
		t.Fatalf("before unload: %+v, %v", out, err)
	}
	if err := d.Unload("b", "gone"); err != nil {
		t.Fatal(err)
	}
	out, _, err = d.SW.Process(frame, 1)
	if err != nil || len(out) != 1 || out[0].Port != 2 {
		t.Fatalf("after unload the surviving device must still work: %+v, %v", out, err)
	}
	if names := d.VDevs(); len(names) != 1 || names[0] != "keep" {
		t.Errorf("vdevs = %v", names)
	}
}

func TestLoadErrors(t *testing.T) {
	d := newPersonaDPMU(t)
	comp := compileFn(t, functions.L2Switch)
	if _, err := d.Load("x", comp, "a", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Load("x", comp, "a", 0); err == nil {
		t.Error("duplicate load should error")
	}
	if _, err := d.VDev("ghost"); err == nil {
		t.Error("unknown vdev should error")
	}
	var zero bytes.Buffer
	_ = zero
}

// TestTableModify rebinds a virtual entry in place: the L2 switch's
// destination moves from port 2 to port 7 without a delete/add gap.
func TestTableModify(t *testing.T) {
	d := newPersonaDPMU(t)
	comp := compileFn(t, functions.L2Switch)
	if _, err := d.Load("l2", comp, "op", 0); err != nil {
		t.Fatal(err)
	}
	macVal := bitfield.FromBytes(48, mac2[:])
	h, err := d.TableAdd("op", "l2", EntrySpec{Table: "dmac", Action: "forward",
		Params: []sim.MatchParam{sim.Exact(macVal)}, Args: []bitfield.Value{bitfield.FromUint(9, 2)}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.TableAdd("op", "l2", EntrySpec{Table: "smac", Action: "_nop",
		Params: []sim.MatchParam{sim.Exact(bitfield.FromBytes(48, mac1[:]))}}); err != nil {
		t.Fatal(err)
	}
	if err := d.AssignPort("op", Assignment{PhysPort: -1, VDev: "l2", VIngress: 1}); err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{2, 7} {
		if err := d.MapVPort("op", "l2", p, p); err != nil {
			t.Fatal(err)
		}
	}
	frame := pkt.Pad(pkt.Serialize(&pkt.Ethernet{Dst: mac2, Src: mac1, EtherType: 0x0800}))
	out, _, err := d.SW.Process(frame, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].Port != 2 {
		t.Fatalf("before modify: %+v", out)
	}
	if err := d.TableModify("op", "l2", h, EntrySpec{Table: "dmac", Action: "forward",
		Params: []sim.MatchParam{sim.Exact(macVal)}, Args: []bitfield.Value{bitfield.FromUint(9, 7)}}); err != nil {
		t.Fatal(err)
	}
	out, _, err = d.SW.Process(frame, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].Port != 7 {
		t.Fatalf("after modify: %+v", out)
	}
	// Rebinding to _drop works too.
	if err := d.TableModify("op", "l2", h, EntrySpec{Table: "dmac", Action: "_drop",
		Params: []sim.MatchParam{sim.Exact(macVal)}}); err != nil {
		t.Fatal(err)
	}
	out, _, err = d.SW.Process(frame, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Fatalf("after drop rebind: %+v", out)
	}
	// Errors.
	if err := d.TableModify("op", "l2", 999, EntrySpec{Table: "dmac", Action: "_drop"}); err == nil {
		t.Error("bad handle should error")
	}
	if err := d.TableModify("op", "l2", h, EntrySpec{Table: "dmac", Action: "ghost"}); err == nil {
		t.Error("unknown action should error")
	}
	if err := d.TableModify("mallory", "l2", h, EntrySpec{Table: "dmac", Action: "_drop"}); err == nil {
		t.Error("foreign modify should error")
	}
}

// TestVirtualNetworkLoopIsBounded wires a virtual link cycle (A → B → A).
// The switch's pass bound must terminate the packet with an error rather
// than spinning forever — the §4.5 ingress-buffer hazard in its most
// extreme form.
func TestVirtualNetworkLoopIsBounded(t *testing.T) {
	d := newPersonaDPMU(t)
	comp := compileFn(t, functions.L2Switch)
	for _, name := range []string{"a", "b"} {
		if _, err := d.Load(name, comp, "op", 0); err != nil {
			t.Fatal(err)
		}
		c := functions.NewL2ControllerFunc(d.Installer("op", name))
		if err := c.AddHost(mac2, 10); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.AssignPort("op", Assignment{PhysPort: 1, VDev: "a", VIngress: 1}); err != nil {
		t.Fatal(err)
	}
	if err := d.LinkVPorts("op", "a", 10, "b", 1); err != nil {
		t.Fatal(err)
	}
	if err := d.LinkVPorts("op", "b", 10, "a", 1); err != nil {
		t.Fatal(err)
	}
	frame := pkt.Pad(pkt.Serialize(&pkt.Ethernet{Dst: mac2, Src: mac1, EtherType: 0x0800}))
	if _, _, err := d.SW.Process(frame, 1); err == nil {
		t.Fatal("virtual-network loop should hit the pass bound and error")
	}
	// The switch survives: other traffic still flows.
	if err := d.MapVPort("op", "a", 2, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := d.TableAdd("op", "a", EntrySpec{Table: "dmac", Action: "forward",
		Params: []sim.MatchParam{sim.Exact(bitfield.FromBytes(48, mac1[:]))},
		Args:   []bitfield.Value{bitfield.FromUint(9, 2)}}); err != nil {
		t.Fatal(err)
	}
	ok := pkt.Pad(pkt.Serialize(&pkt.Ethernet{Dst: mac1, Src: mac2, EtherType: 0x0800}))
	out, _, err := d.SW.Process(ok, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].Port != 2 {
		t.Fatalf("switch should keep working after the loop error: %+v", out)
	}
}

// Re-mapping or re-linking a virtual port replaces only its route: a port
// that drops (0, VPortDrop) or starts a multicast keeps its row, and the
// map or link onto it is refused.
func TestRemapKeepsDropAndMulticastRows(t *testing.T) {
	d := newPersonaDPMU(t)
	comp := compileFn(t, functions.L2Switch)
	for _, name := range []string{"src", "tgt"} {
		if _, err := d.Load(name, comp, "op", 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.MulticastGroup("op", "src", 10, []VPortRef{{VDev: "tgt", VIngress: 1}, {VDev: "tgt", VIngress: 2}}); err != nil {
		t.Fatal(err)
	}
	before := d.SW.Dump().Tables[persona.TblVirtnet]
	for _, vport := range []int{0, persona.VPortDrop, 10} {
		if err := d.MapVPort("op", "src", vport, 3); err == nil {
			t.Errorf("MapVPort onto vport %d succeeded", vport)
		}
		if err := d.LinkVPorts("op", "src", vport, "tgt", 1); err == nil {
			t.Errorf("LinkVPorts from vport %d succeeded", vport)
		}
	}
	if after := d.SW.Dump().Tables[persona.TblVirtnet]; !reflect.DeepEqual(after, before) {
		t.Fatalf("refused maps changed t_virtnet:\n got %+v\nwant %+v", after, before)
	}
}
