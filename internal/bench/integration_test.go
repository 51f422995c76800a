package bench

import (
	"testing"

	"hyper4/internal/core/persona"
	"hyper4/internal/functions"
	"hyper4/internal/netsim"
)

// TestEndToEndARPThroughPersona runs a live ARP resolution against an
// emulated ARP proxy: the host broadcasts a who-has, the persona answers on
// behalf of the proxied address, and the host's stack receives the reply.
func TestEndToEndARPThroughPersona(t *testing.T) {
	d, _, err := newDPMU("s1", persona.Reference)
	if err != nil {
		t.Fatal(err)
	}
	populate := func(add functions.Installer) error {
		c := functions.NewARPControllerFunc(add)
		if err := c.Init(); err != nil {
			return err
		}
		if err := c.AddProxiedHost(h2IP, h2MAC); err != nil {
			return err
		}
		return c.AddHost(h1MAC, 1)
	}
	if err := install(d, vdev{name: "arp", fn: functions.ARPProxy,
		populate: populate, assigns: anyPort(1), ports: []int{1}}); err != nil {
		t.Fatal(err)
	}

	n := netsim.New()
	n.AddSwitch("s1", d.SW)
	n.AddHost("h1", h1MAC, h1IP)
	if err := n.Connect("s1", 1, "h1"); err != nil {
		t.Fatal(err)
	}
	n.Start()
	defer n.Stop()

	// h2 does not exist on the network — only the proxy answers for it.
	mac, err := n.ResolveARP("h1", h2IP)
	if err != nil {
		t.Fatal(err)
	}
	if mac != h2MAC {
		t.Errorf("resolved %v, want %v", mac, h2MAC)
	}
}

// TestEndToEndIperfThroughComposition pushes a bulk transfer end to end
// through the full emulated arp→firewall→router chain between two hosts.
func TestEndToEndIperfThroughComposition(t *testing.T) {
	sw, err := composedSwitch("s1", HyPer4)
	if err != nil {
		t.Fatal(err)
	}
	n := netsim.New()
	n.AddSwitch("s1", sw)
	n.AddHost("h1", h1MAC, h1IP)
	n.AddHost("h2", h2MAC, h2IP)
	if err := n.Connect("s1", 1, "h1"); err != nil {
		t.Fatal(err)
	}
	if err := n.Connect("s1", 2, "h2"); err != nil {
		t.Fatal(err)
	}
	n.Start()
	defer n.Stop()

	res, err := n.Iperf("h1", "h2", 128*1024, 1400)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mbps() <= 0 {
		t.Errorf("mbps = %v", res.Mbps())
	}
	pr, err := n.PingFlood("h1", "h2", 20)
	if err != nil {
		t.Fatal(err)
	}
	if pr.Count != 20 {
		t.Errorf("pings: %+v", pr)
	}
	// The chain's per-packet cost shows up in switch statistics.
	stats := sw.Stats()
	if stats.Recirculates == 0 || stats.Resubmits == 0 {
		t.Errorf("composition should recirculate and resubmit: %+v", stats)
	}
}

// TestEndToEndMixedModes runs a native edge and an emulated middle in one
// topology, as an operator migrating gradually would.
func TestEndToEndMixedModes(t *testing.T) {
	s1, err := l2Switch("s1", Native, []hostEntry{{h1MAC, 1}, {h2MAC, 2}})
	if err != nil {
		t.Fatal(err)
	}
	s2, err := firewallSwitch("s2", HyPer4)
	if err != nil {
		t.Fatal(err)
	}
	s3, err := l2Switch("s3", Native, []hostEntry{{h1MAC, 1}, {h2MAC, 2}})
	if err != nil {
		t.Fatal(err)
	}
	n := netsim.New()
	n.AddSwitch("s1", s1)
	n.AddSwitch("s2", s2)
	n.AddSwitch("s3", s3)
	n.AddHost("h1", h1MAC, h1IP)
	n.AddHost("h2", h2MAC, h2IP)
	if err := n.Connect("s1", 1, "h1"); err != nil {
		t.Fatal(err)
	}
	if err := n.Connect("s3", 2, "h2"); err != nil {
		t.Fatal(err)
	}
	if err := n.ConnectSwitches("s1", 2, "s2", 1); err != nil {
		t.Fatal(err)
	}
	if err := n.ConnectSwitches("s2", 2, "s3", 1); err != nil {
		t.Fatal(err)
	}
	n.Start()
	defer n.Stop()
	pr, err := n.PingFlood("h1", "h2", 25)
	if err != nil {
		t.Fatal(err)
	}
	if pr.Count != 25 {
		t.Errorf("pings: %+v", pr)
	}
}
