// Package functions provides the four network functions the HyPer4 paper
// writes in P4 and emulates (§3.1): a layer-2 Ethernet switch, an IPv4
// router, an ARP proxy, and a firewall. Each function is real P4_14 source
// (parsed by our own front end and executed by internal/sim) plus a native
// controller that populates its tables.
//
// The table shapes are chosen so the native match counts on the most complex
// packet path equal Table 1 of the paper: L2 switch 2, firewall 3, router 4,
// ARP proxy 4.
package functions

import (
	"fmt"

	"hyper4/internal/p4/hlir"
	"hyper4/internal/p4/parser"
	"hyper4/internal/sim"
	"hyper4/p4src"
)

// Names of the four functions.
const (
	// L2Switch is the layer-2 Ethernet switch (§3.1 function 1). The most
	// complex path applies two tables (smac check, dmac forward), matching
	// the native count in Table 1.
	L2Switch = "l2_switch"
	// Router is the IPv4 router (§3.1 function 2): TTL validation, LPM
	// route lookup, next-hop MAC rewrite, and egress source-MAC rewrite,
	// with the IPv4 header checksum recomputed. The most complex path
	// applies four tables, matching the native count in Table 1.
	Router = "router"
	// ARPProxy is the ARP proxy (§3.1 function 3): it answers ARP requests
	// on behalf of the IPv4 hosts they target, and switches all other
	// traffic at layer 2. Its proxy_reply action uses nine primitives to
	// turn the request into a reply in place — the paper calls this out as
	// the reason the emulated ARP proxy costs 12x (Table 1) and it is the
	// program with the most unique persona tables (Table 3).
	ARPProxy = "arp_proxy"
	// Firewall is the firewall (§3.1 function 4): it filters traffic by
	// IPv4 source/destination and TCP/UDP source/destination ports, and
	// switches allowed traffic at layer 2. The most complex path (a TCP or
	// UDP packet) applies three tables, matching the native count in
	// Table 1.
	Firewall = "firewall"
)

// Sources maps function name to its P4_14 source, the p4src/<name>.p4 file.
var Sources = map[string]string{
	L2Switch: p4src.L2Switch,
	Router:   p4src.Router,
	ARPProxy: p4src.ARPProxy,
	Firewall: p4src.Firewall,
	Composed: p4src.Composed,
}

// Names returns the four function names in the paper's Table 1 order.
func Names() []string { return []string{L2Switch, Firewall, Router, ARPProxy} }

// Load parses and resolves a function by name.
func Load(name string) (*hlir.Program, error) {
	src, ok := Sources[name]
	if !ok {
		return nil, fmt.Errorf("functions: unknown function %q", name)
	}
	prog, err := parser.Parse(name, src)
	if err != nil {
		return nil, err
	}
	return hlir.Resolve(prog)
}

// NewSwitch parses, resolves, and loads a function onto a fresh switch.
func NewSwitch(swName, fn string) (*sim.Switch, error) {
	prog, err := Load(fn)
	if err != nil {
		return nil, err
	}
	return sim.New(swName, prog)
}
