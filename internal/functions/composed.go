package functions

import "hyper4/internal/sim"

// Composed is the native sequential composition of the ARP proxy, firewall,
// and IPv4 router — the program a §7.2-style composition compiler would
// emit, and the native baseline for the paper's "Ex. 1 C" row in Table 5.
// It merges arp_proxy → firewall → router into one P4 program.
const Composed = "composed"

// ComposedController populates the composed program's tables. Its tables
// are the ARP proxy's, the firewall's and the router's under their own
// names, so it is those three controllers over one installer. AddHost and
// Init are ambiguous between them and so not promoted: the composed program
// has no L2 tables, and its one initial row is the ARP proxy's check_arp.
type ComposedController struct {
	*ARPController
	*FirewallController
	*RouterController
}

// NewComposedController installs entries directly on a native switch and
// marks ARP requests.
func NewComposedController(sw *sim.Switch) (*ComposedController, error) {
	arp, err := NewARPController(sw)
	if err != nil {
		return nil, err
	}
	return &ComposedController{
		ARPController:      arp,
		FirewallController: NewFirewallControllerFunc(arp.add),
		RouterController:   NewRouterControllerFunc(arp.add),
	}, nil
}
