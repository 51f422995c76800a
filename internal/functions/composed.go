package functions

// Composed is the native sequential composition of the ARP proxy, firewall,
// and IPv4 router — the program a §7.2-style composition compiler would
// emit, and the native baseline for the paper's "Ex. 1 C" row in Table 5.
// It merges arp_proxy → firewall → router into one P4 program.
const Composed = "composed"

// ComposedController populates the composed program's tables. Its tables
// are the ARP proxy's, the firewall's and the router's under their own
// names, so it is those three controllers over one installer. AddHost is
// ambiguous between them and so not promoted: the composed program has no
// L2 tables.
type ComposedController struct {
	*ARPController
	*FirewallController
	*RouterController
}

// NewComposedControllerFunc returns a controller that writes through add.
// It installs nothing; Init marks ARP requests.
func NewComposedControllerFunc(add Installer) *ComposedController {
	return &ComposedController{
		ARPController:      NewARPControllerFunc(add),
		FirewallController: NewFirewallControllerFunc(add),
		RouterController:   NewRouterControllerFunc(add),
	}
}

// Init installs the composed program's one initial row, the ARP proxy's
// check_arp; the router's TTL checks are not in the composed program.
func (c *ComposedController) Init() error { return c.ARPController.Init() }
