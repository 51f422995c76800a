// Package p4src embeds the guest programs' P4_14 source from the .p4 files
// beside it, so those files are the one copy the library runs.
package p4src

import _ "embed"

//go:embed l2_switch.p4
var L2Switch string

//go:embed router.p4
var Router string

//go:embed arp_proxy.p4
var ARPProxy string

//go:embed firewall.p4
var Firewall string

//go:embed composed.p4
var Composed string
