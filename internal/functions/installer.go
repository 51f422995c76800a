package functions

import (
	"hyper4/internal/bitfield"
	"hyper4/internal/sim"
)

// Installer adds one table entry. Every controller writes through one, so
// the same controller drives a native switch (Native) or a virtual device
// (dpmu.DPMU.Installer) unchanged — the premise of the paper's DPMU (§4).
type Installer func(table, action string, params []sim.MatchParam, args []bitfield.Value, prio int) error

// Native returns an Installer that adds entries directly to sw.
func Native(sw *sim.Switch) Installer {
	return func(table, action string, params []sim.MatchParam, args []bitfield.Value, prio int) error {
		_, err := sw.TableAdd(table, action, params, args, prio)
		return err
	}
}
