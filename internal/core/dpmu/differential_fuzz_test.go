package dpmu

import (
	"fmt"
	"math/rand"
	"testing"

	"hyper4/internal/functions"
	"hyper4/internal/pkt"
)

// TestDifferentialRandomPopulation is the property-style version of the
// differential check: each trial installs a RANDOM firewall rule set (and
// random L2 stations) identically on the native switch and the persona,
// then compares outputs over a random packet burst. Exercises the DPMU's
// entry translation (masks, priorities, path replication) across many
// shapes, not just the fixed fixtures.
func TestDifferentialRandomPopulation(t *testing.T) {
	rng := rand.New(rand.NewSource(20260705))
	for trial := 0; trial < 8; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			native, err := functions.NewSwitch("native", functions.Firewall)
			if err != nil {
				t.Fatal(err)
			}
			d := newPersonaDPMU(t)
			comp := compileFn(t, functions.Firewall)
			if _, err := d.Load("fw", comp, "fuzz", 0); err != nil {
				t.Fatal(err)
			}
			nc := functions.NewFirewallControllerFunc(functions.Native(native))
			ec := functions.NewFirewallControllerFunc(d.Installer("fuzz", "fw"))

			// Random stations.
			stations := []pkt.MAC{mac1, mac2}
			for i := 0; i < rng.Intn(4); i++ {
				m := pkt.MustMAC(fmt.Sprintf("02:00:00:00:%02x:%02x", trial, i))
				stations = append(stations, m)
			}
			for i, m := range stations {
				port := 1 + i%4
				for _, c := range []*functions.FirewallController{nc, ec} {
					if err := c.AddHost(m, port); err != nil {
						t.Fatal(err)
					}
				}
			}
			// Random rules.
			for i := 0; i < 1+rng.Intn(5); i++ {
				port := uint16(rng.Intn(10000))
				for _, c := range []*functions.FirewallController{nc, ec} {
					var err error
					switch rng.Intn(3) {
					case 0:
						err = c.BlockTCPDstPort(port)
					case 1:
						err = c.BlockUDPDstPort(port)
					default:
						src := pkt.IP4FromUint32(rng.Uint32())
						dst := pkt.IP4FromUint32(rng.Uint32())
						err = c.BlockIPPair(src, dst)
					}
					if err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := d.AssignPort("fuzz", Assignment{PhysPort: -1, VDev: "fw", VIngress: 1}); err != nil {
				t.Fatal(err)
			}
			for _, port := range []int{1, 2, 3, 4} {
				if err := d.MapVPort("fuzz", "fw", port, port); err != nil {
					t.Fatal(err)
				}
			}

			for i := 0; i < 60; i++ {
				frame := randomFrame(rng)
				port := 1 + rng.Intn(4)
				nOut, _, err := native.Process(frame, port)
				if err != nil {
					t.Fatal(err)
				}
				eOut, _, err := d.SW.Process(frame, port)
				if err != nil {
					t.Fatal(err)
				}
				if !sameOutputs(nOut, eOut) {
					t.Fatalf("packet %d (%s) diverged:\nnative:   %s\nemulated: %s",
						i, pkt.Summary(frame), renderOutputs(nOut), renderOutputs(eOut))
				}
			}
		})
	}
}
