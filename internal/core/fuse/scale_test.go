package fuse_test

import (
	"fmt"
	"testing"

	"hyper4/internal/core/dpmu"
	"hyper4/internal/core/fuse"
	"hyper4/internal/core/hp4c"
	"hyper4/internal/core/persona"
	"hyper4/internal/functions"
	"hyper4/internal/pkt"
	"hyper4/internal/sim"
)

func station(i int) pkt.MAC { return pkt.MAC{0x02, 0, 0, 0, byte(i >> 8), byte(i)} }

// l2Stations loads one l2_switch vdev with n stations (2n entries), even
// ones behind port 1 and odd ones behind port 2.
func l2Stations(tb testing.TB, n int) (*dpmu.DPMU, *dpmu.VDev, *hp4c.Compiled) {
	tb.Helper()
	p, err := persona.Generate(persona.Reference)
	if err != nil {
		tb.Fatal(err)
	}
	sw, err := sim.New("hp4", p.Program)
	if err != nil {
		tb.Fatal(err)
	}
	d, err := dpmu.New(sw, p)
	if err != nil {
		tb.Fatal(err)
	}
	prog, err := functions.Load(functions.L2Switch)
	if err != nil {
		tb.Fatal(err)
	}
	comp, err := hp4c.Compile(prog, persona.Reference)
	if err != nil {
		tb.Fatal(err)
	}
	v, err := d.Load("l2", comp, "op", 0)
	if err != nil {
		tb.Fatal(err)
	}
	c := functions.NewL2ControllerFunc(d.Installer("op", "l2"))
	for i := 0; i < n; i++ {
		if err := c.AddHost(station(i), 1+i%2); err != nil {
			tb.Fatal(err)
		}
	}
	for port := 1; port <= 2; port++ {
		if err := d.AssignPort("op", dpmu.Assignment{PhysPort: port, VDev: "l2", VIngress: port}); err != nil {
			tb.Fatal(err)
		}
		if err := d.MapVPort("op", "l2", port, port); err != nil {
			tb.Fatal(err)
		}
	}
	return d, v, comp
}

// TestFusedLookupGroupsIndependentOfEntries pins what makes a fused lookup
// cost the same at any table size: the l2 dmac table's rows grow with the
// stations, its mask groups — the probes a lookup makes — do not.
func TestFusedLookupGroupsIndependentOfEntries(t *testing.T) {
	groups := map[int][]int{}
	for _, n := range []int{64, 1024} {
		d, v, comp := l2Stations(t, n)
		eng, _ := fuse.Build(d.SW, persona.Reference, []fuse.VDev{{Name: "l2", PID: v.PID}})
		if eng == nil {
			t.Fatalf("%d stations: nothing fused", n)
		}
		for _, s := range comp.Slots["dmac"] {
			rows, g, ok := eng.SlotShape(v.PID, s.Kind, s.ID)
			if !ok {
				t.Fatalf("%d stations: dmac slot %d not fused", n, s.ID)
			}
			if rows < n {
				t.Fatalf("%d stations: dmac slot %d holds %d rows", n, s.ID, rows)
			}
			groups[n] = append(groups[n], g)
		}
	}
	if fmt.Sprint(groups[64]) != fmt.Sprint(groups[1024]) {
		t.Fatalf("dmac mask groups grew with the table: %v at 64 stations, %v at 1024", groups[64], groups[1024])
	}
}

// BenchmarkFusedLookup is one fused l2 packet at growing table sizes; the
// ns/op should not move with the station count.
func BenchmarkFusedLookup(b *testing.B) {
	for _, n := range []int{64, 512, 2048} {
		b.Run(fmt.Sprintf("stations=%d", n), func(b *testing.B) {
			d, _, _ := l2Stations(b, n)
			d.SetFusion(true)
			frame := pkt.Pad(pkt.Serialize(
				&pkt.Ethernet{Dst: station(n - 1), Src: station(0), EtherType: 0x88b5},
				pkt.Payload("lookup")))
			if out, _, err := d.SW.Process(frame, 1); err != nil || len(out) != 1 || out[0].Port != 2 {
				b.Fatalf("warm-up: out=%+v err=%v", out, err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := d.SW.Process(frame, 1); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if d.FusionStatus().FastHits == 0 {
				b.Fatal("the benchmark never took the fast path")
			}
		})
	}
}
