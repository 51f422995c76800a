package dpmu

import (
	"fmt"
	"testing"

	"hyper4/internal/functions"
	"hyper4/internal/pkt"
)

// findTable returns the named table's stats from a VDevStats.
func findTable(t *testing.T, st VDevStats, name string) VTableStats {
	t.Helper()
	for _, ts := range st.Tables {
		if ts.Table == name {
			return ts
		}
	}
	t.Fatalf("vdev %s has no table %q in stats: %+v", st.VDev, name, st.Tables)
	return VTableStats{}
}

func TestVDevStatsAttribution(t *testing.T) {
	d := newPersonaDPMU(t)
	loadL2(t, d, "l2a", "alice")

	// A second L2 device owned by bob on physical ports 3/4, so both tenants
	// share the persona's stage tables.
	comp := compileFn(t, functions.L2Switch)
	if _, err := d.Load("l2b", comp, "bob", 0); err != nil {
		t.Fatal(err)
	}
	c := functions.NewL2ControllerFunc(d.Installer("bob", "l2b"))
	if err := c.AddHost(mac1, 1); err != nil {
		t.Fatal(err)
	}
	if err := c.AddHost(mac2, 2); err != nil {
		t.Fatal(err)
	}
	for vport, phys := range map[int]int{1: 3, 2: 4} {
		if err := d.AssignPort("bob", Assignment{PhysPort: phys, VDev: "l2b", VIngress: vport}); err != nil {
			t.Fatal(err)
		}
		if err := d.MapVPort("bob", "l2b", vport, phys); err != nil {
			t.Fatal(err)
		}
	}

	known := pkt.Pad(pkt.Serialize(&pkt.Ethernet{Dst: mac2, Src: mac1, EtherType: 0x0800}, pkt.Payload("hello!")))
	unknown := pkt.Pad(pkt.Serialize(&pkt.Ethernet{Dst: pkt.MustMAC("00:00:00:00:00:99"), Src: mac1, EtherType: 0x0800}))

	// alice: 3 known-destination frames (smac hit, dmac hit) and 2
	// unknown-destination frames (smac hit, dmac miss → catch-all drop).
	for i := 0; i < 3; i++ {
		if _, _, err := d.SW.Process(known, 1); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		if _, _, err := d.SW.Process(unknown, 1); err != nil {
			t.Fatal(err)
		}
	}
	// bob: 1 known frame through port 3.
	if _, _, err := d.SW.Process(known, 3); err != nil {
		t.Fatal(err)
	}

	a, err := d.StatsForVDev("alice", "l2a")
	if err != nil {
		t.Fatal(err)
	}
	if dmac := findTable(t, a, "dmac"); dmac.Hits != 3 || dmac.Misses != 2 || dmac.Entries != 2 {
		t.Errorf("l2a dmac = %+v, want hits=3 misses=2 entries=2", dmac)
	}
	if smac := findTable(t, a, "smac"); smac.Hits != 5 || smac.Misses != 0 || smac.Entries != 2 {
		t.Errorf("l2a smac = %+v, want hits=5 misses=0 entries=2", smac)
	}
	// Per-table conservation: every pass through the device resolves each
	// applied table as exactly one hit or one miss.
	for _, ts := range a.Tables {
		if got := uint64(ts.Hits + ts.Misses); got != a.Packets {
			t.Errorf("l2a %s hits+misses = %d, want %d passes", ts.Table, got, a.Packets)
		}
	}

	// bob's counters only see bob's packet — nothing leaked from alice.
	b, err := d.StatsForVDev("bob", "l2b")
	if err != nil {
		t.Fatal(err)
	}
	if dmac := findTable(t, b, "dmac"); dmac.Hits != 1 || dmac.Misses != 0 {
		t.Errorf("l2b dmac = %+v, want hits=1 misses=0", dmac)
	}
	if smac := findTable(t, b, "smac"); smac.Hits != 1 || smac.Misses != 0 {
		t.Errorf("l2b smac = %+v, want hits=1 misses=0", smac)
	}

	// Isolation: a tenant cannot read another tenant's stats.
	if _, err := d.StatsForVDev("bob", "l2a"); err == nil {
		t.Error("bob read alice's stats")
	}

	// The operator view covers both devices, and the per-vdev pass counts
	// reconcile with the switch-level packet counter.
	all := d.AllStats()
	if len(all) != 2 || all[0].VDev != "l2a" || all[1].VDev != "l2b" {
		t.Fatalf("AllStats = %+v", all)
	}
	if total := all[0].Packets + all[1].Packets; total != uint64(d.SW.Stats().PacketsIn) {
		t.Errorf("vdev passes sum to %d, switch saw %d packets", total, d.SW.Stats().PacketsIn)
	}
}

func TestVDevStatsModifyAndDelete(t *testing.T) {
	d := newPersonaDPMU(t)
	loadL2(t, d, "l2", "alice")
	frame := pkt.Pad(pkt.Serialize(&pkt.Ethernet{Dst: mac2, Src: mac1, EtherType: 0x0800}))
	if _, _, err := d.SW.Process(frame, 1); err != nil {
		t.Fatal(err)
	}
	st, err := d.StatsForVDev("alice", "l2")
	if err != nil {
		t.Fatal(err)
	}
	if dmac := findTable(t, st, "dmac"); dmac.Hits != 1 {
		t.Fatalf("dmac = %+v", dmac)
	}

	// Deleting the entries moves subsequent traffic to the miss column and
	// drops the Entries count; the old rows' hits disappear with them.
	for _, table := range []string{"smac", "dmac"} {
		for h, e := range vdevEntries(d, "l2") {
			if e == table {
				if err := d.TableDelete("alice", "l2", table, h); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if _, _, err := d.SW.Process(frame, 1); err != nil {
		t.Fatal(err)
	}
	st, err = d.StatsForVDev("alice", "l2")
	if err != nil {
		t.Fatal(err)
	}
	if dmac := findTable(t, st, "dmac"); dmac.Entries != 0 || dmac.Hits != 0 || dmac.Misses != 1 {
		t.Errorf("after delete dmac = %+v, want entries=0 hits=0 misses=1", dmac)
	}
}

// vdevEntries snapshots a device's virtual entry handles and their tables.
func vdevEntries(d *DPMU, name string) map[int]string {
	out := map[int]string{}
	for h, e := range d.vdevs[name].entries {
		out[h] = e.Table
	}
	return out
}

// BenchmarkAllStats is the cost of one /metrics scrape of a single l2
// device holding n stations (two virtual entries each). Its growth from
// 512 to 2048 stations shows whether reading hits scales with the rows.
func BenchmarkAllStats(b *testing.B) {
	for _, n := range []int{64, 512, 2048} {
		b.Run(fmt.Sprintf("stations=%d", n), func(b *testing.B) {
			d := newPersonaDPMU(b)
			if _, err := d.Load("l2", compileFn(b, functions.L2Switch), "op", 0); err != nil {
				b.Fatal(err)
			}
			c := functions.NewL2ControllerFunc(d.Installer("op", "l2"))
			for i := 0; i < n; i++ {
				if err := c.AddHost(pkt.MAC{2, 0, 0, 0, byte(i >> 8), byte(i)}, 2); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if st := d.AllStats(); len(st) != 1 {
					b.Fatalf("stats for %d devices", len(st))
				}
			}
		})
	}
}
