package ctl

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"hyper4/internal/pkt"
	"hyper4/internal/sim"
)

// BenchmarkWriteBatchUnderTraffic is the write path's apply layer under
// load: one op is a 16-op batch (8 dmac adds, 8 deletes of the previous
// batch's adds) on a fused l2 device of 64, 512 or 2048 stations, while a
// goroutine drives ProcessSeq bursts at the stations. The nojournal case
// times apply (including waits for the switch write lock, and for a
// compile the previous batch left in flight); the journal case adds the
// WAL append and fsync. The stations dimension shows what a write's cost
// does as installed state grows. builds/op is plan compiles per batch:
// below 1 when compiles coalesce.
func BenchmarkWriteBatchUnderTraffic(b *testing.B) {
	for _, stations := range []int{64, 512, 2048} {
		b.Run(fmt.Sprintf("stations=%d/nojournal", stations), func(b *testing.B) { benchWriteBatch(b, stations, false) })
		b.Run(fmt.Sprintf("stations=%d/journal", stations), func(b *testing.B) { benchWriteBatch(b, stations, true) })
	}
}

func benchWriteBatch(b *testing.B, stations int, journaled bool) {
	p := newPersonaCtl(b)
	if journaled {
		j, err := OpenJournal(b.TempDir(), DefaultSnapshotEvery)
		if err != nil {
			b.Fatal(err)
		}
		defer j.Close()
		if _, err := p.AttachJournal(j); err != nil {
			b.Fatal(err)
		}
	}
	station := func(i int) string { return fmt.Sprintf("02:00:00:00:%02x:%02x", i>>8, i&0xff) }
	setup := []Op{
		{Kind: OpLoadVDev, VDev: "l2", Function: "l2_switch"},
		{Kind: OpAssign, VDev: "l2", PhysPort: 1, VIngress: 1},
		{Kind: OpMapVPort, VDev: "l2", VPort: 2, PhysPort: 2},
	}
	for i := 0; i < stations; i++ {
		setup = append(setup, Op{Kind: OpTableAdd, VDev: "l2", Table: "dmac", Action: "forward", Match: []string{station(i)}, Args: []string{"2"}})
	}
	for len(setup) > 0 {
		n := min(len(setup), maxBatchOps)
		if _, err := p.WriteBatch("op", setup[:n]); err != nil {
			b.Fatal(err)
		}
		setup = setup[n:]
	}
	p.D.SetFusion(true)

	burst := make([]sim.Input, 64)
	for i := range burst {
		dst := pkt.MustMAC(station(i * 4 % stations))
		burst[i] = sim.Input{Port: 1, Data: pkt.Pad(pkt.Serialize(
			&pkt.Ethernet{Dst: dst, Src: mac1, EtherType: pkt.EtherTypeIPv4},
			&pkt.IPv4{TTL: 64, Protocol: pkt.IPProtoUDP, Src: ip1, Dst: ip2},
			&pkt.UDP{SrcPort: 1000, DstPort: 2000},
			pkt.Payload("data"),
		))}
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		results := make([]sim.Result, len(burst))
		for !stop.Load() {
			_ = p.D.SW.ProcessSeq(burst, results)
		}
	}()
	defer func() {
		stop.Store(true)
		wg.Wait()
	}()

	// Churned entries use keys beyond the stations the traffic addresses.
	next := stations
	adds := func() []Op {
		ops := make([]Op, 8)
		for i := range ops {
			ops[i] = Op{Kind: OpTableAdd, VDev: "l2", Table: "dmac", Action: "forward", Match: []string{station(next)}, Args: []string{"2"}}
			next++
		}
		return ops
	}
	prev, err := p.WriteBatch("op", adds())
	if err != nil {
		b.Fatal(err)
	}
	builds0 := p.D.FusionStatus().Builds
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ops := adds()
		for _, r := range prev {
			ops = append(ops, Op{Kind: OpTableDelete, VDev: "l2", Table: "dmac", Handle: r.Handle})
		}
		res, err := p.WriteBatch("op", ops)
		if err != nil {
			b.Fatal(err)
		}
		prev = res[:8]
	}
	b.StopTimer()
	builds := p.D.FusionStatus().Builds - builds0
	b.ReportMetric(float64(builds)/float64(b.N), "builds/op")
}
