package ctl

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hyper4/internal/breaker"
	"hyper4/internal/chaos"
	"hyper4/internal/core/dpmu"
	"hyper4/internal/pkt"
)

// tenantSpec describes one tenant's emulated L2 switch for the chaos
// harness: two hosts on two physical ports, isolated from the other tenant.
type tenantSpec struct {
	owner string
	vdev  string
	macs  [2]pkt.MAC
	ports [2]int
}

// ops returns the management batch that loads and wires the tenant.
func (ts tenantSpec) ops() []Op {
	return []Op{
		{Kind: OpLoadVDev, VDev: ts.vdev, Function: "l2_switch"},
		{Kind: OpTableAdd, VDev: ts.vdev, Table: "smac", Action: "_nop", Match: []string{ts.macs[0].String()}},
		{Kind: OpTableAdd, VDev: ts.vdev, Table: "dmac", Action: "forward", Match: []string{ts.macs[1].String()}, Args: []string{fmt.Sprint(ts.ports[1])}},
		{Kind: OpAssign, VDev: ts.vdev, PhysPort: ts.ports[0], VIngress: ts.ports[0]},
		{Kind: OpMapVPort, VDev: ts.vdev, VPort: ts.ports[1], PhysPort: ts.ports[1]},
	}
}

// frame builds the tenant's i-th traffic frame; the payload varies so the
// byte-identity check compares real content, not one repeated packet.
func (ts tenantSpec) frame(i int) []byte {
	return pkt.Pad(pkt.Serialize(
		&pkt.Ethernet{Dst: ts.macs[1], Src: ts.macs[0], EtherType: 0x0800},
		pkt.Payload(fmt.Sprintf("%s-%04d", ts.owner, i)),
	))
}

// healthOf polls one device's health through the management API. Every poll
// is a real management read, so it advances the time-based breaker
// transitions (quarantined -> probing -> healthy) like a metrics scrape.
func healthOf(t *testing.T, client *Client, vdev string) dpmu.VDevHealth {
	t.Helper()
	res, err := client.Health(vdev)
	if err != nil {
		t.Fatalf("health %s: %v", vdev, err)
	}
	return res.Health.VDevs[0]
}

// TestChaosHarness is the end-to-end fault-containment scenario: two
// tenants share one persona switch, a seeded injector panics inside one
// tenant's actions while both tenants' traffic and concurrent management
// operations keep flowing. The harness asserts the switch never dies, the
// faulty device walks healthy -> degraded -> quarantined -> probing ->
// healthy (read back from the event stream, which records every breaker
// transition), and the healthy tenant's outputs are byte-identical to a
// no-fault run. Run it under -race: the traffic, probe, and management
// paths all cross.
func TestChaosHarness(t *testing.T) {
	alice := tenantSpec{owner: "alice", vdev: "al2", ports: [2]int{1, 2},
		macs: [2]pkt.MAC{pkt.MustMAC("00:00:00:00:00:01"), pkt.MustMAC("00:00:00:00:00:02")}}
	bob := tenantSpec{owner: "bob", vdev: "bl2", ports: [2]int{3, 4},
		macs: [2]pkt.MAC{pkt.MustMAC("00:00:00:00:00:03"), pkt.MustMAC("00:00:00:00:00:04")}}

	// The faulted switch, managed remotely; breakers trip after 3 faults
	// and probe with 2 clean packets after a 50ms open interval.
	c := newPersonaCtl(t)
	c.D.SetHealthConfig(dpmu.HealthConfig{
		Config:       breaker.Config{Window: 5 * time.Second, Trip: 3, OpenFor: 50 * time.Millisecond},
		ProbePackets: 2,
		Policy:       dpmu.PolicyDrop,
	})
	srv := httptest.NewServer(NewServeMux(c))
	defer srv.Close()
	aliceClient := &Client{Base: srv.URL, Owner: alice.owner, Timeout: 5 * time.Second, Retries: 3}
	bobClient := &Client{Base: srv.URL, Owner: bob.owner, Timeout: 5 * time.Second, Retries: 3}

	// The reference switch: identical tenants, no injector, no faults.
	ref := newPersonaCtl(t)

	alicePID := 0
	for _, load := range []struct {
		client *Client
		ts     tenantSpec
	}{{aliceClient, alice}, {bobClient, bob}} {
		results, err := load.client.Write(load.ts.ops())
		if err != nil {
			t.Fatalf("load %s: %v", load.ts.vdev, err)
		}
		if load.ts.owner == "alice" {
			alicePID = results[0].PID
		}
		if _, err := ref.WriteBatch(load.ts.owner, load.ts.ops()); err != nil {
			t.Fatalf("load %s on reference: %v", load.ts.vdev, err)
		}
	}
	if alicePID == 0 {
		t.Fatal("no PID for alice's device")
	}
	if got := healthOf(t, aliceClient, alice.vdev); got.State != breaker.Healthy {
		t.Fatalf("initial health: %+v", got)
	}

	// Seeded chaos: every action attributed to alice's program panics,
	// capped at 3 injected panics — exactly one breaker trip, then the
	// defect "clears" and probes find the device healthy again.
	c.D.SW.SetInjector(chaos.New(chaos.Spec{Seed: 7, Attr: uint64(alicePID), PanicEvery: 1, PanicFirst: 3}))

	const bobPackets = 300
	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Alice's traffic: faults, then quarantine drops, then probes. Errors
	// are the point — the only assertion is that the switch survives them.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			_, _, _ = c.D.SW.Process(alice.frame(i), alice.ports[0])
			time.Sleep(200 * time.Microsecond)
		}
	}()

	// Bob's traffic: a fixed sequence whose outputs must match the no-fault
	// reference byte for byte.
	bobOuts := make([][]byte, 0, bobPackets)
	bobPorts := make([]int, 0, bobPackets)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < bobPackets; i++ {
			outs, _, err := c.D.SW.Process(bob.frame(i), bob.ports[0])
			if err != nil || len(outs) != 1 {
				t.Errorf("bob packet %d: outs=%v err=%v", i, outs, err)
				return
			}
			bobOuts = append(bobOuts, bytes.Clone(outs[0].Data))
			bobPorts = append(bobPorts, outs[0].Port)
			time.Sleep(100 * time.Microsecond)
		}
	}()

	// Concurrent management: reads and retried writes against the API while
	// the data plane is faulting, at a controller-like cadence (every batch
	// write checkpoints the switch for atomic rollback, so a hot write loop
	// would measure the checkpoint path, not fault containment). The
	// table_add touches a host bob's traffic never sends to, so it cannot
	// perturb the byte-identity check.
	var mgmtWrites atomic.Int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := bobClient.Read(&Query{Kind: "stats", VDev: bob.vdev}); err != nil {
				t.Errorf("stats during chaos: %v", err)
				return
			}
			op := Op{Kind: OpTableAdd, VDev: bob.vdev, Table: "dmac", Action: "forward",
				Match: []string{fmt.Sprintf("00:00:00:00:10:%02x", i%256)}, Args: []string{fmt.Sprint(bob.ports[1])}}
			if _, err := bobClient.Write([]Op{op}); err != nil {
				t.Errorf("write during chaos: %v", err)
				return
			}
			mgmtWrites.Add(1)
			time.Sleep(10 * time.Millisecond)
		}
	}()

	// Poll until the device has tripped once and recovered. The polls
	// themselves drive the time-based transitions; the exact state walk is
	// asserted from the event stream below, so a poll needn't land inside
	// the 50ms quarantine window to observe it.
	deadline := time.Now().Add(15 * time.Second)
	for {
		got := healthOf(t, aliceClient, alice.vdev)
		if got.State == breaker.Healthy && got.Trips == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("device %s never tripped and recovered: %+v", alice.vdev, got)
		}
		time.Sleep(2 * time.Millisecond)
	}

	close(stop)
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if mgmtWrites.Load() == 0 {
		t.Error("management loop never completed a write")
	}

	// The event stream recorded every breaker transition, in order.
	events, _, err := aliceClient.Events(0, 0)
	if err != nil {
		t.Fatalf("events: %v", err)
	}
	var walk []string
	for _, e := range events {
		if e.Kind != "health" {
			continue
		}
		if e.VDev != alice.vdev {
			t.Errorf("health event for co-tenant device: %+v", e)
			continue
		}
		walk = append(walk, e.Msg)
	}
	want := []string{"degraded", "quarantined", "probing", "healthy"}
	if fmt.Sprint(walk) != fmt.Sprint(want) {
		t.Errorf("breaker walk = %v, want %v", walk, want)
	}

	// Bob never saw a fault and never left Healthy.
	if got := healthOf(t, bobClient, bob.vdev); got.State != breaker.Healthy || got.Faults != 0 {
		t.Errorf("co-tenant health: %+v", got)
	}

	// Byte-identity: replay bob's exact sequence on the no-fault reference
	// switch and compare every output frame and egress port.
	for i := 0; i < bobPackets; i++ {
		outs, _, err := ref.D.SW.Process(bob.frame(i), bob.ports[0])
		if err != nil || len(outs) != 1 {
			t.Fatalf("reference bob packet %d: outs=%v err=%v", i, outs, err)
		}
		if outs[0].Port != bobPorts[i] || !bytes.Equal(outs[0].Data, bobOuts[i]) {
			t.Fatalf("bob packet %d diverged from no-fault run:\n got port %d data %x\nwant port %d data %x",
				i, bobPorts[i], bobOuts[i], outs[0].Port, outs[0].Data)
		}
	}

	// Alice is fully restored: her traffic forwards unmodified again.
	frame := alice.frame(9999)
	outs, _, err := c.D.SW.Process(frame, alice.ports[0])
	if err != nil || len(outs) != 1 || outs[0].Port != alice.ports[1] || !bytes.Equal(outs[0].Data, frame) {
		t.Fatalf("restored alice traffic: outs=%v err=%v", outs, err)
	}

	// The faulted run counted exactly the 3 injected panics against alice.
	snap := c.D.SW.Metrics()
	if snap.Faults.Panic != 3 {
		t.Errorf("panic faults = %d, want 3", snap.Faults.Panic)
	}
	if snap.Faults.QuarantineDrops == 0 {
		t.Error("no quarantine drops recorded")
	}
}
