package dpmu

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"hyper4/internal/breaker"
	"hyper4/internal/chaos"
	"hyper4/internal/pkt"
)

// fakeClock drives the health tracker's time deterministically.
type fakeClock struct{ t time.Time }

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1_000_000, 0)} }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

// testHealthConfig is a tight breaker for unit tests.
func testHealthConfig(policy QuarantinePolicy) HealthConfig {
	return HealthConfig{
		Config:       breaker.Config{Window: time.Second, Trip: 3, OpenFor: 100 * time.Millisecond},
		ProbePackets: 2,
		Policy:       policy,
	}
}

func l2Frame() []byte {
	return pkt.Pad(pkt.Serialize(&pkt.Ethernet{Dst: mac2, Src: mac1, EtherType: 0x0800}, pkt.Payload("hello!")))
}

// stateOf fetches one device's health from a snapshot.
func stateOf(t *testing.T, snap HealthSnapshot, vdev string) VDevHealth {
	t.Helper()
	for _, v := range snap.VDevs {
		if v.VDev == vdev {
			return v
		}
	}
	t.Fatalf("no health record for %q in %+v", vdev, snap)
	return VDevHealth{}
}

func TestBreakerTripQuarantineAndRecover(t *testing.T) {
	d := newPersonaDPMU(t)
	clock := newFakeClock()
	d.SetHealthClock(clock.now)
	d.SetHealthConfig(testHealthConfig(PolicyDrop))
	loadL2(t, d, "l2", "alice")

	if got := stateOf(t, d.Health(), "l2"); got.State != breaker.Healthy || got.PID != 1 {
		t.Fatalf("initial health = %+v", got)
	}

	// Inject a panic into every action attributed to the device (PID 1).
	d.SW.SetInjector(chaos.New(chaos.Spec{Seed: 1, Attr: 1, PanicEvery: 1}))
	frame := l2Frame()
	for i := 0; i < 2; i++ {
		if _, _, err := d.SW.Process(frame, 1); err == nil {
			t.Fatalf("packet %d should fault", i)
		}
	}
	if got := stateOf(t, d.Health(), "l2"); got.State != breaker.Degraded || got.WindowFaults != 2 {
		t.Fatalf("after 2 faults: %+v", got)
	}
	if _, _, err := d.SW.Process(frame, 1); err == nil {
		t.Fatal("third packet should fault")
	}
	got := stateOf(t, d.Health(), "l2")
	if got.State != breaker.Quarantined || got.Trips != 1 || got.Faults != 3 {
		t.Fatalf("after trip: %+v", got)
	}
	if got.LastKind != "panic" {
		t.Fatalf("last fault kind = %q", got.LastKind)
	}

	// Quarantined: packets are dropped silently — and never reach the
	// injector, so no further faults accrue.
	out, _, err := d.SW.Process(frame, 1)
	if err != nil || len(out) != 0 {
		t.Fatalf("quarantined: out=%v err=%v", out, err)
	}
	if got := d.SW.Metrics().Faults.QuarantineDrops; got == 0 {
		t.Fatal("no quarantine drops counted")
	}

	// The defect "clears" (injector removed); after OpenFor the breaker goes
	// half-open and two clean probes restore the device.
	d.SW.SetInjector(nil)
	clock.advance(150 * time.Millisecond)
	if got := stateOf(t, d.Health(), "l2"); got.State != breaker.Probing || got.ProbesLeft != 2 {
		t.Fatalf("after open interval: %+v", got)
	}
	for i := 0; i < 2; i++ {
		out, _, err := d.SW.Process(frame, 1)
		if err != nil || len(out) != 1 || out[0].Port != 2 {
			t.Fatalf("probe %d: out=%v err=%v", i, out, err)
		}
	}
	if got := stateOf(t, d.Health(), "l2"); got.State != breaker.Healthy {
		t.Fatalf("after clean probes: %+v", got)
	}
	// Fully restored: traffic forwards, byte-identical.
	out, _, err = d.SW.Process(frame, 1)
	if err != nil || len(out) != 1 || !bytes.Equal(out[0].Data, frame) {
		t.Fatalf("restored: out=%v err=%v", out, err)
	}
}

func TestFaultDuringProbingRetrips(t *testing.T) {
	d := newPersonaDPMU(t)
	clock := newFakeClock()
	d.SetHealthClock(clock.now)
	d.SetHealthConfig(testHealthConfig(PolicyDrop))
	loadL2(t, d, "l2", "alice")

	d.SW.SetInjector(chaos.New(chaos.Spec{Seed: 1, Attr: 1, PanicEvery: 1}))
	frame := l2Frame()
	for i := 0; i < 3; i++ {
		_, _, _ = d.SW.Process(frame, 1)
	}
	if got := stateOf(t, d.Health(), "l2"); got.State != breaker.Quarantined {
		t.Fatalf("not tripped: %+v", got)
	}
	clock.advance(150 * time.Millisecond)
	if got := stateOf(t, d.Health(), "l2"); got.State != breaker.Probing {
		t.Fatalf("not probing: %+v", got)
	}
	// The defect persists: the first probe faults and re-trips immediately.
	if _, _, err := d.SW.Process(frame, 1); err == nil {
		t.Fatal("probe should fault")
	}
	if got := stateOf(t, d.Health(), "l2"); got.State != breaker.Quarantined || got.Trips != 2 {
		t.Fatalf("after faulty probe: %+v", got)
	}
}

func TestDegradedDecaysToHealthy(t *testing.T) {
	d := newPersonaDPMU(t)
	clock := newFakeClock()
	d.SetHealthClock(clock.now)
	d.SetHealthConfig(testHealthConfig(PolicyDrop))
	loadL2(t, d, "l2", "alice")

	d.SW.SetInjector(chaos.New(chaos.Spec{Seed: 1, Attr: 1, PanicEvery: 1, PanicFirst: 1}))
	if _, _, err := d.SW.Process(l2Frame(), 1); err == nil {
		t.Fatal("packet should fault")
	}
	if got := stateOf(t, d.Health(), "l2"); got.State != breaker.Degraded {
		t.Fatalf("after 1 fault: %+v", got)
	}
	clock.advance(2 * time.Second) // window empties
	if got := stateOf(t, d.Health(), "l2"); got.State != breaker.Healthy || got.Faults != 1 {
		t.Fatalf("after window decay: %+v", got)
	}
}

// tcp5201 is traffic the composition's firewall blocks.
func tcp5201() []byte {
	return pkt.Pad(pkt.Serialize(
		&pkt.Ethernet{Dst: mac2, Src: mac1, EtherType: pkt.EtherTypeIPv4},
		&pkt.IPv4{TTL: 64, Protocol: pkt.IPProtoTCP, Src: ip1, Dst: ip2},
		&pkt.TCP{SrcPort: 40000, DstPort: 5201},
	))
}

func ping() []byte {
	return pkt.Pad(pkt.Serialize(
		&pkt.Ethernet{Dst: mac2, Src: mac1, EtherType: pkt.EtherTypeIPv4},
		&pkt.IPv4{TTL: 64, Protocol: pkt.IPProtoICMP, Src: ip1, Dst: ip2},
		&pkt.ICMP{Type: pkt.ICMPEchoRequest, ID: 1, Seq: 1},
	))
}

func TestBypassPolicyRewiresChain(t *testing.T) {
	d := newPersonaDPMU(t)
	clock := newFakeClock()
	d.SetHealthClock(clock.now)
	d.SetHealthConfig(testHealthConfig(PolicyBypass))
	loadComposition(t, d) // arp(1) → fw(2) → r(3)

	// Sanity: the firewall blocks TCP 5201, pings route.
	if out, _, err := d.SW.Process(tcp5201(), 1); err != nil || len(out) != 0 {
		t.Fatalf("blocked flow pre-fault: out=%v err=%v", out, err)
	}
	if out, _, err := d.SW.Process(ping(), 1); err != nil || len(out) != 1 || out[0].Port != 2 {
		t.Fatalf("ping pre-fault: out=%v err=%v", out, err)
	}

	// Trip the firewall.
	d.SW.SetInjector(chaos.New(chaos.Spec{Seed: 1, Attr: 2, PanicEvery: 1, PanicFirst: 3}))
	for i := 0; i < 3; i++ {
		if _, _, err := d.SW.Process(ping(), 1); err == nil {
			t.Fatalf("packet %d should fault in fw", i)
		}
	}
	got := stateOf(t, d.Health(), "fw")
	if got.State != breaker.Quarantined || !got.Bypassed {
		t.Fatalf("fw after trip: %+v", got)
	}

	// The chain keeps forwarding around the dead firewall: pings still
	// route, and — the price of bypass — blocked traffic passes too.
	out, _, err := d.SW.Process(ping(), 1)
	if err != nil || len(out) != 1 || out[0].Port != 2 {
		t.Fatalf("ping under bypass: out=%v err=%v", out, err)
	}
	out, _, err = d.SW.Process(tcp5201(), 1)
	if err != nil || len(out) != 1 {
		t.Fatalf("bypassed flow: out=%v err=%v", out, err)
	}

	// Half-open: the links are restored so probes traverse the firewall
	// again; the injector is exhausted (PanicFirst), so probes run clean.
	clock.advance(150 * time.Millisecond)
	if got := stateOf(t, d.Health(), "fw"); got.State != breaker.Probing || got.Bypassed {
		t.Fatalf("fw probing: %+v", got)
	}
	// Each composed ping traverses the firewall in more than one pipeline
	// pass, so a single ping may use up the whole probe budget; sync health
	// between packets so a drained budget promotes before the next probe.
	for i := 0; i < 5 && stateOf(t, d.Health(), "fw").State == breaker.Probing; i++ {
		if out, _, err := d.SW.Process(ping(), 1); err != nil || len(out) != 1 {
			t.Fatalf("probe ping %d: out=%v err=%v", i, out, err)
		}
	}
	if got := stateOf(t, d.Health(), "fw"); got.State != breaker.Healthy {
		t.Fatalf("fw after probes: %+v", got)
	}
	// Enforcement is back.
	if out, _, err := d.SW.Process(tcp5201(), 1); err != nil || len(out) != 0 {
		t.Fatalf("blocked flow post-recovery: out=%v err=%v", out, err)
	}
}

// launchDelayedFaultingPacket arms an injector that makes every packet dawdle
// inside the switch read lock before faulting in arp's pass (attr 1) — and
// hence calling the fault hook, which takes health.mu — then sends one ping
// on a background goroutine and gives it time to enter its delay. It returns
// a channel carrying the packet's error. The caller then performs a bypass
// rewire: the table write blocks on the switch write lock until the packet
// drains, and the packet's fault hook needs health.mu — so any code that
// rewires while holding health.mu deadlocks here deterministically.
func launchDelayedFaultingPacket(t *testing.T, d *DPMU) <-chan error {
	t.Helper()
	d.SW.SetInjector(chaos.New(chaos.Spec{
		Seed: 1, Attr: 1, PanicEvery: 1,
		DelayEvery: 1, Delay: 200 * time.Millisecond,
	}))
	done := make(chan error, 1)
	go func() {
		_, _, err := d.SW.Process(ping(), 1)
		done <- err
	}()
	time.Sleep(100 * time.Millisecond) // packet is now parked inside its delay
	return done
}

// TestHealthSyncBypassConcurrentFaultNoDeadlock pins a faulting packet inside
// the switch read lock while a health sync enforces bypass for a quarantined
// device. Enforcing under health.mu deadlocked: the rewire's table write
// waits for the packet to drain, the packet's fault hook waits for health.mu.
func TestHealthSyncBypassConcurrentFaultNoDeadlock(t *testing.T) {
	d := newPersonaDPMU(t)
	d.SetHealthConfig(HealthConfig{
		Config:       breaker.Config{Window: time.Second, Trip: 2, OpenFor: time.Hour}, // stay quarantined: no probing transition
		ProbePackets: 1,
		Policy:       PolicyBypass,
	})
	loadComposition(t, d) // arp(1) → fw(2) → r(3)

	// Trip the firewall WITHOUT a health query in between, so the first
	// bypass enforcement happens in the sync below, under contention.
	d.SW.SetInjector(chaos.New(chaos.Spec{Seed: 1, Attr: 2, PanicEvery: 1}))
	for i := 0; i < 2; i++ {
		if _, _, err := d.SW.Process(ping(), 1); err == nil {
			t.Fatalf("packet %d should fault in fw", i)
		}
	}

	packet := launchDelayedFaultingPacket(t, d)
	health := make(chan HealthSnapshot, 1)
	go func() { health <- d.Health() }()
	select {
	case snap := <-health:
		if got := stateOf(t, snap, "fw"); got.State != breaker.Quarantined || !got.Bypassed {
			t.Fatalf("fw after sync: %+v", got)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("deadlock: health sync enforcing bypass never returned")
	}
	if err := <-packet; err == nil {
		t.Fatal("in-flight packet should have faulted")
	}
}

// TestResetHealthConcurrentFaultNoDeadlock is the undo-side twin: ResetHealth
// restores a bypassed device's links while a faulting packet is in flight.
func TestResetHealthConcurrentFaultNoDeadlock(t *testing.T) {
	d := newPersonaDPMU(t)
	d.SetHealthConfig(HealthConfig{
		Config:       breaker.Config{Window: time.Second, Trip: 2, OpenFor: time.Hour},
		ProbePackets: 1,
		Policy:       PolicyBypass,
	})
	loadComposition(t, d)

	d.SW.SetInjector(chaos.New(chaos.Spec{Seed: 1, Attr: 2, PanicEvery: 1}))
	for i := 0; i < 2; i++ {
		if _, _, err := d.SW.Process(ping(), 1); err == nil {
			t.Fatalf("packet %d should fault in fw", i)
		}
	}
	if got := stateOf(t, d.Health(), "fw"); got.State != breaker.Quarantined || !got.Bypassed {
		t.Fatalf("fw not bypassed: %+v", got)
	}

	packet := launchDelayedFaultingPacket(t, d)
	reset := make(chan error, 1)
	go func() { reset <- d.ResetHealth("op", "fw") }()
	select {
	case err := <-reset:
		if err != nil {
			t.Fatalf("reset: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("deadlock: ResetHealth undoing bypass never returned")
	}
	if err := <-packet; err == nil {
		t.Fatal("in-flight packet should have faulted")
	}
	if got := stateOf(t, d.Health(), "fw"); got.State != breaker.Healthy || got.Bypassed {
		t.Fatalf("fw after reset: %+v", got)
	}
}

func TestParseQuarantinePolicy(t *testing.T) {
	for _, s := range []string{"drop", "bypass"} {
		p, err := ParseQuarantinePolicy(s)
		if err != nil || string(p) != s {
			t.Errorf("ParseQuarantinePolicy(%q) = %q, %v", s, p, err)
		}
	}
	for _, s := range []string{"", "Bypass", "DROP", "none"} {
		if p, err := ParseQuarantinePolicy(s); err == nil {
			t.Errorf("ParseQuarantinePolicy(%q) = %q, want error", s, p)
		}
	}
}

func TestResetHealthAuthAndEffect(t *testing.T) {
	d := newPersonaDPMU(t)
	clock := newFakeClock()
	d.SetHealthClock(clock.now)
	d.SetHealthConfig(testHealthConfig(PolicyDrop))
	loadL2(t, d, "l2", "alice")

	d.SW.SetInjector(chaos.New(chaos.Spec{Seed: 1, Attr: 1, PanicEvery: 1, PanicFirst: 3}))
	frame := l2Frame()
	for i := 0; i < 3; i++ {
		_, _, _ = d.SW.Process(frame, 1)
	}
	if got := stateOf(t, d.Health(), "l2"); got.State != breaker.Quarantined {
		t.Fatalf("not tripped: %+v", got)
	}

	if err := d.ResetHealth("mallory", "l2"); !errors.Is(err, ErrPermission) {
		t.Fatalf("foreign reset: %v", err)
	}
	if err := d.ResetHealth("alice", "l2"); err != nil {
		t.Fatal(err)
	}
	got := stateOf(t, d.Health(), "l2")
	if got.State != breaker.Healthy || got.Trips != 1 {
		t.Fatalf("after reset: %+v", got)
	}
	if out, _, err := d.SW.Process(frame, 1); err != nil || len(out) != 1 {
		t.Fatalf("traffic after reset: out=%v err=%v", out, err)
	}

	if err := d.ResetHealth("alice", "ghost"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("reset of unknown vdev: %v", err)
	}
}

func TestRollbackResyncsHealth(t *testing.T) {
	d := newPersonaDPMU(t)
	clock := newFakeClock()
	d.SetHealthClock(clock.now)
	d.SetHealthConfig(testHealthConfig(PolicyDrop))
	loadL2(t, d, "l2", "alice")

	cp := d.Checkpoint()
	if err := d.Unload("alice", "l2"); err != nil {
		t.Fatal(err)
	}
	if len(d.Health().VDevs) != 0 {
		t.Fatal("health record should vanish with the vdev")
	}
	d.Rollback(cp)
	got := stateOf(t, d.Health(), "l2")
	if got.State != breaker.Healthy || got.PID != 1 {
		t.Fatalf("after rollback: %+v", got)
	}
	if out, _, err := d.SW.Process(l2Frame(), 1); err != nil || len(out) != 1 {
		t.Fatalf("traffic after rollback: out=%v err=%v", out, err)
	}
}
