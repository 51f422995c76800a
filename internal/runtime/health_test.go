package runtime

// Port breaker tests. All breaker time is driven by a fake clock and
// explicit SyncPortHealth calls (SyncEvery < 0 disables the background
// syncer), so the walks are deterministic; only the RX/TX goroutines run on
// real time, and the tests wait on their observable effects.

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hyper4/internal/breaker"
)

// fakeClock is a manually advanced time source for the breaker tracker.
type fakeClock struct{ ns atomic.Int64 }

func (c *fakeClock) Now() time.Time          { return time.Unix(10_000, c.ns.Load()) }
func (c *fakeClock) Advance(d time.Duration) { c.ns.Add(int64(d)) }

// fakeWire is a scriptable "wire" transport built by a TransportFactory:
// while fail is set every Recv returns an error; otherwise Recv blocks for
// injected frames. Close unblocks everything.
type fakeWire struct {
	fail   atomic.Bool
	recvs  atomic.Int64
	frames chan []byte
	closed chan struct{}
	once   sync.Once
}

func newFakeWire() *fakeWire {
	return &fakeWire{frames: make(chan []byte, 16), closed: make(chan struct{})}
}

func (w *fakeWire) Recv(f *Frame) error {
	w.recvs.Add(1)
	select {
	case <-w.closed:
		return ErrClosed
	default:
	}
	if w.fail.Load() {
		return errors.New("carrier lost")
	}
	select {
	case d := <-w.frames:
		f.Data = d
		return nil
	case <-w.closed:
		return ErrClosed
	}
}

func (w *fakeWire) Send(Frame) error { return nil }
func (w *fakeWire) Close() error {
	w.once.Do(func() { close(w.closed) })
	return nil
}

// breakerHealthConfig is the shared aggressive-but-deterministic tuning.
func breakerHealthConfig() HealthConfig {
	return HealthConfig{
		Config:      breaker.Config{Window: time.Hour, Trip: 4, OpenFor: time.Second},
		BackoffMax:  time.Minute,
		ProbeFor:    time.Second,
		StallAfter:  1 << 20, // watchdog effectively off unless a test wants it
		RecvErrBase: 50 * time.Microsecond,
		RecvErrMax:  200 * time.Microsecond,
		SyncEvery:   -1, // tests drive SyncPortHealth explicitly
	}
}

// TestPortBreakerWalk drives the full containment cycle on a wire port: a
// failing transport trips the breaker, quarantine detaches the port (but
// remembers it), the backoff expires, the factory rebuilds the transport,
// probing holds, and a clean probe interval closes the breaker.
func TestPortBreakerWalk(t *testing.T) {
	clk := &fakeClock{}
	var mu sync.Mutex
	var wires []*fakeWire
	factory := func(port int, spec string) (Transport, error) {
		w := newFakeWire()
		mu.Lock()
		wires = append(wires, w)
		mu.Unlock()
		return w, nil
	}
	var nmu sync.Mutex
	var states []breaker.State
	rt := New(&echoProc{}, Config{Workers: 1, Health: breakerHealthConfig(), TransportFactory: factory})
	rt.SetHealthClock(clk.Now)
	rt.SetHealthNotify(func(ph PortHealth) {
		nmu.Lock()
		states = append(states, ph.State)
		nmu.Unlock()
	})
	rt.Start()
	defer rt.Close()

	if err := rt.AttachSpec(1, "fake:flaky"); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	w0 := wires[0]
	mu.Unlock()
	w0.fail.Store(true)

	// The RX loop's errors fill the window; the breaker trips and the next
	// sync (run by PortHealth) detaches the port.
	waitFor(t, func() bool {
		phs := rt.PortHealth()
		return len(phs) == 1 && phs[0].State == breaker.Quarantined && phs[0].Detached
	}, "quarantine to detach the wire port")
	if got := len(rt.Ports()); got != 0 {
		t.Fatalf("quarantined wire port still on the active list (%d ports)", got)
	}
	phs := rt.PortHealth()
	if !phs[0].Wire || phs[0].Trips != 1 || phs[0].Spec != "fake:flaky" {
		t.Fatalf("parked snapshot: %+v", phs[0])
	}

	// Past the backoff (OpenFor + jitter ≤ OpenFor/4) the factory rebuilds
	// the transport and the port comes back probing.
	clk.Advance(2 * time.Second)
	rt.SyncPortHealth()
	phs = rt.PortHealth()
	if phs[0].State != breaker.Probing || phs[0].Detached || phs[0].Reattaches != 1 {
		t.Fatalf("after backoff: %+v", phs[0])
	}
	if got := len(rt.Ports()); got != 1 {
		t.Fatalf("reattached port not on the active list (%d ports)", got)
	}
	mu.Lock()
	rebuilt := len(wires)
	mu.Unlock()
	if rebuilt != 2 {
		t.Fatalf("factory calls = %d, want 2 (attach + reattach)", rebuilt)
	}

	// A clean probe interval closes the breaker.
	clk.Advance(time.Second)
	rt.SyncPortHealth()
	phs = rt.PortHealth()
	if phs[0].State != breaker.Healthy {
		t.Fatalf("after probe interval: %+v", phs[0])
	}

	// The notify stream saw the walk in order.
	nmu.Lock()
	defer nmu.Unlock()
	idx := func(s breaker.State) int {
		for i, st := range states {
			if st == s {
				return i
			}
		}
		return -1
	}
	q, p, h := idx(breaker.Quarantined), idx(breaker.Probing), idx(breaker.Healthy)
	if q < 0 || p < 0 || h < 0 || !(q < p && p < h) {
		t.Fatalf("notify order: %v", states)
	}
}

// TestPortBreakerReattachFailureEscalatesBackoff verifies failed reattach
// attempts double the hold time rather than hammering the factory.
func TestPortBreakerReattachFailureEscalatesBackoff(t *testing.T) {
	clk := &fakeClock{}
	var calls atomic.Int64
	factory := func(port int, spec string) (Transport, error) {
		if calls.Add(1) == 1 {
			w := newFakeWire()
			w.fail.Store(true)
			return w, nil
		}
		return nil, fmt.Errorf("bind: address already in use")
	}
	rt := New(&echoProc{}, Config{Workers: 1, Health: breakerHealthConfig(), TransportFactory: factory})
	rt.SetHealthClock(clk.Now)
	rt.Start()
	defer rt.Close()
	if err := rt.AttachSpec(3, "fake:dead"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		phs := rt.PortHealth()
		return len(phs) == 1 && phs[0].State == breaker.Quarantined && phs[0].Detached
	}, "quarantine to park the port")

	// Cycle 0: OpenFor(1s)+jitter ≤ 1.25s. At t=1.5s the reattach runs and
	// fails, escalating to cycle 1: 2s+jitter ≤ 2.5s from now.
	clk.Advance(1500 * time.Millisecond)
	rt.SyncPortHealth()
	if got := calls.Load(); got != 2 {
		t.Fatalf("factory calls after first backoff = %d, want 2", got)
	}
	phs := rt.PortHealth()
	if phs[0].State != breaker.Quarantined || !phs[0].Detached || phs[0].RetryIn <= 0 {
		t.Fatalf("after failed reattach: %+v", phs[0])
	}

	// Inside the escalated hold no new attempt fires.
	clk.Advance(1500 * time.Millisecond)
	rt.SyncPortHealth()
	if got := calls.Load(); got != 2 {
		t.Fatalf("retried before the escalated backoff elapsed (calls=%d)", got)
	}

	// Past it, the next attempt fires.
	clk.Advance(1200 * time.Millisecond)
	rt.SyncPortHealth()
	if got := calls.Load(); got != 3 {
		t.Fatalf("factory calls after escalated backoff = %d, want 3", got)
	}
}

// TestChanPortQuarantineIsAdvisory: in-process transports surface breaker
// state but are never auto-detached; they recover via the timed probe path.
func TestChanPortQuarantineIsAdvisory(t *testing.T) {
	clk := &fakeClock{}
	cfg := breakerHealthConfig()
	cfg.Trip = 3
	rt := New(&echoProc{}, Config{Workers: 1, Health: cfg})
	rt.SetHealthClock(clk.Now)
	rt.Start()
	defer rt.Close()
	_, far := NewChanPair(8)
	if err := rt.Attach(1, far); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		rt.health.noteError(1, errKindRecv, errors.New("synthetic"))
	}
	phs := rt.PortHealth()
	if phs[0].State != breaker.Quarantined || phs[0].Wire || phs[0].Detached {
		t.Fatalf("after trip: %+v", phs[0])
	}
	if got := len(rt.Ports()); got != 1 {
		t.Fatalf("in-process port auto-dropped (%d ports)", got)
	}
	clk.Advance(2 * time.Second) // past OpenFor+jitter
	rt.SyncPortHealth()
	if phs = rt.PortHealth(); phs[0].State != breaker.Probing {
		t.Fatalf("after hold-off: %+v", phs[0])
	}
	if got := len(rt.Ports()); got != 1 {
		t.Fatalf("port dropped during probing (%d ports)", got)
	}
	clk.Advance(time.Second)
	rt.SyncPortHealth()
	if phs = rt.PortHealth(); phs[0].State != breaker.Healthy {
		t.Fatalf("after probe interval: %+v", phs[0])
	}
}

// TestStallWatchdogTripsBreaker wedges a worker ring (workers never started)
// and checks the cursor watchdog charges a stall and trips the breaker.
func TestStallWatchdogTripsBreaker(t *testing.T) {
	clk := &fakeClock{}
	cfg := breakerHealthConfig()
	cfg.Trip = 1
	cfg.StallAfter = 2
	rt := New(&echoProc{}, Config{Workers: 1, Health: cfg})
	rt.SetHealthClock(clk.Now)
	// Deliberately not Started: no worker drains the rings, so the queued
	// frame sits with the consumer cursor frozen.
	near, far := NewChanPair(8)
	if err := rt.Attach(1, far); err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	if err := near.Send(Frame{Data: []byte{1}}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		for _, p := range rt.Ports() {
			if p.Port == 1 && p.RxFrames == 1 {
				return true
			}
		}
		return false
	}, "the frame to reach the worker ring")

	// Sample 1 initializes cursors; 2 and 3 see them frozen over a non-empty
	// ring and cross StallAfter.
	for i := 0; i < 4; i++ {
		rt.SyncPortHealth()
	}
	phs := rt.PortHealth()
	if phs[0].Stalls == 0 {
		t.Fatalf("no stall charged: %+v", phs[0])
	}
	if phs[0].State != breaker.Quarantined {
		t.Fatalf("stall did not trip the breaker: %+v", phs[0])
	}

	// Past the hold-off the in-process port probes; the ring is still
	// wedged, so the watchdog's next stall re-trips it and raises the
	// backoff one cycle, exactly as a recv error during probing does.
	clk.Advance(2 * time.Second)
	rt.SyncPortHealth()
	if phs = rt.PortHealth(); phs[0].State != breaker.Probing {
		t.Fatalf("after hold-off: %+v", phs[0])
	}
	for i := 0; i < 2; i++ {
		rt.SyncPortHealth()
	}
	phs = rt.PortHealth()
	if phs[0].State != breaker.Quarantined || phs[0].Trips != 2 || phs[0].Stalls != 2 {
		t.Fatalf("stall during probing did not re-trip: %+v", phs[0])
	}
	if phs[0].RetryIn < 2*cfg.OpenFor {
		t.Fatalf("backoff not raised: retry in %v, want >= %v", phs[0].RetryIn, 2*cfg.OpenFor)
	}
}

// TestRecvErrorBackoffBoundsSpin is the regression test for the RX loop's
// escalating per-port backoff: a permanently failing transport must not let
// the loop spin. (The old flat 1 ms sleep would make ~300 Recv calls here.)
func TestRecvErrorBackoffBoundsSpin(t *testing.T) {
	w := newFakeWire()
	w.fail.Store(true)
	cfg := breakerHealthConfig()
	cfg.Trip = 1 << 20 // keep the breaker out of the way
	cfg.RecvErrBase = 5 * time.Millisecond
	cfg.RecvErrMax = 40 * time.Millisecond
	rt := New(&echoProc{}, Config{
		Workers:          1,
		Health:           cfg,
		TransportFactory: func(int, string) (Transport, error) { return w, nil },
	})
	rt.Start()
	defer rt.Close()
	if err := rt.AttachSpec(1, "fake:dead"); err != nil {
		t.Fatal(err)
	}
	time.Sleep(300 * time.Millisecond)
	n := w.recvs.Load()
	if n < 2 {
		t.Fatalf("rx loop stopped retrying: %d recvs", n)
	}
	// 5+10+20+40+40+... ≈ 9 calls in 300 ms; leave slack for scheduling.
	if n > 40 {
		t.Fatalf("rx loop spinning despite backoff: %d recvs in 300ms", n)
	}
}

// TestOperatorDetachCancelsAutoReattach: detaching a quarantine-parked port
// forgets it — no factory call ever revives it.
func TestOperatorDetachCancelsAutoReattach(t *testing.T) {
	clk := &fakeClock{}
	var calls atomic.Int64
	factory := func(int, string) (Transport, error) {
		calls.Add(1)
		w := newFakeWire()
		w.fail.Store(true)
		return w, nil
	}
	rt := New(&echoProc{}, Config{Workers: 1, Health: breakerHealthConfig(), TransportFactory: factory})
	rt.SetHealthClock(clk.Now)
	rt.Start()
	defer rt.Close()
	if err := rt.AttachSpec(2, "fake:dead"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		phs := rt.PortHealth()
		return len(phs) == 1 && phs[0].Detached
	}, "quarantine to park the port")

	if err := rt.Detach(2); err != nil {
		t.Fatalf("operator detach of parked port: %v", err)
	}
	if phs := rt.PortHealth(); len(phs) != 0 {
		t.Fatalf("breaker record survived operator detach: %+v", phs)
	}
	before := calls.Load()
	clk.Advance(time.Hour)
	rt.SyncPortHealth()
	if calls.Load() != before {
		t.Fatal("auto-reattach fired after operator detach")
	}
}
