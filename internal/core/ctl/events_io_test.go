package ctl

import (
	"errors"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hyper4/internal/breaker"
	pktio "hyper4/internal/runtime"
)

// flakyWire is a factory-built transport whose Recv fails while fail is set
// — enough to walk the port breaker from a ctl-level test.
type flakyWire struct {
	fail   atomic.Bool
	closed chan struct{}
	once   sync.Once
}

func (w *flakyWire) Recv(f *pktio.Frame) error {
	select {
	case <-w.closed:
		return pktio.ErrClosed
	default:
	}
	if w.fail.Load() {
		return errors.New("carrier lost")
	}
	<-w.closed
	return pktio.ErrClosed
}

func (w *flakyWire) Send(pktio.Frame) error { return nil }
func (w *flakyWire) Close() error {
	w.once.Do(func() { close(w.closed) })
	return nil
}

// breakerInstance is one "switch process": a persona ctl, an I/O runtime
// whose first wire is flaky, the health-notify bridge hp4switch wires, and
// the HTTP API. Time is a fake clock; the breaker only moves when the test
// syncs it.
type breakerInstance struct {
	c     *Ctl
	rt    *pktio.Runtime
	wires []*flakyWire
	mu    sync.Mutex
	clk   atomic.Int64
}

func (bi *breakerInstance) now() time.Time { return time.Unix(20_000, bi.clk.Load()) }

func newBreakerInstance(t *testing.T) (*breakerInstance, *Client) {
	t.Helper()
	bi := &breakerInstance{c: newPersonaCtl(t)}
	factory := func(port int, spec string) (pktio.Transport, error) {
		w := &flakyWire{closed: make(chan struct{})}
		bi.mu.Lock()
		if len(bi.wires) == 0 {
			w.fail.Store(true) // only the first wire is bad; reattach gets a clean one
		}
		bi.wires = append(bi.wires, w)
		bi.mu.Unlock()
		return w, nil
	}
	bi.rt = pktio.New(bi.c.D.SW, pktio.Config{
		Workers: 1,
		Health: pktio.HealthConfig{
			Config:     breaker.Config{Window: time.Hour, Trip: 2, OpenFor: time.Second},
			BackoffMax: time.Minute, ProbeFor: time.Second, StallAfter: 1 << 20,
			RecvErrBase: 50 * time.Microsecond, RecvErrMax: 200 * time.Microsecond,
			SyncEvery: -1,
		},
		TransportFactory: factory,
	})
	bi.rt.SetHealthClock(bi.now)
	// The bridge hp4switch installs: breaker transitions become events.
	bi.rt.SetHealthNotify(func(ph pktio.PortHealth) {
		bi.c.PublishPortHealth(ph.Port, ph.Spec, string(ph.State))
	})
	bi.rt.Start()
	t.Cleanup(bi.rt.Close)
	bi.c.IO = bi.rt
	srv := httptest.NewServer(NewServeMux(bi.c))
	t.Cleanup(srv.Close)
	return bi, &Client{Base: srv.URL, Owner: "op"}
}

// drain long-polls the event stream like the hp4ctl follower, collecting
// until the buffer is empty.
func drain(t *testing.T, client *Client, since int64) ([]Event, int64) {
	t.Helper()
	var all []Event
	for {
		// waitSecs must be >0: 0 means "server default" (a 30s long poll),
		// which would stall every empty drain.
		events, next, err := client.Events(since, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(events) == 0 {
			return all, next
		}
		all = append(all, events...)
		since = next
	}
}

func findEvent(events []Event, kind, msg string) *Event {
	for i := range events {
		if events[i].Kind == kind && (msg == "" || events[i].Msg == msg) {
			return &events[i]
		}
	}
	return nil
}

// TestEventsPortLifecycleAcrossRestart follows port attach/detach and
// port-health breaker transitions over the HTTP event stream, then restarts
// the switch and keeps following with the stale cursor — the follower must
// see the new instance's port events without manual cursor surgery.
func TestEventsPortLifecycleAcrossRestart(t *testing.T) {
	bi, client := newBreakerInstance(t)

	// Attach over the API: a port_attach event with the port number.
	if _, err := client.Write([]Op{{Kind: OpPortAttach, PhysPort: 7, Spec: "fake:wan"}}); err != nil {
		t.Fatal(err)
	}
	events, cursor := drain(t, client, 0)
	at := findEvent(events, "port_attach", "")
	if at == nil || at.Port != 7 || at.Name != "fake:wan" {
		t.Fatalf("no port_attach for port 7 in %+v", events)
	}

	// The flaky wire's errors trip the breaker; PortHealth() syncs it.
	waitForCond(t, func() bool {
		phs := bi.rt.PortHealth()
		return len(phs) == 1 && phs[0].State == breaker.Quarantined && phs[0].Detached
	}, "breaker to quarantine the port")
	events, cursor = drain(t, client, cursor)
	if e := findEvent(events, "port_health", "quarantined"); e == nil || e.Port != 7 || e.Name != "fake:wan" {
		t.Fatalf("no quarantined port_health event in %+v", events)
	}

	// Past the backoff the port reattaches (clean wire) and probes healthy.
	bi.clk.Add(int64(2 * time.Second))
	bi.rt.SyncPortHealth()
	bi.clk.Add(int64(time.Second))
	bi.rt.SyncPortHealth()
	events, cursor = drain(t, client, cursor)
	if findEvent(events, "port_health", "probing") == nil {
		t.Fatalf("no probing transition in %+v", events)
	}
	if findEvent(events, "port_health", "healthy") == nil {
		t.Fatalf("no healthy transition in %+v", events)
	}

	// Operator detach closes the story for this instance.
	if _, err := client.Write([]Op{{Kind: OpPortDetach, PhysPort: 7}}); err != nil {
		t.Fatal(err)
	}
	events, cursor = drain(t, client, cursor)
	if e := findEvent(events, "port_detach", ""); e == nil || e.Port != 7 {
		t.Fatalf("no port_detach for port 7 in %+v", events)
	}

	// "Restart": a fresh process with seq starting over. The follower keeps
	// its stale cursor; the server spots head < since and rewinds it.
	_, client2 := newBreakerInstance(t)
	if _, err := client2.Write([]Op{{Kind: OpPortAttach, PhysPort: 3, Spec: "fake:lan"}}); err != nil {
		t.Fatal(err)
	}
	events, next, err := client2.Events(cursor, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 && next == cursor {
		t.Fatalf("stale cursor %d not rewound after restart", cursor)
	}
	events, _ = drain(t, client2, next)
	if e := findEvent(events, "port_attach", ""); e == nil || e.Port != 3 || e.Name != "fake:lan" {
		t.Fatalf("follower missed the new instance's port_attach: %+v", events)
	}
}

// waitForCond polls until cond holds or the deadline passes.
func waitForCond(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}
