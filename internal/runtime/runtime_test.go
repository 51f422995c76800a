package runtime

import (
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"hyper4/internal/sim"
)

func TestRingPushPop(t *testing.T) {
	r := newRing(4)
	if !r.empty() {
		t.Fatal("new ring not empty")
	}
	for i := 0; i < 4; i++ {
		if !r.push(Frame{Port: i}) {
			t.Fatalf("push %d failed", i)
		}
	}
	if r.push(Frame{Port: 99}) {
		t.Fatal("push into full ring succeeded")
	}
	if r.depth() != 4 {
		t.Fatalf("depth = %d, want 4", r.depth())
	}
	var f Frame
	for i := 0; i < 4; i++ {
		if !r.pop(&f) {
			t.Fatalf("pop %d failed", i)
		}
		if f.Port != i {
			t.Fatalf("pop %d: port = %d (FIFO violated)", i, f.Port)
		}
	}
	if r.pop(&f) {
		t.Fatal("pop from empty ring succeeded")
	}
}

func TestRingRoundsUpToPowerOfTwo(t *testing.T) {
	r := newRing(5)
	if len(r.buf) != 8 {
		t.Fatalf("capacity = %d, want 8", len(r.buf))
	}
}

func TestRingWraparound(t *testing.T) {
	r := newRing(4)
	var f Frame
	for i := 0; i < 100; i++ {
		if !r.push(Frame{Port: i}) {
			t.Fatalf("push %d failed", i)
		}
		if !r.pop(&f) || f.Port != i {
			t.Fatalf("pop %d: got port %d", i, f.Port)
		}
	}
}

// echoProc sends every frame back out its ingress port.
type echoProc struct{ n atomic.Int64 }

func (e *echoProc) Process(data []byte, port int) ([]sim.Output, *sim.Trace, error) {
	e.n.Add(1)
	return []sim.Output{{Port: port, Data: data}}, nil, nil
}

// crossProc forwards port 1 → 2 and 2 → 1.
type crossProc struct{}

func (crossProc) Process(data []byte, port int) ([]sim.Output, *sim.Trace, error) {
	out := 1
	if port == 1 {
		out = 2
	}
	return []sim.Output{{Port: out, Data: data}}, nil, nil
}

func TestRuntimeEchoOverChanTransport(t *testing.T) {
	proc := &echoProc{}
	rt := New(proc, Config{Workers: 2, Lossless: true})
	rt.Start()
	near, far := NewChanPair(8)
	if err := rt.Attach(1, far); err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	const n = 200
	go func() {
		for i := 0; i < n; i++ {
			near.Send(Frame{Data: []byte{byte(i)}})
		}
	}()
	var f Frame
	for i := 0; i < n; i++ {
		if err := near.Recv(&f); err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if f.Data[0] != byte(i) {
			t.Fatalf("recv %d: got payload %d (per-port ordering violated)", i, f.Data[0])
		}
	}
	m := rt.Metrics()
	if m.Processed != n {
		t.Fatalf("processed = %d, want %d", m.Processed, n)
	}
	if d := m.Drops(); d != 0 {
		t.Fatalf("lossless runtime dropped %d frames", d)
	}
}

func TestRuntimeCrossPortForwarding(t *testing.T) {
	rt := New(crossProc{}, Config{Workers: 2, Lossless: true})
	rt.Start()
	n1, f1 := NewChanPair(8)
	n2, f2 := NewChanPair(8)
	if err := rt.Attach(1, f1); err != nil {
		t.Fatal(err)
	}
	if err := rt.Attach(2, f2); err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	n1.Send(Frame{Data: []byte("hello")})
	var f Frame
	if err := n2.Recv(&f); err != nil {
		t.Fatal(err)
	}
	if string(f.Data) != "hello" {
		t.Fatalf("got %q through port 2", f.Data)
	}
}

func TestRuntimeUnroutedCounted(t *testing.T) {
	rt := New(crossProc{}, Config{Workers: 1, Lossless: true})
	rt.Start()
	near, far := NewChanPair(8)
	if err := rt.Attach(1, far); err != nil {
		t.Fatal(err)
	}
	// Port 2 has no transport: forwarded frames are unrouted drops.
	near.Send(Frame{Data: []byte{1}})
	waitFor(t, func() bool { return rt.Metrics().Unrouted == 1 }, "unrouted counter")
	rt.Close()
	if d := rt.Metrics().Drops(); d != 1 {
		t.Fatalf("Drops() = %d, want 1", d)
	}
}

func TestAttachErrors(t *testing.T) {
	rt := New(&echoProc{}, Config{})
	_, far := NewChanPair(1)
	if err := rt.Attach(1, far); err != nil {
		t.Fatal(err)
	}
	_, far2 := NewChanPair(1)
	if err := rt.Attach(1, far2); err == nil {
		t.Fatal("double attach succeeded")
	}
	if err := rt.Detach(7); err == nil {
		t.Fatal("detach of unattached port succeeded")
	}
	if err := rt.AttachSpec(2, "carrier-pigeon:roof"); err == nil {
		t.Fatal("bad spec accepted")
	}
	rt.Close()
	if err := rt.Attach(3, far2); err != ErrClosed {
		t.Fatalf("attach after close: %v, want ErrClosed", err)
	}
}

func TestDetachDrainsBacklog(t *testing.T) {
	proc := &echoProc{}
	rt := New(proc, Config{Workers: 1, Lossless: true})
	rt.Start()
	near, far := NewChanPair(64)
	if err := rt.Attach(1, far); err != nil {
		t.Fatal(err)
	}
	const n = 50
	for i := 0; i < n; i++ {
		near.Send(Frame{Data: []byte{byte(i)}})
	}
	done := make(chan error, 1)
	go func() { done <- rt.Detach(1) }()
	// Echoed frames keep arriving during the drain.
	var f Frame
	got := 0
	for got < n {
		if err := near.Recv(&f); err != nil {
			break
		}
		got++
	}
	if err := <-done; err != nil {
		t.Fatalf("detach: %v", err)
	}
	if int(proc.n.Load()) != n {
		t.Fatalf("processed %d of %d frames accepted before detach", proc.n.Load(), n)
	}
	if len(rt.Ports()) != 0 {
		t.Fatal("port still listed after detach")
	}
	rt.Close()
}

func TestLossyRingDropsCounted(t *testing.T) {
	// One worker that never runs (runtime not started): the rx ring fills
	// and overflow is counted, never blocking the producer.
	rt := New(&echoProc{}, Config{Workers: 1, RingSize: 4})
	near, far := NewChanPair(1)
	if err := rt.Attach(1, far); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := near.Send(Frame{Data: []byte{byte(i)}}); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	waitFor(t, func() bool {
		m := rt.Metrics()
		return len(m.Ports) == 1 && m.Ports[0].RxFrames == 20 && m.Ports[0].RxDrops >= 15
	}, "rx drop counter")
	rt.Close()
}

func TestUDPTransportRoundTrip(t *testing.T) {
	rt := New(&echoProc{}, Config{Workers: 1})
	rt.Start()
	defer rt.Close()
	if err := rt.AttachSpec(1, "udp:127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	ports := rt.Ports()
	if len(ports) != 1 || ports[0].Spec != "udp:127.0.0.1:0" {
		t.Fatalf("ports = %+v", ports)
	}
	pm := rt.ports.Load()
	addr := pm.active[1].tr.(*UDPTransport).LocalAddr().String()

	client, err := NewTransport("udp:127.0.0.1:0/" + addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := client.Send(Frame{Data: []byte("ping")}); err != nil {
		t.Fatal(err)
	}
	var f Frame
	if err := client.Recv(&f); err != nil {
		t.Fatal(err)
	}
	if string(f.Data) != "ping" {
		t.Fatalf("echoed %q", f.Data)
	}
}

func TestCloseIdempotentAndMetricsSurvive(t *testing.T) {
	rt := New(&echoProc{}, Config{Workers: 2, Lossless: true})
	rt.Start()
	near, far := NewChanPair(4)
	if err := rt.Attach(1, far); err != nil {
		t.Fatal(err)
	}
	near.Send(Frame{Data: []byte{1}})
	var f Frame
	if err := near.Recv(&f); err != nil {
		t.Fatal(err)
	}
	rt.Close()
	rt.Close()
	m := rt.Metrics()
	if m.Processed != 1 || len(m.Ports) != 1 {
		t.Fatalf("post-close metrics: %+v", m)
	}
	if err := near.Send(Frame{Data: []byte{2}}); err != ErrClosed {
		t.Fatalf("send on closed link: %v, want ErrClosed", err)
	}
}

// TestCloseRacesDetach reproduces the SIGINT-vs-port_detach race: Detach
// moves the port to draining and releases the runtime lock before closing
// txStop, so a concurrent Close sees the port in its snapshot too. Both
// tearing it down must not double-close (panic) — stopTx's sync.Once.
func TestCloseRacesDetach(t *testing.T) {
	for i := 0; i < 50; i++ {
		rt := New(&echoProc{}, Config{Workers: 2, Lossless: true})
		rt.Start()
		near, far := NewChanPair(8)
		if err := rt.Attach(1, far); err != nil {
			t.Fatal(err)
		}
		near.Send(Frame{Data: []byte{1}})
		done := make(chan struct{})
		go func() {
			defer close(done)
			_ = rt.Detach(1) // ErrClosed is fine when Close wins the lock
		}()
		rt.Close()
		<-done
	}
}

// TestUDPOversizedDatagramDropped sends a datagram over maxFrame and
// verifies it is counted as an rx drop, not forwarded truncated.
func TestUDPOversizedDatagramDropped(t *testing.T) {
	rt := New(&echoProc{}, Config{Workers: 1})
	rt.Start()
	defer rt.Close()
	if err := rt.AttachSpec(1, "udp:127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	addr := rt.ports.Load().active[1].tr.(*UDPTransport).LocalAddr().String()
	client, err := NewTransport("udp:127.0.0.1:0/" + addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	if err := client.Send(Frame{Data: make([]byte, maxFrame+100)}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		m := rt.Metrics()
		return len(m.Ports) == 1 && m.Ports[0].RxDrops == 1
	}, "oversized-frame rx drop")

	// The port still works, and the giant never reached the processor.
	if err := client.Send(Frame{Data: []byte("ping")}); err != nil {
		t.Fatal(err)
	}
	var f Frame
	if err := client.Recv(&f); err != nil {
		t.Fatal(err)
	}
	if string(f.Data) != "ping" {
		t.Fatalf("echoed %q", f.Data)
	}
	if m := rt.Metrics(); m.Processed != 1 || m.Ports[0].RxFrames != 1 {
		t.Fatalf("processed=%d rxFrames=%d, want 1/1", m.Processed, m.Ports[0].RxFrames)
	}
}

func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// batchCounter verifies the BatchProcessor path is taken when offered.
type batchCounter struct {
	echoProc
	bursts atomic.Int64
}

func (b *batchCounter) ProcessSeq(pkts []sim.Input, results []sim.Result) error {
	b.bursts.Add(1)
	for i := range pkts {
		results[i].Outputs, results[i].Trace, results[i].Err = b.Process(pkts[i].Data, pkts[i].Port)
	}
	return nil
}

func TestBatchProcessorPath(t *testing.T) {
	proc := &batchCounter{}
	rt := New(proc, Config{Workers: 1, Lossless: true})
	rt.Start()
	near, far := NewChanPair(32)
	if err := rt.Attach(1, far); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		near.Send(Frame{Data: []byte{byte(i)}})
	}
	var f Frame
	for i := 0; i < 10; i++ {
		if err := near.Recv(&f); err != nil {
			t.Fatal(err)
		}
	}
	rt.Close()
	if proc.bursts.Load() == 0 {
		t.Fatal("ProcessSeq never used")
	}
	if proc.n.Load() != 10 {
		t.Fatalf("processed %d", proc.n.Load())
	}
}

// faultyBatch fails every odd frame with a fault and a trace, and forwards
// the rest, the way a switch leaves a burst's results.
type faultyBatch struct{ echoProc }

func (f *faultyBatch) ProcessSeq(pkts []sim.Input, results []sim.Result) error {
	var first error
	for i := range pkts {
		if i%2 == 1 {
			results[i].Trace = &sim.Trace{Passes: 1}
			results[i].Err = &sim.PacketFault{Kind: sim.FaultParse, Port: pkts[i].Port}
			if first == nil {
				first = results[i].Err
			}
			continue
		}
		results[i].Outputs, results[i].Trace, results[i].Err = f.Process(pkts[i].Data, pkts[i].Port)
		results[i].Trace = &sim.Trace{Passes: 1}
	}
	return first
}

// TestProcessBurstClearsEveryResult runs one burst with faulting frames in
// it straight through a worker's processBurst: every slot of the reused
// results backing must come back zero, faulted ones included, so a worker
// pins no fault, trace or output bytes between bursts. The burst counts
// every frame as processed and each fault once.
func TestProcessBurstClearsEveryResult(t *testing.T) {
	rt := New(&faultyBatch{}, Config{Workers: 1})
	frames := make([]Frame, 5)
	for i := range frames {
		frames[i] = Frame{Data: []byte{byte(i)}, Port: 1}
	}
	in := make([]sim.Input, 0, burst)
	results := make([]sim.Result, burst)
	rt.processBurst(0, rt.ports.Load(), frames, &in, results)
	for i := range results {
		if !reflect.ValueOf(results[i]).IsZero() {
			t.Errorf("results[%d] not cleared after the burst: %+v", i, results[i])
		}
	}
	if got := rt.processed.Load(); got != uint64(len(frames)) {
		t.Errorf("processed = %d, want %d", got, len(frames))
	}
	if got := rt.procErrs.Load(); got != 2 {
		t.Errorf("processing errors = %d, want 2", got)
	}
}
