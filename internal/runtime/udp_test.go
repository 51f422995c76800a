package runtime

import (
	"bytes"
	"net"
	goruntime "runtime"
	"sync/atomic"
	"testing"
	"time"

	"hyper4/internal/sim"
)

// udpClient is a plain socket that talks to a transport under test.
func udpClient(t testing.TB) *net.UDPConn {
	t.Helper()
	c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	_ = c.SetReadDeadline(time.Now().Add(10 * time.Second))
	return c
}

func replyTransport(t testing.TB) (*UDPTransport, *net.UDPAddr) {
	t.Helper()
	tr, err := newUDPTransport("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	return tr, tr.LocalAddr().(*net.UDPAddr)
}

// Frames carved back to back from one slab, and across slab boundaries,
// share no bytes: each has cap == len, and overwriting or appending to
// frame k leaves frame k+1 as it was sent.
func TestUDPRecvFramesDisjoint(t *testing.T) {
	tr, addr := replyTransport(t)
	client := udpClient(t)
	const n = 200 // 1-1.5 KB each: several slabs
	frames := make([][]byte, n)
	for i := range frames {
		sent := bytes.Repeat([]byte{byte(i)}, 1000+i%500)
		if _, err := client.WriteToUDP(sent, addr); err != nil {
			t.Fatal(err)
		}
		var f Frame
		if err := tr.Recv(&f); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(f.Data, sent) {
			t.Fatalf("frame %d: got %d bytes, want %d bytes of %#x", i, len(f.Data), len(sent), byte(i))
		}
		if cap(f.Data) != len(f.Data) {
			t.Fatalf("frame %d: cap %d != len %d; an append would run into the next frame", i, cap(f.Data), len(f.Data))
		}
		frames[i] = f.Data
	}
	for k := 0; k+1 < n; k++ {
		for j := range frames[k] {
			frames[k][j] = ^frames[k][j]
		}
		_ = append(frames[k], 0xEE, 0xEE, 0xEE, 0xEE)
		if want := bytes.Repeat([]byte{byte(k + 1)}, 1000+(k+1)%500); !bytes.Equal(frames[k+1], want) {
			t.Fatalf("writing frame %d changed frame %d", k, k+1)
		}
	}
}

// In reply mode the latest sender takes the reply address over, and a
// fixed-peer spec (an IPv4 peer that ResolveUDPAddr gives in 16-byte form)
// still delivers.
func TestUDPReplyPeerFollowsSender(t *testing.T) {
	tr, addr := replyTransport(t)
	if err := tr.Send(Frame{Data: []byte("early")}); err != ErrNoPeer {
		t.Fatalf("send before any ingress: %v, want ErrNoPeer", err)
	}
	a, b := udpClient(t), udpClient(t)
	buf := make([]byte, maxFrame)
	for _, step := range []struct {
		from *net.UDPConn
		msg  string
	}{{a, "a1"}, {b, "b1"}, {a, "a2"}} {
		if _, err := step.from.WriteToUDP([]byte(step.msg), addr); err != nil {
			t.Fatal(err)
		}
		var f Frame
		if err := tr.Recv(&f); err != nil {
			t.Fatal(err)
		}
		if err := tr.Send(Frame{Data: []byte("re:" + step.msg)}); err != nil {
			t.Fatalf("reply to %s: %v", step.msg, err)
		}
		n, err := step.from.Read(buf)
		if err != nil {
			t.Fatalf("sender of %s: %v", step.msg, err)
		}
		if got := string(buf[:n]); got != "re:"+step.msg {
			t.Fatalf("sender of %s got %q", step.msg, got)
		}
	}

	sink := udpClient(t)
	fixed, err := NewTransport("udp:127.0.0.1:0/" + sink.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer fixed.Close()
	if err := fixed.Send(Frame{Data: []byte("fixed")}); err != nil {
		t.Fatalf("send to fixed peer: %v", err)
	}
	n, err := sink.Read(buf)
	if err != nil || string(buf[:n]) != "fixed" {
		t.Fatalf("fixed peer got %q, %v", buf[:n], err)
	}
}

// nullForwarder sends every frame in on port 1 out on port 2, unchanged,
// from per-slot outputs so the processor itself allocates nothing. It is
// safe for one worker only.
type nullForwarder struct {
	outs [burst][1]sim.Output
}

var _ BatchProcessor = (*nullForwarder)(nil)

func (f *nullForwarder) Process(data []byte, port int) ([]sim.Output, *sim.Trace, error) {
	return []sim.Output{{Port: 2, Data: data}}, nil, nil
}

func (f *nullForwarder) ProcessSeq(pkts []sim.Input, results []sim.Result) error {
	for i := range pkts {
		f.outs[i][0] = sim.Output{Port: 2, Data: pkts[i].Data}
		results[i] = sim.Result{Outputs: f.outs[i][:]}
	}
	return nil
}

// BenchmarkUDPForward is the runtime's own cost over loopback UDP: a null
// forwarder between port 1 and port 2, fed in a closed loop with 256
// 60-byte frames in flight and drained by a sink socket. It reports pkt/s
// and the heap allocations per frame of the whole process, generator and
// sink included (both allocate nothing in steady state).
func BenchmarkUDPForward(b *testing.B) {
	const window = 256
	rt := New(&nullForwarder{}, Config{Workers: 1})
	rt.Start()
	defer rt.Close()
	sink := udpClient(b)
	_ = sink.SetReadDeadline(time.Time{})
	_ = sink.SetReadBuffer(4 << 20)
	if err := rt.AttachSpec(1, "udp:127.0.0.1:0"); err != nil {
		b.Fatal(err)
	}
	if err := rt.AttachSpec(2, "udp:127.0.0.1:0/"+sink.LocalAddr().String()); err != nil {
		b.Fatal(err)
	}
	ingress := rt.ports.Load().active[1].tr.(*UDPTransport).LocalAddr().(*net.UDPAddr)
	gen, err := net.DialUDP("udp", nil, ingress)
	if err != nil {
		b.Fatal(err)
	}
	defer gen.Close()
	_ = gen.SetWriteBuffer(4 << 20)

	// credits is a semaphore of window slots: the generator takes one per
	// frame, the sink returns one per frame back.
	credits := make(chan struct{}, window)
	for range window {
		credits <- struct{}{}
	}
	stop := make(chan struct{})
	defer close(stop)
	var received atomic.Int64
	done := make(chan struct{})
	go func() {
		buf := make([]byte, maxFrame)
		for {
			if _, err := sink.Read(buf); err != nil {
				return
			}
			if received.Add(1) == int64(b.N) {
				close(done)
			}
			select {
			case credits <- struct{}{}:
			default:
			}
		}
	}()
	frame := make([]byte, 60)
	copy(frame, []byte{0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 1, 8, 0})

	var m0, m1 goruntime.MemStats
	goruntime.GC()
	goruntime.ReadMemStats(&m0)
	b.ResetTimer()
	start := time.Now()
	go func() {
		for range b.N {
			select {
			case <-credits:
			case <-stop:
				return
			}
			if _, err := gen.Write(frame); err != nil {
				return
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(30*time.Second + time.Duration(b.N)*time.Microsecond):
		m := rt.Metrics()
		b.Fatalf("stalled: %d of %d frames back (%+v)", received.Load(), b.N, m.Ports)
	}
	took := time.Since(start)
	b.StopTimer()
	goruntime.ReadMemStats(&m1)
	b.ReportMetric(float64(b.N)/took.Seconds(), "pkt/s")
	b.ReportMetric(float64(m1.Mallocs-m0.Mallocs)/float64(b.N), "allocs/frame")
}
