package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	goruntime "runtime"
	"sync/atomic"
	"time"

	pktio "hyper4/internal/runtime"
)

// wires is the two links of a rig: the switch-side transports for ports 1
// and 2, and the generator's ends of them.
type wires struct {
	port1, port2 pktio.Transport
	// send puts one frame on the wire into port 1; recv blocks for the next
	// frame out of port 2 (buf is scratch the UDP wire reads into).
	send  func(frame []byte) error
	recv  func(buf []byte) ([]byte, error)
	close func()
}

// newChanWires builds in-process links. 1024 frames of buffer per direction
// is the ring size: the link never holds back a sender that stays within the
// window.
func newChanWires() *wires {
	near1, far1 := pktio.NewChanPair(1024)
	near2, far2 := pktio.NewChanPair(1024)
	return &wires{
		port1: near1,
		port2: near2,
		send:  func(frame []byte) error { return far1.Send(pktio.Frame{Data: frame}) },
		recv: func([]byte) ([]byte, error) {
			var f pktio.Frame
			err := far2.Recv(&f)
			return f.Data, err
		},
		close: func() { far1.Close(); far2.Close() },
	}
}

// newUDPWires puts both switch ports on loopback sockets bound to
// 127.0.0.1:0 (the kernel picks the port, so parallel runs cannot collide).
// This is the host's loopback interface, not a link.
func newUDPWires() (*wires, error) {
	sink, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, err
	}
	_ = sink.SetReadBuffer(4 << 20) // advisory, as on the switch side
	port1, err := pktio.NewTransport("udp:127.0.0.1:0")
	if err != nil {
		sink.Close()
		return nil, err
	}
	port2, err := pktio.NewTransport("udp:127.0.0.1:0/" + sink.LocalAddr().String())
	if err != nil {
		sink.Close()
		port1.Close()
		return nil, err
	}
	src, err := net.DialUDP("udp", nil, port1.(interface{ LocalAddr() net.Addr }).LocalAddr().(*net.UDPAddr))
	if err != nil {
		sink.Close()
		port1.Close()
		port2.Close()
		return nil, err
	}
	return &wires{
		port1: port1,
		port2: port2,
		send: func(frame []byte) error {
			_, err := src.Write(frame)
			return err
		},
		recv: func(buf []byte) ([]byte, error) {
			n, err := sink.Read(buf)
			return buf[:n], err
		},
		close: func() { src.Close(); sink.Close() },
	}, nil
}

// generator is the load: one sender goroutine (the caller of run) and one
// receiver goroutine, closed loop with a fixed number of frames in flight.
// It checks every delivered frame against what the reference switches said
// that frame must become.
type generator struct {
	w      *wires
	expect [][]byte // by pool index; nil = the reference drops the frame
	bufs   [][]byte // sender's frame buffers, slot = seq % slots
	tr     *tracer  // nil when tracing is off

	// tokens is the in-flight window: the sender takes one per frame the
	// reference forwards, the receiver returns one per delivered frame.
	tokens chan struct{}
	seq    uint32 // sender only

	sentAt    []atomic.Int64 // send time by seq % slots, ns since the run began
	recordLat atomic.Bool
	lat       []float64 // receiver only while recordLat; µs

	delivered atomic.Int64
	wrong     atomic.Int64 // delivered with wrong bytes, or that should have been dropped
	recvDone  chan struct{}
}

// senderBuffers lays the pool out over the sender's slots. Built once per
// run: it is the benchmark's memory, not part of any set-up.
func senderBuffers(pool [][]byte) [][]byte {
	bufs := make([][]byte, slots)
	for i := range bufs {
		bufs[i] = append([]byte(nil), pool[i%poolSize]...)
	}
	return bufs
}

func newGenerator(w *wires, bufs, expect [][]byte, tr *tracer) *generator {
	g := &generator{
		w:        w,
		expect:   expect,
		bufs:     bufs,
		tr:       tr,
		tokens:   make(chan struct{}, window),
		sentAt:   make([]atomic.Int64, slots),
		recvDone: make(chan struct{}),
	}
	go g.receive()
	return g
}

func (g *generator) receive() {
	defer close(g.recvDone)
	buf := make([]byte, 2048)
	for {
		frame, err := g.w.recv(buf)
		if err != nil {
			return
		}
		if len(frame) < tagLen {
			g.wrong.Add(1)
			continue
		}
		seq := getTag(frame)
		want := g.expect[seq%poolSize]
		if want == nil || len(frame) != len(want) || !bytes.Equal(frame[:len(frame)-tagLen], want[:len(want)-tagLen]) {
			g.wrong.Add(1)
		}
		if record := g.recordLat.Load(); record || g.tr != nil {
			now := nowNs()
			if record {
				g.lat = append(g.lat, float64(now-g.sentAt[seq%slots].Load())/1e3)
			}
			if g.tr != nil {
				g.tr.delivered(seq, now)
			}
		}
		g.delivered.Add(1)
		select {
		case g.tokens <- struct{}{}:
		default: // a duplicate or a frame from an abandoned phase; already counted wrong or stale
		}
	}
}

// phaseResult is what one closed-loop phase measured.
type phaseResult struct {
	sent      int64 // frames put on the wire
	forwarded int64 // of those, frames the reference forwards
	delivered int64
	lost      int64
	latUs     []float64 // per-frame wire-in→wire-out, when recorded
	segRates  []float64 // delivered frames per second, one per segment
}

// errStalled means frames stopped coming back: loss the closed loop cannot
// absorb, so the run is abandoned rather than reported.
var errStalled = errors.New("window full and no frame delivered for 2 s: unexpected loss")

// run drives one phase: inflight frames in flight for d. With record it
// keeps per-frame latency; with segment > 0 it reports the delivery rate of
// each whole segment.
func (g *generator) run(inflight int, d, segment time.Duration, record bool) (phaseResult, error) {
	var res phaseResult
	for len(g.tokens) > 0 {
		<-g.tokens
	}
	for i := 0; i < inflight; i++ {
		g.tokens <- struct{}{}
	}
	g.lat = g.lat[:0]
	g.recordLat.Store(record)
	delivered0 := g.delivered.Load()

	var stop, waiting atomic.Bool
	stopTimer := time.AfterFunc(d, func() { stop.Store(true) })
	defer stopTimer.Stop()
	segDone := make(chan []float64, 1)
	if segment > 0 {
		go func() { segDone <- g.sampleSegments(d, segment) }()
	}
	// The watchdog aborts a sender that waits on a full window while nothing
	// is delivered for two consecutive seconds.
	abort, done := make(chan struct{}), make(chan struct{})
	defer close(done)
	go func() {
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		last, idle := g.delivered.Load(), 0
		for {
			select {
			case <-done:
				return
			case <-tick.C:
			}
			cur := g.delivered.Load()
			if cur != last || !waiting.Load() {
				last, idle = cur, 0
			} else if idle++; idle == 2 {
				close(abort)
				return
			}
		}
	}()

	for !stop.Load() {
		seq := g.seq
		g.seq++
		if g.expect[seq%poolSize] != nil {
			select {
			case <-g.tokens:
			default:
				waiting.Store(true)
				select {
				case <-g.tokens:
				case <-abort:
					return res, errStalled
				}
				waiting.Store(false)
			}
			res.forwarded++
		}
		buf := g.bufs[seq%slots]
		setTag(buf, seq)
		if record || g.tr != nil {
			now := nowNs()
			g.sentAt[seq%slots].Store(now)
			if g.tr != nil {
				g.tr.stamp(seq, stSent, now)
			}
		}
		if err := g.w.send(buf); err != nil {
			return res, fmt.Errorf("generator send: %w", err)
		}
		res.sent++
	}
	if segment > 0 {
		res.segRates = <-segDone
	}
	// Drain: every frame still in flight has a second to come back. Taking
	// the tokens back also orders the receiver's latency samples before the
	// copy below.
	deadline := time.After(time.Second)
drain:
	for back := 0; back < inflight; back++ {
		select {
		case <-g.tokens:
		case <-deadline:
			break drain
		}
	}
	g.recordLat.Store(false)
	res.delivered = g.delivered.Load() - delivered0
	if res.lost = res.forwarded - res.delivered; res.lost < 0 {
		res.lost = 0
	}
	res.latUs = append([]float64(nil), g.lat...)
	return res, nil
}

// sampleSegments reads the delivered counter at every segment boundary and
// returns each whole segment's rate against the time that really passed.
func (g *generator) sampleSegments(d, segment time.Duration) []float64 {
	var rates []float64
	tick := time.NewTicker(segment)
	defer tick.Stop()
	last, lastAt := g.delivered.Load(), time.Now()
	for n := int(d / segment); n > 0; n-- {
		<-tick.C
		cur, at := g.delivered.Load(), time.Now()
		rates = append(rates, float64(cur-last)/at.Sub(lastAt).Seconds())
		last, lastAt = cur, at
	}
	return rates
}

// one sends pool frame i until it comes back: the first forwarded frame. It
// is sent again every 10 ms, because a frame that races the attach of its
// egress port is dropped as unrouted by a worker still holding the older port
// map (seen once in some 4500 set-ups).
func (g *generator) one(i int) error {
	delivered := g.delivered.Load()
	buf := g.bufs[i]
	setTag(buf, uint32(i))
	for start := time.Now(); time.Since(start) < 2*time.Second; {
		if err := g.w.send(buf); err != nil {
			return err
		}
		for sent := time.Now(); time.Since(sent) < 10*time.Millisecond; goruntime.Gosched() {
			if g.delivered.Load() != delivered {
				return nil
			}
		}
	}
	return fmt.Errorf("not delivered within 2 s")
}

// close stops the receiver; the switch side of the wires is closed by the
// runtime that owns it.
func (g *generator) close() {
	g.w.close()
	<-g.recvDone
}
