package runtime

import (
	"fmt"
	"net"
	"net/netip"
	"strings"
	"sync/atomic"
	"time"
)

// maxFrame bounds one received datagram; Ethernet frames with generous
// headroom fit, and anything larger is not a frame this switch models.
const maxFrame = 2048

// slabSize is the receive slab Recv carves frames from: one allocation
// serves about a thousand minimum-size frames instead of one each.
const slabSize = 64 << 10

// UDPTransport carries raw frames as UDP datagrams, one frame per datagram:
// the wire face of a switch port. It listens on a local address; egress goes
// to a fixed peer when the spec names one, otherwise to the source of the
// most recently received datagram (reply mode, convenient for test clients).
type UDPTransport struct {
	conn *net.UDPConn
	peer atomic.Pointer[netip.AddrPort]
	// learn is set in reply mode: Recv re-learns the peer from each source.
	learn      bool
	closed     atomic.Bool
	recvClosed atomic.Bool
	// slab is the unread tail of the current receive slab; Recv's alone.
	slab []byte
}

// newUDPTransport parses "<listen>" or "<listen>/<peer>" (after the "udp:"
// scheme has been cut) and binds the listening socket.
func newUDPTransport(rest string) (*UDPTransport, error) {
	listenSpec, peerSpec, hasPeer := strings.Cut(rest, "/")
	laddr, err := net.ResolveUDPAddr("udp", listenSpec)
	if err != nil {
		return nil, fmt.Errorf("%w: listen %q: %v", ErrBadSpec, listenSpec, err)
	}
	var paddr *net.UDPAddr
	if hasPeer {
		if paddr, err = net.ResolveUDPAddr("udp", peerSpec); err != nil {
			return nil, fmt.Errorf("%w: peer %q: %v", ErrBadSpec, peerSpec, err)
		}
	}
	conn, err := net.ListenUDP("udp", laddr)
	if err != nil {
		return nil, fmt.Errorf("runtime: udp listen %s: %w", listenSpec, err)
	}
	// A sustained-load burst must land in the socket buffer, not the floor;
	// the kernel clamps to its limit, so failure here is advisory.
	_ = conn.SetReadBuffer(4 << 20)
	_ = conn.SetWriteBuffer(4 << 20)
	t := &UDPTransport{conn: conn, learn: !hasPeer}
	if paddr != nil {
		// ResolveUDPAddr gives IPv4 in its 16-byte form, whose AddrPort is
		// 4-in-6, and an IPv4 socket refuses to send to that.
		ap := paddr.AddrPort()
		ap = netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port())
		t.peer.Store(&ap)
	}
	return t, nil
}

// LocalAddr returns the bound listen address (useful with port 0 in tests).
func (t *UDPTransport) LocalAddr() net.Addr { return t.conn.LocalAddr() }

// Recv blocks for the next datagram. A datagram over maxFrame returns
// ErrFrameTooBig instead of being silently truncated — the read reports no
// error when the buffer is too small, so the extra byte of headroom is what
// detects the overflow.
//
// Frames are carved from a slab: each datagram lands in the slab's unread
// tail and is handed out as slab[:n:n], so frames never share bytes and an
// append to one reallocates rather than running into the next. A slab is
// never reused — a fresh one replaces it once less than a maximum frame is
// left — so the caller owns its frame outright, and a retained frame pins
// at most its own slab.
//
//hp4:hotpath
func (t *UDPTransport) Recv(f *Frame) error {
	for {
		if len(t.slab) <= maxFrame {
			t.slab = make([]byte, slabSize)
		}
		n, addr, err := t.conn.ReadFromUDPAddrPort(t.slab[:maxFrame+1])
		if err != nil {
			if t.closed.Load() || t.recvClosed.Load() {
				return ErrClosed
			}
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				continue // stale deadline from a prior CloseRecv race
			}
			return fmt.Errorf("runtime: udp recv: %w", err)
		}
		if n > maxFrame {
			return fmt.Errorf("%w: udp datagram over %d bytes", ErrFrameTooBig, maxFrame)
		}
		if t.learn {
			if p := t.peer.Load(); p == nil || *p != addr {
				peer := addr // a copy: &addr would put every read's address on the heap
				t.peer.Store(&peer)
			}
		}
		f.Data = t.slab[:n:n]
		t.slab = t.slab[n:]
		return nil
	}
}

// Send writes one frame to the peer as a single datagram. Without a peer
// (reply mode before any ingress) the frame cannot be addressed and the
// caller counts it as a TX drop.
//
//hp4:hotpath
func (t *UDPTransport) Send(f Frame) error {
	if t.closed.Load() {
		return ErrClosed
	}
	peer := t.peer.Load()
	if peer == nil {
		return ErrNoPeer
	}
	_, err := t.conn.WriteToUDPAddrPort(f.Data, *peer)
	if err != nil && t.closed.Load() {
		return ErrClosed
	}
	return err
}

// CloseRecv stops ingestion: the pending read is kicked loose via a
// read deadline in the past, while Send keeps working so queued egress can
// drain.
func (t *UDPTransport) CloseRecv() error {
	t.recvClosed.Store(true)
	return t.conn.SetReadDeadline(time.Unix(1, 0))
}

// Close releases the socket.
func (t *UDPTransport) Close() error {
	t.closed.Store(true)
	return t.conn.Close()
}
