package chaos

// Transport-level fault injection: a TransportInjector wraps any
// runtime.Transport and misbehaves on a seeded schedule — injected receive
// errors, injected send errors, silent frame drops, frame duplication, and
// RX stalls. It is how every edge of the runtime's port breakers
// (internal/runtime/health.go) is exercised deterministically under -race:
// the same spec replays the same fault schedule on every serial run, and
// under concurrency the *count* of injected faults stays exact.
//
// All schedule counters live on the parent Injector and are shared across
// every wrapped transport, so Stats() aggregates the whole switch; the
// IOPort filter narrows misbehavior to a single port when a test wants one
// flaky wire among healthy co-tenants.

import (
	"fmt"
	"sync"
	"time"

	pktio "hyper4/internal/runtime"
)

// Per-site salts for the transport fault classes.
const (
	siteRecvErr = 0x72657276 // "rerv"
	siteSendErr = 0x73656e64 // "send"
	siteDrop    = 0x64726f70 // "drop"
	siteDup     = 0x64757065 // "dupe"
	siteStall   = 0x7374616c // "stal"
)

// ErrInjected is the base text of injected I/O errors; the runtime treats
// them exactly like real transport faults (counted, backed off, charged to
// the port's breaker window).
type injectedErr struct {
	site string
	n    int64
}

func (e injectedErr) Error() string {
	return fmt.Sprintf("chaos: injected %s error #%d", e.site, e.n)
}

// WrapTransport wraps a transport for the given port with this injector's
// I/O fault schedule. The runtime's Config.TransportFactory is the intended
// hook:
//
//	inj := chaos.New(spec)
//	cfg.TransportFactory = func(port int, spec string) (pktio.Transport, error) {
//		tr, err := pktio.NewTransport(spec)
//		if err != nil {
//			return nil, err
//		}
//		return inj.WrapTransport(port, tr), nil
//	}
//
// If the spec has no I/O fault classes, or the port filter excludes this
// port, the transport is returned unwrapped (zero overhead).
func (in *Injector) WrapTransport(port int, tr pktio.Transport) pktio.Transport {
	if !in.spec.IOEnabled() || (in.spec.IOPort != 0 && port != in.spec.IOPort) {
		return tr
	}
	ti := &TransportInjector{in: in, inner: tr, port: port}
	if _, ok := tr.(pktio.RecvCloser); ok {
		// Preserve the two-phase shutdown contract only when the inner
		// transport supports it: the runtime type-asserts RecvCloser to
		// decide between CloseRecv and a full Close during drain.
		return &transportInjectorRC{ti}
	}
	return ti
}

// TransportInjector wraps one port's transport with seeded fault injection.
// Like any Transport it tolerates one concurrent Recv'er and one concurrent
// Send'er.
type TransportInjector struct {
	in    *Injector
	inner pktio.Transport
	port  int

	// dup holds a copy of the last duplicated frame, handed out by the next
	// Recv before the wire is consulted again. RX-side only: guarded by mu
	// because CloseRecv may race the RX loop.
	mu  sync.Mutex
	dup []byte
}

// transportInjectorRC is the RecvCloser-preserving variant.
type transportInjectorRC struct{ *TransportInjector }

func (t *transportInjectorRC) CloseRecv() error {
	return t.inner.(pktio.RecvCloser).CloseRecv()
}

// Recv applies the RX-side schedule: stall, injected error, pending
// duplicate, then the real receive, which may be dropped (swallowed, next
// frame awaited) or marked for duplication.
func (t *TransportInjector) Recv(f *pktio.Frame) error {
	in := t.in
	s := &in.spec
	for {
		if s.StallEvery > 0 && s.StallFor > 0 {
			n := in.stallCalls.Add(1) - 1
			if in.draw(siteStall, n, s.StallEvery) {
				in.stalls.Add(1)
				time.Sleep(s.StallFor)
			}
		}
		if s.RecvErrEvery > 0 {
			n := in.recvCalls.Add(1) - 1
			if in.draw(siteRecvErr, n, s.RecvErrEvery) {
				c := in.recvErrs.Add(1)
				if s.RecvErrFirst > 0 && c > int64(s.RecvErrFirst) {
					in.recvErrs.Add(-1)
				} else {
					return injectedErr{site: "recv", n: c}
				}
			}
		}
		t.mu.Lock()
		if t.dup != nil {
			f.Data = t.dup
			t.dup = nil
			t.mu.Unlock()
			return nil
		}
		t.mu.Unlock()
		if err := t.inner.Recv(f); err != nil {
			return err
		}
		if s.DropEvery > 0 {
			n := in.dropCalls.Add(1) - 1
			if in.draw(siteDrop, n, s.DropEvery) {
				in.drops.Add(1)
				continue // swallowed: wait for the next real frame
			}
		}
		if s.DupEvery > 0 {
			n := in.dupCalls.Add(1) - 1
			if in.draw(siteDup, n, s.DupEvery) {
				in.dups.Add(1)
				cp := append([]byte(nil), f.Data...)
				t.mu.Lock()
				t.dup = cp
				t.mu.Unlock()
			}
		}
		return nil
	}
}

// Send applies the TX-side schedule: injected error, silent drop, then the
// real send.
func (t *TransportInjector) Send(f pktio.Frame) error {
	in := t.in
	s := &in.spec
	if s.SendErrEvery > 0 {
		n := in.sendCalls.Add(1) - 1
		if in.draw(siteSendErr, n, s.SendErrEvery) {
			c := in.sendErrs.Add(1)
			if s.SendErrFirst > 0 && c > int64(s.SendErrFirst) {
				in.sendErrs.Add(-1)
			} else {
				return injectedErr{site: "send", n: c}
			}
		}
	}
	if s.DropEvery > 0 {
		n := in.dropCalls.Add(1) - 1
		if in.draw(siteDrop, n, s.DropEvery) {
			in.drops.Add(1)
			return nil // swallowed on the wire: reported sent, never arrives
		}
	}
	return t.inner.Send(f)
}

// Close releases the wrapped transport.
func (t *TransportInjector) Close() error { return t.inner.Close() }
