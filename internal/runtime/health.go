package runtime

// Per-port fault containment: the runtime charges every transport error
// (receive errors, send errors, ring stalls detected by a watchdog sampling
// ring cursors) to a per-port circuit breaker — the same state machine the
// DPMU runs per vdev (internal/breaker): healthy → degraded → quarantined →
// probing → healthy. This file holds only the port policy.
//
// Wire ports (attached from a textual spec, i.e. rebuildable) are contained
// for real: quarantine detaches the port — ingestion stops, the backlog
// drains, the socket closes — but the port number and spec are remembered,
// and the runtime auto-reattaches with exponential backoff plus
// deterministic jitter. A reattached port runs in the probing state; a clean
// probe interval closes the breaker, an error during probing re-trips it and
// doubles the backoff. In-process transports (programmatic Attach, e.g.
// netsim's channel links) surface breaker state but are never auto-dropped:
// their quarantine is advisory and recovers by the same timed probe path.
//
// Locking mirrors dpmu's tracker: noteError runs on the RX/TX hot paths and
// takes only the tracker's leaf mutex. Enforcement (detach/reattach) needs
// rt.mu and blocks on the port's RX/TX goroutines — which may themselves be
// in noteError — so SyncPortHealth collects decisions under the leaf mutex,
// releases it, and acts afterwards. Lock order: rt.mu is never acquired with
// health.mu held.

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"hyper4/internal/breaker"
)

// Error kinds recorded against a port's window.
const (
	errKindRecv  = "recv"
	errKindSend  = "send"
	errKindStall = "stall"
)

// HealthConfig tunes the per-port breaker and the RX error backoff. OpenFor
// is the base hold time after a trip: the first reattach attempt (wire) or
// the transition to probing (in-process) happens OpenFor after the trip,
// doubling per failed recovery cycle up to BackoffMax.
type HealthConfig struct {
	breaker.Config
	// BackoffMax caps the exponential reattach backoff.
	BackoffMax time.Duration
	// ProbeFor is how long a probing port must stay error-free to close the
	// breaker.
	ProbeFor time.Duration
	// StallAfter is the number of consecutive watchdog samples a non-empty
	// ring's consumer cursor must hold still before a stall error is charged.
	StallAfter int
	// RecvErrBase/RecvErrMax bound the RX loop's escalating per-port backoff
	// on transient receive errors (doubling from Base, capped at Max, reset
	// by a successful receive) so a persistently failing socket cannot burn
	// a core.
	RecvErrBase time.Duration
	RecvErrMax  time.Duration
	// SyncEvery is the period of the background goroutine that drives
	// time-based transitions, the ring watchdog, and reattach attempts.
	// Negative disables it (tests drive SyncPortHealth explicitly with a
	// fake clock); zero means the default.
	SyncEvery time.Duration
}

// DefaultHealthConfig returns the port breaker defaults.
func DefaultHealthConfig() HealthConfig {
	return HealthConfig{
		Config:      breaker.Config{Window: 10 * time.Second, Trip: 8, OpenFor: 1 * time.Second},
		BackoffMax:  30 * time.Second,
		ProbeFor:    3 * time.Second,
		StallAfter:  3,
		RecvErrBase: time.Millisecond,
		RecvErrMax:  250 * time.Millisecond,
		SyncEvery:   250 * time.Millisecond,
	}
}

// sanitize fills zero fields with defaults so a partially specified config
// can't trip instantly or divide by zero.
func (c HealthConfig) sanitize() HealthConfig {
	def := DefaultHealthConfig()
	c.Config = c.Config.Or(def.Config)
	if c.BackoffMax < c.OpenFor {
		c.BackoffMax = def.BackoffMax
		if c.BackoffMax < c.OpenFor {
			c.BackoffMax = c.OpenFor
		}
	}
	if c.ProbeFor <= 0 {
		c.ProbeFor = def.ProbeFor
	}
	if c.StallAfter <= 0 {
		c.StallAfter = def.StallAfter
	}
	if c.RecvErrBase <= 0 {
		c.RecvErrBase = def.RecvErrBase
	}
	if c.RecvErrMax < c.RecvErrBase {
		c.RecvErrMax = def.RecvErrMax
		if c.RecvErrMax < c.RecvErrBase {
			c.RecvErrMax = c.RecvErrBase
		}
	}
	if c.SyncEvery == 0 {
		c.SyncEvery = def.SyncEvery
	}
	return c
}

// PortHealth is one port's breaker snapshot — the control plane's
// "port health" view.
type PortHealth struct {
	Port int
	Spec string
	// Wire reports a spec-built transport: quarantine detaches and
	// auto-reattach applies. In-process ports report state only.
	Wire  bool
	State breaker.State
	// Detached reports a wire port currently parked by quarantine (its
	// transport is closed; the port is absent from the active port list).
	Detached bool
	// WindowErrors is the live error count inside the sliding window.
	WindowErrors int
	RecvErrors   uint64
	SendErrors   uint64
	Stalls       uint64
	Trips        uint64
	Reattaches   uint64
	LastError    string
	// RetryIn is the time until the next reattach attempt (or probe
	// transition), zero when none is scheduled.
	RetryIn time.Duration
}

// portHealthRec is one port's mutable record — the breaker plus the port
// policy's error kinds, reattach schedule and watchdog — guarded by
// ioHealth.mu. The breaker's Attempts exponentiates the backoff.
type portHealthRec struct {
	breaker.Breaker
	port int
	spec string
	wire bool

	recvErrs uint64
	sendErrs uint64
	stalls   uint64
	reatt    uint64

	lastErr string

	nextAttempt time.Time

	// detached: wire port parked by quarantine (transport closed, spec kept).
	detached bool
	// enforcing serializes detach/reattach across concurrent SyncPortHealth
	// callers: set under mu before acting, cleared when the action lands.
	enforcing bool

	// Watchdog state: last observed consumer cursors per worker ring and
	// the consecutive-stuck sample counts.
	rxHeads []uint64
	txHeads []uint64
	rxStuck []int
	txStuck []int
}

// ioHealth is the runtime's port breaker tracker. Leaf mutex: nothing under
// mu calls back into the runtime.
type ioHealth struct {
	mu     sync.Mutex
	cfg    HealthConfig
	now    func() time.Time
	recs   map[int]*portHealthRec
	notify func(PortHealth)
}

// SetHealthClock overrides the tracker's time source (tests).
func (rt *Runtime) SetHealthClock(now func() time.Time) {
	rt.health.mu.Lock()
	rt.health.now = now
	rt.health.mu.Unlock()
}

// SetHealthNotify registers a callback fired after every breaker state
// transition with the port's fresh snapshot. Called outside the tracker
// mutex; under concurrency, notifications for one port may be observed out
// of order — consumers should treat them as hints and read PortHealth() for
// truth.
func (rt *Runtime) SetHealthNotify(fn func(PortHealth)) {
	rt.health.mu.Lock()
	rt.health.notify = fn
	rt.health.mu.Unlock()
}

// onAttach (re)creates a port's record at operator attach time. An operator
// attach is a manual override: it resets a parked or tripped breaker to
// healthy while keeping lifetime totals.
func (h *ioHealth) onAttach(portNum int, spec string, wire bool) {
	h.mu.Lock()
	rec := h.recs[portNum]
	if rec == nil {
		rec = &portHealthRec{port: portNum}
		h.recs[portNum] = rec
	}
	rec.spec = spec
	rec.wire = wire
	rec.Reset()
	rec.detached = false
	rec.nextAttempt = time.Time{}
	rec.rxHeads, rec.txHeads = nil, nil
	rec.rxStuck, rec.txStuck = nil, nil
	h.mu.Unlock()
}

// forget drops a port's record (operator detach).
func (h *ioHealth) forget(portNum int) {
	h.mu.Lock()
	delete(h.recs, portNum)
	h.mu.Unlock()
}

// forgetParked clears a quarantine-parked port, reporting whether one
// existed — the operator's way to cancel a pending auto-reattach.
func (h *ioHealth) forgetParked(portNum int) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	rec := h.recs[portNum]
	if rec == nil || !rec.detached {
		return false
	}
	delete(h.recs, portNum)
	return true
}

// noteError charges one I/O error to a port's breaker. Hot path (RX/TX
// loops): leaf mutex only; the detach a trip calls for is enforced later by
// SyncPortHealth.
func (h *ioHealth) noteError(portNum int, kind string, err error) {
	h.mu.Lock()
	rec := h.recs[portNum]
	if rec == nil {
		h.mu.Unlock()
		return
	}
	note := h.charge(rec, kind, err.Error(), h.now())
	fn := h.notify
	h.mu.Unlock()
	if note != nil && fn != nil {
		fn(*note)
	}
}

// charge records one error of kind against rec and advances its breaker: a
// probing port re-trips with its attempt count raised, a quarantined one
// only counts. A trip schedules the next recovery attempt one backoff cycle
// out. It returns the port's fresh snapshot when the state moved, else nil.
// Caller holds h.mu.
func (h *ioHealth) charge(rec *portHealthRec, kind, detail string, now time.Time) *PortHealth {
	switch kind {
	case errKindRecv:
		rec.recvErrs++
	case errKindSend:
		rec.sendErrs++
	case errKindStall:
		rec.stalls++
	}
	rec.lastErr = kind + ": " + detail
	switch rec.Fault(h.cfg.Config, now) {
	case "":
		return nil
	case breaker.Quarantined:
		rec.nextAttempt = now.Add(h.backoff(rec.port, rec.Attempts))
	}
	return rec.snapshotLocked(h.cfg.Config, now)
}

// backoff is the hold time before recovery cycle n: OpenFor·2ⁿ capped at
// BackoffMax, plus a deterministic jitter in [0, base/4] derived from the
// port and cycle so a fleet of tripped ports doesn't reattach in lockstep
// yet every run replays identically.
func (h *ioHealth) backoff(portNum, attempts int) time.Duration {
	if attempts > 16 {
		attempts = 16
	}
	d := h.cfg.OpenFor << uint(attempts)
	if d <= 0 || d > h.cfg.BackoffMax {
		d = h.cfg.BackoffMax
	}
	span := uint64(d/4) + 1
	j := splitmix64(uint64(portNum)<<32^uint64(attempts)) % span
	return d + time.Duration(j)
}

// splitmix64 is the same avalanche mixer internal/chaos uses for seeded
// schedules (duplicated here: chaos imports runtime, not the reverse).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// snapshotLocked builds a PortHealth view. Caller holds h.mu.
func (rec *portHealthRec) snapshotLocked(cfg breaker.Config, now time.Time) *PortHealth {
	ph := &PortHealth{
		Port:         rec.port,
		Spec:         rec.spec,
		Wire:         rec.wire,
		State:        rec.State(),
		Detached:     rec.detached,
		WindowErrors: rec.Count(cfg, now),
		RecvErrors:   rec.recvErrs,
		SendErrors:   rec.sendErrs,
		Stalls:       rec.stalls,
		Trips:        uint64(rec.Trips),
		Reattaches:   rec.reatt,
		LastError:    rec.lastErr,
	}
	if ph.State == breaker.Quarantined && rec.nextAttempt.After(now) {
		ph.RetryIn = rec.nextAttempt.Sub(now)
	}
	return ph
}

// PortHealth returns every tracked port's breaker snapshot in port order,
// advancing time-based transitions first (poll-driven, like dpmu.Health).
func (rt *Runtime) PortHealth() []PortHealth {
	rt.SyncPortHealth()
	h := &rt.health
	h.mu.Lock()
	now := h.now()
	out := make([]PortHealth, 0, len(h.recs))
	for _, rec := range h.recs {
		out = append(out, *rec.snapshotLocked(h.cfg.Config, now))
	}
	h.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Port < out[j].Port })
	return out
}

// healthAction is one enforcement decision collected under the leaf mutex
// and performed after its release.
type healthAction struct {
	port   int
	spec   string
	detach bool // else: reattach
}

// SyncPortHealth drives everything time-based: the ring-stall watchdog,
// window expiry (degraded → healthy), quarantine hold-off expiry
// (→ probing for in-process ports, → reattach attempt for parked wire
// ports), probe completion (→ healthy), and the detach a freshly tripped
// wire port is owed. Called by the background syncer, every health query,
// and the metrics scrape; safe concurrently.
func (rt *Runtime) SyncPortHealth() {
	h := &rt.health
	pm := rt.ports.Load()

	h.mu.Lock()
	now := h.now()
	var notes []PortHealth
	var acts []healthAction
	for portNum, rec := range h.recs {
		// Watchdog: sample ring consumer cursors of live ports. A ring that
		// holds frames while its consumer cursor sits still across
		// StallAfter consecutive samples is charged as a stall error.
		if p := pm.active[portNum]; p != nil && rec.State() != breaker.Quarantined {
			if stalled := rec.sampleRings(p, h.cfg.StallAfter); stalled != "" {
				if note := h.charge(rec, errKindStall, stalled, now); note != nil {
					notes = append(notes, *note)
				}
			}
		}
		moved := false
		switch rec.State() {
		case breaker.Degraded:
			moved = rec.Decay(h.cfg.Config, now)
		case breaker.Quarantined:
			switch {
			case rec.wire && !rec.detached && !rec.enforcing:
				rec.enforcing = true
				acts = append(acts, healthAction{port: portNum, detach: true})
			case rec.wire && rec.detached && !rec.enforcing && !now.Before(rec.nextAttempt):
				rec.enforcing = true
				acts = append(acts, healthAction{port: portNum, spec: rec.spec})
			case !rec.wire && !now.Before(rec.nextAttempt):
				moved = rec.Probe(now)
			}
		case breaker.Probing:
			moved = now.Sub(rec.ProbeStart) >= h.cfg.ProbeFor && rec.Close()
		}
		if moved {
			notes = append(notes, *rec.snapshotLocked(h.cfg.Config, now))
		}
	}
	fn := h.notify
	h.mu.Unlock()

	if fn != nil {
		for _, n := range notes {
			fn(n)
		}
	}
	for _, a := range acts {
		if a.detach {
			rt.enforceQuarantine(a.port)
		} else {
			rt.tryReattach(a.port, a.spec)
		}
	}
}

// sampleRings updates the watchdog cursors for one live port and returns a
// non-empty description if any ring just crossed the stall threshold.
// Caller holds h.mu.
func (rec *portHealthRec) sampleRings(p *port, stallAfter int) string {
	if len(rec.rxHeads) != len(p.rx) {
		rec.rxHeads = make([]uint64, len(p.rx))
		rec.txHeads = make([]uint64, len(p.tx))
		rec.rxStuck = make([]int, len(p.rx))
		rec.txStuck = make([]int, len(p.tx))
		for w := range p.rx {
			rec.rxHeads[w] = p.rx[w].head.Load()
			rec.txHeads[w] = p.tx[w].head.Load()
		}
		return ""
	}
	stalled := ""
	for w := range p.rx {
		rec.rxStuck[w], rec.rxHeads[w] = stallStep(p.rx[w], rec.rxHeads[w], rec.rxStuck[w])
		if rec.rxStuck[w] >= stallAfter {
			rec.rxStuck[w] = 0
			stalled = fmt.Sprintf("rx ring worker %d wedged", w)
		}
		rec.txStuck[w], rec.txHeads[w] = stallStep(p.tx[w], rec.txHeads[w], rec.txStuck[w])
		if rec.txStuck[w] >= stallAfter {
			rec.txStuck[w] = 0
			stalled = fmt.Sprintf("tx ring worker %d wedged", w)
		}
	}
	return stalled
}

// stallStep advances one ring's watchdog state: the stuck count rises only
// while the ring is non-empty and its consumer cursor has not moved.
func stallStep(r *ring, lastHead uint64, stuck int) (int, uint64) {
	head := r.head.Load()
	if head == lastHead && !r.empty() {
		return stuck + 1, head
	}
	return 0, head
}

// enforceQuarantine parks a tripped wire port: full detach machinery
// (ingestion stops, backlog drains, transport closes) but the breaker
// record keeps the spec for auto-reattach. Runs outside health.mu.
func (rt *Runtime) enforceQuarantine(portNum int) {
	err := rt.detachPort(portNum)
	h := &rt.health
	h.mu.Lock()
	rec := h.recs[portNum]
	if rec != nil {
		rec.enforcing = false
		if err == nil {
			rec.detached = true
		}
		// ErrNoPort: the operator detached first; Detach removed the record
		// already unless it raced — either way leave the record alone, the
		// next sync re-decides. ErrClosed: runtime shutting down.
	}
	fn := h.notify
	var note *PortHealth
	if rec != nil && err == nil {
		note = rec.snapshotLocked(h.cfg.Config, h.now())
	}
	h.mu.Unlock()
	if note != nil && fn != nil {
		fn(*note)
	}
}

// tryReattach rebuilds a parked port's transport from its remembered spec
// and attaches it in the probing state. Failure (bind error, port busy)
// schedules the next attempt one backoff cycle later. Runs outside
// health.mu.
func (rt *Runtime) tryReattach(portNum int, spec string) {
	tr, err := rt.newTransport(portNum, spec)
	if err == nil {
		if aerr := rt.attach(portNum, spec, tr, attachReattach); aerr != nil {
			tr.Close()
			err = aerr
		}
	}
	h := &rt.health
	h.mu.Lock()
	now := h.now()
	rec := h.recs[portNum]
	var note *PortHealth
	if rec == nil && err == nil {
		// The operator detached the parked port while the reattach was in
		// flight; honor the detach by tearing the fresh attach down again.
		h.mu.Unlock()
		_ = rt.detachPort(portNum)
		return
	}
	if rec != nil {
		rec.enforcing = false
		if err == nil {
			rec.detached = false
			rec.reatt++
			rec.Probe(now)
			rec.rxHeads, rec.txHeads = nil, nil
			rec.rxStuck, rec.txStuck = nil, nil
			note = rec.snapshotLocked(h.cfg.Config, now)
		} else if errors.Is(err, ErrPortBusy) || errors.Is(err, ErrClosed) {
			// Operator attached the port themselves (their attach reset the
			// record) or the runtime is closing; nothing to schedule.
		} else {
			rec.Attempts++
			rec.lastErr = fmt.Sprintf("reattach: %v", err)
			rec.nextAttempt = now.Add(h.backoff(portNum, rec.Attempts))
		}
	}
	fn := h.notify
	h.mu.Unlock()
	if note != nil && fn != nil {
		fn(*note)
	}
	if err == nil {
		rt.wakeAll()
	}
}

// healthSyncer is the background goroutine driving SyncPortHealth.
func (rt *Runtime) healthSyncer(every time.Duration) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			rt.SyncPortHealth()
		case <-rt.stop:
			return
		}
	}
}
