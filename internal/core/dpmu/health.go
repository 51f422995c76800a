package dpmu

// Per-vdev fault containment: the DPMU subscribes to the persona switch's
// packet faults (sim.SetFaultHook), attributes each fault to the virtual
// device whose program ID the packet carried, and runs a circuit breaker
// (internal/breaker) per device. Too many faults inside a sliding window trip
// the breaker: the device is quarantined — its passes dropped lock-free by
// the sim layer, or its position in a composed chain bypassed, per policy —
// for a fixed OpenFor, then a half-open probe phase lets a bounded number of
// packets through; if they complete cleanly the device is restored
// automatically.
//
// Locking: onFault runs on the packet path while the switch's control-plane
// read lock is held, so it must never acquire d.mu (management ops hold d.mu
// while waiting for the switch write lock — a writer waiting on an RWMutex
// blocks new readers, so hook → d.mu would deadlock). The tracker therefore
// has its own leaf mutex; everything the hook touches (the pid map, the
// breakers, the sim quarantine table — the latter lock-free atomics) is
// reachable under that mutex alone. Time-based transitions (quarantined →
// probing → healthy) and bypass rewiring need d.mu and happen in
// syncHealthLocked, which every health query runs first. Lock order: d.mu
// before health.mu, never the reverse — and, for the same reason the hook
// cannot take d.mu, the switch write lock must never be requested while
// health.mu is held: a faulting packet holds the switch read lock and blocks
// on health.mu in onFault, while a pending switch writer blocks waiting for
// that reader to drain. Bypass rewiring therefore collects its decisions
// under health.mu, releases it, and performs the table writes under d.mu
// alone (see syncHealthLocked / ResetHealth).

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"hyper4/internal/breaker"
	"hyper4/internal/sim"
)

// QuarantinePolicy selects what containment does to a quarantined device's
// traffic.
type QuarantinePolicy string

const (
	// PolicyDrop drops every pass attributed to the quarantined device.
	PolicyDrop QuarantinePolicy = "drop"
	// PolicyBypass additionally rewires virtual links around the device
	// (single-successor chains only), so a composed chain keeps forwarding
	// while the faulty middle hop is out. Traffic entering the device from
	// physical port assignments still drops.
	PolicyBypass QuarantinePolicy = "bypass"
)

// HealthConfig tunes the per-vdev circuit breaker. OpenFor is a fixed
// quarantine hold before half-open probing.
type HealthConfig struct {
	breaker.Config
	ProbePackets int              // clean probe passes required to close
	Policy       QuarantinePolicy // what quarantine does to traffic
}

// DefaultHealthConfig returns the breaker defaults.
func DefaultHealthConfig() HealthConfig {
	return HealthConfig{
		Config:       breaker.Config{Window: 10 * time.Second, Trip: 5, OpenFor: 5 * time.Second},
		ProbePackets: 10,
		Policy:       PolicyDrop,
	}
}

// ParseQuarantinePolicy validates an operator-supplied policy string.
// Anything but the exact "drop"/"bypass" spellings is an error, so a typo
// can't silently run the switch under the wrong containment policy.
func ParseQuarantinePolicy(s string) (QuarantinePolicy, error) {
	switch p := QuarantinePolicy(s); p {
	case PolicyDrop, PolicyBypass:
		return p, nil
	}
	return "", fmt.Errorf("dpmu: unknown quarantine policy %q (want %q or %q)", s, PolicyDrop, PolicyBypass)
}

// sanitize fills zero fields with defaults. Only the empty policy is coerced
// (to the default, drop) — operator-facing strings are validated up front by
// ParseQuarantinePolicy; an unknown value that slips in programmatically
// behaves as drop at runtime (only PolicyBypass enables rewiring).
func (c HealthConfig) sanitize() HealthConfig {
	def := DefaultHealthConfig()
	c.Config = c.Config.Or(def.Config)
	if c.ProbePackets <= 0 {
		c.ProbePackets = def.ProbePackets
	}
	if c.Policy == "" {
		c.Policy = def.Policy
	}
	return c
}

// VDevHealth is one device's health, as exposed on /v1/health and the
// hyper4_vdev_health gauge.
type VDevHealth struct {
	VDev         string        `json:"vdev"`
	PID          int           `json:"pid"`
	State        breaker.State `json:"state"`
	Faults       int64         `json:"faults"`       // lifetime attributed faults
	Trips        int64         `json:"trips"`        // lifetime breaker trips
	WindowFaults int           `json:"windowFaults"` // faults inside the current window
	LastKind     string        `json:"lastFaultKind,omitempty"`
	LastFault    string        `json:"lastFault,omitempty"`
	LastFaultAt  time.Time     `json:"lastFaultAt,omitempty"`
	ProbesLeft   int64         `json:"probesLeft,omitempty"` // remaining half-open budget
	Bypassed     bool          `json:"bypassed,omitempty"`   // links rewired around the device
}

// HealthSnapshot is the full health report.
type HealthSnapshot struct {
	VDevs        []VDevHealth `json:"vdevs"`
	Unattributed int64        `json:"unattributed"` // faults with no owning vdev
}

// vdevHealth is the tracker's mutable per-device record: the breaker plus
// the vdev policy's attribution and containment state.
type vdevHealth struct {
	breaker.Breaker
	name string
	pid  uint64

	faults   int64
	lastKind sim.FaultKind
	lastMsg  string
	lastAt   time.Time

	probeBudget int64
	probeFresh  bool // probe budget not yet pushed into the sim quarantine table
	bypassed    bool
}

// healthTracker is the DPMU's breaker state, guarded by its own leaf mutex
// (see the package comment above for why it cannot share d.mu).
type healthTracker struct {
	mu     sync.Mutex
	cfg    HealthConfig
	now    func() time.Time
	byName map[string]*vdevHealth
	byPID  map[uint64]*vdevHealth

	unattributed int64
	notify       func(vdev string, state breaker.State)
}

func (h *healthTracker) init() {
	h.cfg = DefaultHealthConfig()
	h.now = time.Now
	h.byName = map[string]*vdevHealth{}
	h.byPID = map[uint64]*vdevHealth{}
}

// sortedLocked returns the records in stable name order.
func (h *healthTracker) sortedLocked() []*vdevHealth {
	out := make([]*vdevHealth, 0, len(h.byName))
	for _, v := range h.byName {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// rebuildQuarantineLocked pushes the breaker states into the sim layer's
// lock-free quarantine table. Probing devices keep their partially consumed
// budgets unless the budget was just (re)issued.
func (h *healthTracker) rebuildQuarantineLocked(sw *sim.Switch) {
	budgets := map[uint64]int64{}
	for _, v := range h.byName {
		switch v.State() {
		case breaker.Quarantined:
			budgets[v.pid] = 0
		case breaker.Probing:
			b := v.probeBudget
			if !v.probeFresh {
				if rem, ok := sw.QuarantineRemaining(v.pid); ok {
					b = max(rem, 0)
				}
			}
			budgets[v.pid] = b
			v.probeFresh = false
		}
	}
	sw.SetQuarantine(budgets)
}

// SetHealthConfig replaces the breaker configuration (zero fields take
// defaults). Existing breaker state is kept.
func (d *DPMU) SetHealthConfig(cfg HealthConfig) {
	d.health.mu.Lock()
	d.health.cfg = cfg.sanitize()
	d.health.mu.Unlock()
}

// SetHealthClock overrides the tracker's time source (tests).
func (d *DPMU) SetHealthClock(now func() time.Time) {
	d.health.mu.Lock()
	d.health.now = now
	d.health.mu.Unlock()
}

// SetHealthNotify installs a callback fired on every breaker transition
// (degraded/quarantined/probing/healthy). It may be invoked from the packet
// path and must not call back into the DPMU or the switch control plane.
func (d *DPMU) SetHealthNotify(fn func(vdev string, state breaker.State)) {
	d.health.mu.Lock()
	d.health.notify = fn
	d.health.mu.Unlock()
}

// registerHealth / unregisterHealth track vdev lifecycle (called with d.mu
// held and a write open, from Load and Unload). Each records its inverse in
// the write set: an undone unload gets its old record back, breaker state
// and all.
func (d *DPMU) registerHealth(name string, pid int) {
	d.setHealth(name, &vdevHealth{name: name, pid: uint64(pid)})
}

func (d *DPMU) unregisterHealth(name string) { d.setHealth(name, nil) }

// setHealth installs v as the named device's record, or drops the record
// when v is nil.
func (d *DPMU) setHealth(name string, v *vdevHealth) {
	d.health.mu.Lock()
	old := d.health.putLocked(d.SW, name, v)
	d.health.mu.Unlock()
	d.tx.OnUndo(func() {
		d.health.mu.Lock()
		d.health.putLocked(d.SW, name, old)
		d.health.mu.Unlock()
	})
}

// putLocked replaces the named record (nil: none), pushes the breaker
// states to the switch, and returns the record it replaced.
func (h *healthTracker) putLocked(sw *sim.Switch, name string, v *vdevHealth) *vdevHealth {
	old := h.byName[name]
	if old != nil {
		delete(h.byName, name)
		delete(h.byPID, old.pid)
	}
	if v != nil {
		h.byName[name] = v
		h.byPID[v.pid] = v
	}
	h.rebuildQuarantineLocked(sw)
	return old
}

// resyncHealth reconciles the tracker with the live vdev set after a
// rollback: records for vanished devices are dropped, new devices start
// healthy, surviving devices keep their breaker state. Bypass flags reset so
// the next syncHealthLocked re-enforces rewiring against the restored rows.
func (d *DPMU) resyncHealth() {
	h := &d.health
	h.mu.Lock()
	fresh := make(map[string]*vdevHealth, len(d.vdevs))
	freshPID := make(map[uint64]*vdevHealth, len(d.vdevs))
	for name, dev := range d.vdevs {
		pid := uint64(dev.PID)
		v := h.byName[name]
		if v == nil || v.pid != pid {
			v = &vdevHealth{name: name, pid: pid}
		}
		v.bypassed = false
		fresh[name] = v
		freshPID[pid] = v
	}
	h.byName = fresh
	h.byPID = freshPID
	h.rebuildQuarantineLocked(d.SW)
	h.mu.Unlock()
}

// onFault is the sim fault hook. It runs on the packet path under the
// switch's read lock: leaf mutex only, no d.mu (see package comment).
func (d *DPMU) onFault(f *sim.PacketFault) {
	h := &d.health
	h.mu.Lock()
	v := h.byPID[f.Attr]
	if v == nil {
		h.unattributed++
		h.mu.Unlock()
		return
	}
	now := h.now()
	v.faults++
	v.lastKind, v.lastMsg, v.lastAt = f.Kind, f.Msg, now
	// A quarantined device is already contained; a probing one re-trips.
	transition := v.Fault(h.cfg.Config, now)
	if transition == breaker.Quarantined {
		h.rebuildQuarantineLocked(d.SW)
	}
	notify := h.notify
	name := v.name
	h.mu.Unlock()
	if transition != "" && notify != nil {
		notify(name, transition)
	}
}

// syncHealthLocked advances time-based breaker transitions: degraded
// devices whose windows emptied become healthy, quarantined devices past
// OpenFor enter half-open probing, probing devices that consumed their whole
// budget cleanly are restored. Bypass rewiring is enforced/undone here (it
// needs d.mu, which the caller holds). Every health query calls this, so the
// state machine advances whenever anyone looks.
func (d *DPMU) syncHealthLocked() {
	h := &d.health
	h.mu.Lock()
	now := h.now()
	type event struct {
		name  string
		state breaker.State
	}
	var events []event
	// Bypass rewiring writes switch tables, which blocks on the switch write
	// lock; a faulting packet holds the switch read lock while blocked on
	// health.mu in onFault. Collect the decisions here and rewire only after
	// health.mu is released, in one switch transaction (d.mu, which we hold,
	// serializes the rewiring and pins every breaker state transition
	// meanwhile).
	var enforce, undo []string
	rebuild := false
	for _, v := range h.sortedLocked() {
		switch v.State() {
		case breaker.Degraded:
			if v.Decay(h.cfg.Config, now) {
				events = append(events, event{v.name, breaker.Healthy})
			}
		case breaker.Quarantined:
			if now.Sub(v.TrippedAt) >= h.cfg.OpenFor && v.Probe(now) {
				v.probeBudget = int64(h.cfg.ProbePackets)
				v.probeFresh = true
				if v.bypassed {
					// Probes must reach the device: restore its links for
					// the half-open phase.
					undo = append(undo, v.name)
					v.bypassed = false
				}
				rebuild = true
				events = append(events, event{v.name, breaker.Probing})
			} else if h.cfg.Policy == PolicyBypass && !v.bypassed {
				enforce = append(enforce, v.name)
			}
		case breaker.Probing:
			// A fault during probing re-trips in onFault; here we only
			// check for a cleanly consumed budget.
			rem, ok := d.SW.QuarantineRemaining(v.pid)
			if ok && rem <= 0 && v.lastAt.Before(v.ProbeStart) && v.Close() {
				rebuild = true
				events = append(events, event{v.name, breaker.Healthy})
			}
		}
	}
	if rebuild {
		h.rebuildQuarantineLocked(d.SW)
	}
	notify := h.notify
	h.mu.Unlock()

	var bypassed []string
	if len(undo)+len(enforce) > 0 {
		_ = d.inTx(func() error {
			for _, name := range undo {
				d.undoBypassLocked(name)
			}
			for _, name := range enforce {
				if d.enforceBypassLocked(name) {
					bypassed = append(bypassed, name)
				}
			}
			return nil
		})
	}
	if len(bypassed) > 0 {
		h.mu.Lock()
		for _, name := range bypassed {
			// d.mu held throughout keeps the state Quarantined (onFault
			// never leaves Quarantined; every other transition needs
			// d.mu), so the record is still the one we decided on.
			if v := h.byName[name]; v != nil && v.State() == breaker.Quarantined {
				v.bypassed = true
			}
		}
		h.mu.Unlock()
	}

	if notify != nil {
		for _, e := range events {
			notify(e.name, e.state)
		}
	}
	// Bypass rewiring rewrote virtnet rows; the generation check already
	// keeps a bypassed vdev's stale plan off its old links, and the
	// requested compile brings the fast path back. A no-op when no
	// rewiring happened (the switch generation is unchanged).
	d.requestCompileLocked()
}

// Health advances the breaker state machine and returns the health report.
func (d *DPMU) Health() HealthSnapshot {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.syncHealthLocked()
	h := &d.health
	h.mu.Lock()
	defer h.mu.Unlock()
	now := h.now()
	snap := HealthSnapshot{Unattributed: h.unattributed}
	for _, v := range h.sortedLocked() {
		vh := VDevHealth{
			VDev:         v.name,
			PID:          int(v.pid),
			State:        v.State(),
			Faults:       v.faults,
			Trips:        v.Trips,
			WindowFaults: v.Count(h.cfg.Config, now),
			LastKind:     string(v.lastKind),
			LastFault:    v.lastMsg,
			LastFaultAt:  v.lastAt,
			Bypassed:     v.bypassed,
		}
		if vh.State == breaker.Probing {
			if rem, ok := d.SW.QuarantineRemaining(v.pid); ok {
				vh.ProbesLeft = max(rem, 0)
			} else {
				vh.ProbesLeft = v.probeBudget
			}
		}
		snap.VDevs = append(snap.VDevs, vh)
	}
	return snap
}

// ResetHealth is the explicit admin reset: the owner (or the operator of an
// unowned device) forces the device back to healthy, undoing quarantine and
// bypass. Trip and fault totals are kept — reset clears containment, not
// history. The notify hook hears "healthy" once the Update commits.
func (t *Tx) ResetHealth(owner, vdev string) error {
	d := t.d
	if _, err := d.auth(owner, vdev); err != nil {
		return err
	}
	h := &d.health
	h.mu.Lock()
	v, ok := h.byName[vdev]
	if !ok {
		h.mu.Unlock()
		return fmt.Errorf("dpmu: no health record for %q: %w", vdev, ErrNotFound)
	}
	wasBypassed := v.bypassed
	reset := *v
	reset.bypassed = false
	reset.Reset()
	h.putLocked(d.SW, vdev, &reset)
	h.mu.Unlock()
	// An undone reset puts v back, with the containment its undone rows
	// belong to. Packets may have counted faults on the reset record in the
	// meantime; v takes over those lifetime totals.
	d.tx.OnUndo(func() {
		h.mu.Lock()
		v.faults, v.Trips = reset.faults, reset.Trips
		v.lastKind, v.lastMsg, v.lastAt = reset.lastKind, reset.lastMsg, reset.lastAt
		h.putLocked(d.SW, vdev, v)
		h.mu.Unlock()
	})
	// Same shape as syncHealthLocked: rewire only after health.mu is
	// released.
	if wasBypassed {
		d.undoBypassLocked(vdev)
	}
	d.resets = append(d.resets, vdev)
	return nil
}

// notifyResets announces the committed Update's health resets (called by
// Update with d.mu held).
func (d *DPMU) notifyResets() {
	if len(d.resets) == 0 {
		return
	}
	d.health.mu.Lock()
	notify := d.health.notify
	d.health.mu.Unlock()
	if notify == nil {
		return
	}
	for _, vdev := range d.resets {
		notify(vdev, breaker.Healthy)
	}
}
