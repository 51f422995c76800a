// Package breaker is the circuit-breaker state machine shared by the DPMU's
// per-vdev breakers and the I/O runtime's per-port breakers:
//
//	healthy → degraded → quarantined → probing → healthy
//
// A fault moves a healthy breaker to degraded; the Trip-th fault inside the
// sliding Window trips it to quarantined. A degraded breaker whose window
// empties decays back to healthy. When to leave quarantine (Probe) and when
// a probe has passed (Close) is the caller's policy: the DPMU holds for a
// fixed OpenFor and counts clean probe packets, the runtime backs off
// exponentially and probes for a fixed interval. A fault while probing
// re-trips at once and counts a failed recovery attempt.
//
// The window is a plain sliding window: a fault stays in it for Window,
// whatever the state, and only Probe, Close and Reset clear it.
//
// A Breaker is a value with no lock and no clock: every method that needs
// the time takes it, and the caller serializes access (each owner guards
// its breakers with one leaf mutex).
package breaker

import "time"

// State is a breaker state. The strings are what health reports, events
// and the REPL print.
type State string

const (
	// Healthy: no faults inside the current window.
	Healthy State = "healthy"
	// Degraded: faulting, but below the trip threshold.
	Degraded State = "degraded"
	// Quarantined: tripped; the owner contains the faulty component.
	Quarantined State = "quarantined"
	// Probing: half-open; the owner lets a bounded trial through.
	Probing State = "probing"
)

// Config is the part of a breaker's tuning the state machine and both
// policies share.
type Config struct {
	Window  time.Duration // sliding fault window
	Trip    int           // faults within Window that trip the breaker
	OpenFor time.Duration // hold after a trip before recovery is tried
}

// Or returns c with every unset (non-positive) field taken from def, so a
// partially specified config can neither trip instantly nor hold forever.
func (c Config) Or(def Config) Config {
	if c.Window <= 0 {
		c.Window = def.Window
	}
	if c.Trip <= 0 {
		c.Trip = def.Trip
	}
	if c.OpenFor <= 0 {
		c.OpenFor = def.OpenFor
	}
	return c
}

// Breaker is one component's breaker. The zero value is healthy.
type Breaker struct {
	state  State
	window []time.Time // fault times, oldest first

	Trips      int64     // lifetime trips; Reset keeps it
	Attempts   int       // failed recovery cycles since the breaker was last healthy
	TrippedAt  time.Time // time of the latest trip
	ProbeStart time.Time // time the latest probe began
}

// State returns the breaker's state.
func (b *Breaker) State() State {
	if b.state == "" {
		return Healthy
	}
	return b.state
}

// Fault charges one fault at now and returns the state the breaker moved
// to, or "" if it stayed where it was.
func (b *Breaker) Fault(cfg Config, now time.Time) State {
	b.prune(cfg, now)
	b.window = append(b.window, now)
	switch b.State() {
	case Quarantined:
		return ""
	case Probing:
		b.Attempts++
		return b.trip(now)
	}
	if len(b.window) >= cfg.Trip {
		return b.trip(now)
	}
	if b.state == Degraded {
		return ""
	}
	b.state = Degraded
	return Degraded
}

func (b *Breaker) trip(now time.Time) State {
	b.state = Quarantined
	b.Trips++
	b.TrippedAt = now
	return Quarantined
}

// Decay moves a degraded breaker whose window has emptied back to healthy,
// reporting whether it did.
func (b *Breaker) Decay(cfg Config, now time.Time) bool {
	if b.state != Degraded || b.Count(cfg, now) > 0 {
		return false
	}
	b.state = Healthy
	b.Attempts = 0
	return true
}

// Probe moves a quarantined breaker to probing at now, reporting whether it
// did. The window starts empty so the probe is judged on its own faults.
func (b *Breaker) Probe(now time.Time) bool {
	if b.state != Quarantined {
		return false
	}
	b.state = Probing
	b.ProbeStart = now
	b.window = b.window[:0]
	return true
}

// Close ends a clean probe: a probing breaker becomes healthy. It reports
// whether the breaker was probing.
func (b *Breaker) Close() bool {
	if b.state != Probing {
		return false
	}
	b.Reset()
	return true
}

// Reset forces the breaker healthy from any state. Trips is kept: a reset
// clears containment, not history. The window starts a new array, so a copy
// of the breaker taken before the reset keeps its faults.
func (b *Breaker) Reset() {
	b.state = Healthy
	b.window = nil
	b.Attempts = 0
}

// Count returns the number of faults inside the window ending at now.
func (b *Breaker) Count(cfg Config, now time.Time) int {
	b.prune(cfg, now)
	return len(b.window)
}

// prune drops faults at least Window old.
func (b *Breaker) prune(cfg Config, now time.Time) {
	cut := now.Add(-cfg.Window)
	i := 0
	for i < len(b.window) && !b.window[i].After(cut) {
		i++
	}
	if i > 0 {
		b.window = append(b.window[:0], b.window[i:]...)
	}
}
