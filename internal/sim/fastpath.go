package sim

import (
	"fmt"

	"hyper4/internal/bitfield"
)

// This file is the switch half of the fused fast path (DESIGN.md §13).
// A FastHandler — in practice internal/core/fuse's engine — is installed
// with SetFastPath and consulted at the top of process() with a single
// atomic pointer load, the same idiom the quarantine table uses. The
// handler either fully processes the packet (returning its outputs and
// pass accounting) or declines, in which case the interpreted pipeline
// runs exactly as before. Nothing below this hook changes, so a handler
// that always declines is behaviorally invisible.

// FastResult is a fast-path handler's account of one fully processed
// packet. Outputs carries the emitted packets (empty means dropped);
// Resubmits, Recirculates and Clones are the number of resubmission,
// recirculation and egress-to-egress clone passes the packet incurred
// beyond its first pass, so the switch can keep its pass-type metrics
// conserved with the interpreted path even when the handler walks a
// composed chain or expands a multicast fan-out.
type FastResult struct {
	Outputs      []Output
	Resubmits    int
	Recirculates int
	Clones       int
}

// FastHandler processes packets without the interpreted pipeline. RunFast
// is called with the switch's control-plane read lock held: table state
// cannot change underneath it, and it must not call any Switch method that
// takes mu (MeterRef.Execute, CounterRef.Inc and Generation are safe).
// Returning ok=false declines the packet — for any reason, at any point
// before side effects — and hands it to the interpreter untouched.
type FastHandler interface {
	RunFast(sw *Switch, data []byte, port int) (FastResult, bool)
}

// fastBox wraps the handler interface so it can live in an atomic.Pointer.
type fastBox struct{ h FastHandler }

// SetFastPath installs (or, with nil, removes) the fast-path handler.
// Safe to call concurrently with Process.
func (sw *Switch) SetFastPath(h FastHandler) {
	if h == nil {
		sw.fast.Store(nil)
		return
	}
	sw.fast.Store(&fastBox{h: h})
}

// FastPath returns the installed handler, or nil.
func (sw *Switch) FastPath() FastHandler {
	if b := sw.fast.Load(); b != nil {
		return b.h
	}
	return nil
}

// Generation returns the control-plane write generation: a counter bumped
// by every table mutation (add, delete, modify, default, clear) under the
// write lock. A compiled plan records the generation it was built against
// and declines any packet once the live value differs, so a stale plan can
// never act on state it no longer reflects.
func (sw *Switch) Generation() uint64 { return sw.gen.Load() }

// bumpGen marks a control-plane mutation. Callers hold mu's write side.
func (sw *Switch) bumpGen() { sw.gen.Add(1) }

// runFast consults the fast path for one packet. Called by process() with
// the read lock held, before any interpreted work. A panic inside the
// handler is swallowed and treated as a decline: the interpreter reruns
// the packet from scratch (the handler is pure until its commit phase, so
// no partial effects can have leaked).
func (sw *Switch) runFast(data []byte, port int) (res FastResult, ok bool) {
	b := sw.fast.Load()
	if b == nil {
		return FastResult{}, false
	}
	defer func() {
		if r := recover(); r != nil {
			res, ok = FastResult{}, false
		}
	}()
	return b.h.RunFast(sw, data, port)
}

// --- helpers a fast-path handler may call during its commit phase ---
// A handler resolves the extern arrays it drives once, when it is built
// (MeterRef, CounterRef), so its commit phase pays no name lookup per
// packet. Execute and Inc take only the array's own fine-grained lock
// (never mu), matching the lock order Process established: mu's read side
// is held outside, leaf locks inside. The arrays live as long as the
// switch, so a ref never goes stale.

// MeterRef is one meter array resolved by name.
type MeterRef struct {
	name string
	m    *meterArray
}

// MeterRef resolves a meter array for a fast-path handler.
func (sw *Switch) MeterRef(name string) (MeterRef, error) {
	m, ok := sw.meters[name]
	if !ok {
		return MeterRef{}, fmt.Errorf("sim: no meter %q", name)
	}
	return MeterRef{name: name, m: m}, nil
}

// Execute records meter usage and returns the color, exactly as
// execute_meter would.
func (r MeterRef) Execute(idx, packetBytes int) (int, error) {
	return r.m.execute(r.name, idx, packetBytes)
}

// CounterRef is one counter array resolved by name.
type CounterRef struct {
	name string
	c    *counterArray
}

// CounterRef resolves a counter array for a fast-path handler.
func (sw *Switch) CounterRef(name string) (CounterRef, error) {
	c, ok := sw.counters[name]
	if !ok {
		return CounterRef{}, fmt.Errorf("sim: no counter %q", name)
	}
	return CounterRef{name: name, c: c}, nil
}

// Inc bumps a counter cell, exactly as the count() primitive would.
func (r CounterRef) Inc(idx, packetBytes int) error {
	return r.c.inc(r.name, idx, packetBytes)
}

// MirrorPort reports the egress port a clone session maps to, and whether
// the session is configured at all. SetMirror bumps the write generation,
// so a plan compiled against the current mirror table is staleness-safe.
func (sw *Switch) MirrorPort(session int) (int, bool) {
	sw.mu.RLock()
	defer sw.mu.RUnlock()
	p, ok := sw.mirrors[session]
	return p, ok
}

// RecordHit bumps the entry's hit counter. Fast-path handlers call this in
// their commit phase for every installed entry the fused walk matched, so
// EntryHits — and everything built on it, like the DPMU's per-vdev stats —
// stays conserved between the fused and interpreted paths.
func (e *Entry) RecordHit() { e.hits.Add(1) }

// Hits returns the entry's lifetime hit count.
func (e *Entry) Hits() int64 { return e.hits.Load() }

// --- plan-construction introspection ---

// TableEntriesOrdered returns the installed entries of a table in match
// precedence order (Priority ascending, longest summed prefix first, then
// insertion order) — the order lookup consults them. The slice is a copy;
// the *Entry pointers are the live installed entries, valid until the next
// mutation of the table (watch Generation to detect that).
func (sw *Switch) TableEntriesOrdered(tableName string) ([]*Entry, error) {
	sw.mu.RLock()
	defer sw.mu.RUnlock()
	t, err := sw.table(tableName)
	if err != nil {
		return nil, err
	}
	out := make([]*Entry, len(t.entries))
	copy(out, t.entries)
	return out, nil
}

// TableDefault returns a table's configured default (miss) action and its
// arguments ("" when none is configured).
func (sw *Switch) TableDefault(tableName string) (string, []bitfield.Value, error) {
	sw.mu.RLock()
	defer sw.mu.RUnlock()
	t, err := sw.table(tableName)
	if err != nil {
		return "", nil, err
	}
	return t.defaultAction, t.defaultArgs, nil
}
