package sim

import (
	"fmt"

	"hyper4/internal/bitfield"
)

// This file is the switch half of the fused fast path (DESIGN.md §13).
// A FastHandler — in practice internal/core/fuse's engine — is installed
// with SetFastPath and consulted at the top of every unit of work
// (runBurstLocked, batch.go) with a single atomic pointer load, the same
// idiom the quarantine table uses. The handler either fully processes the
// packet (returning its outputs and pass accounting) or declines, in which
// case the interpreted pipeline runs exactly as before. Nothing below this hook changes, so a handler
// that always declines is behaviorally invisible. The handler takes
// packets in bursts, so ProcessSeq (batch.go) can run a whole run of fused
// packets under one hold of the read lock, with their shared-state writes
// flushed once.

// FastResult is a fast-path handler's account of one fully processed
// packet. Outputs carries the emitted packets (empty means dropped);
// Resubmits and Recirculates are the number of resubmission and
// recirculation passes the packet incurred beyond its first pass, so the
// switch can keep its pass-type metrics conserved with the interpreted
// path even when the handler walks a composed chain. A handler runs no
// clone pass: a packet that would clone declines to the interpreter.
type FastResult struct {
	Outputs      []Output
	Resubmits    int
	Recirculates int
}

// FastHandler processes packets without the interpreted pipeline. The
// switch drives it in bursts: BeginBurst opens one under the switch's
// control-plane read lock, and the switch hands it packets until one
// declines, then flushes it before releasing the lock. Process is a
// one-packet burst; ProcessSeq runs as many as the handler takes. RunFast
// runs one packet as a one-packet burst — begin, run, flush — for callers
// that time the handler on its own.
type FastHandler interface {
	RunFast(sw *Switch, data []byte, port int) (FastResult, bool)
	BeginBurst() FastBurst
}

// FastBurst is one open burst. RunFast is called with the read lock held:
// table state cannot change underneath it, and it must not call any Switch
// method that takes mu (MeterRef.Execute, CounterRef.Add and Generation
// are safe). Returning ok=false declines the packet — for any reason, at
// any point before side effects — and hands it to the interpreter
// untouched. An accepted packet's commutative effects (entry hits, counter
// cells, the handler's own counts) may wait for Flush; effects whose order
// matters, like meter executions, happen in RunFast. Flush applies the
// deferred effects and ends the burst. The switch calls it before every
// release of the read lock, so a writer never sees a packet half
// committed.
type FastBurst interface {
	RunFast(sw *Switch, data []byte, port int) (FastResult, bool)
	Flush()
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
// once by every Update transaction that changed table state (add, delete,
// modify, default, clear, restore, mirror), before its write lock is
// released. A compiled plan records the generation it was built against
// and declines any packet once the live value differs, so a stale plan can
// never act on state it no longer reflects.
func (sw *Switch) Generation() uint64 { return sw.gen.Load() }

// runFast hands one packet to an open burst. Called with the read lock
// held, before any interpreted work. A panic inside the handler is
// swallowed and treated as a decline: the interpreter reruns the packet
// from scratch (the handler is pure until its commit phase, so no partial
// effects can have leaked).
func (sw *Switch) runFast(bt FastBurst, data []byte, port int) (res FastResult, ok bool) {
	defer func() {
		if r := recover(); r != nil {
			res, ok = FastResult{}, false
		}
	}()
	return bt.RunFast(sw, data, port)
}

// fastSums is the switch's accounting of fused packets, summed locally and
// added to the shared stats and pass counters once per burst. It keeps them
// conserved with the interpreted path: one normal pass per packet, one
// resubmit pass per parse resubmission, and one recirculate pass per
// crossed virtual link.
type fastSums struct {
	packets, out, dropped   int64
	resubmits, recirculates int64
}

// add counts one fused packet and writes its trace into tr.
func (s *fastSums) add(res FastResult, tr *Trace) {
	s.packets++
	s.out += int64(len(res.Outputs))
	if len(res.Outputs) == 0 {
		s.dropped++
	}
	s.resubmits += int64(res.Resubmits)
	s.recirculates += int64(res.Recirculates)
	*tr = Trace{
		Passes:       1 + res.Resubmits + res.Recirculates,
		Resubmits:    res.Resubmits,
		Recirculates: res.Recirculates,
		Outputs:      res.Outputs,
	}
}

// flush adds the sums to the switch's stats and pass counters.
func (s *fastSums) flush(sw *Switch) {
	sw.stats.packetsIn.Add(s.packets)
	sw.stats.packetsOut.Add(s.out)
	sw.metrics.passNormal.Add(s.packets)
	if s.dropped > 0 {
		sw.stats.packetsDropped.Add(s.dropped)
	}
	if s.resubmits > 0 {
		sw.stats.resubmits.Add(s.resubmits)
		sw.metrics.passResubmit.Add(s.resubmits)
	}
	if s.recirculates > 0 {
		sw.stats.recirculates.Add(s.recirculates)
		sw.metrics.passRecirculate.Add(s.recirculates)
	}
}

// --- helpers a fast-path handler may call during its commit phase ---
// A handler resolves the extern arrays it drives once, when it is built
// (MeterRef, CounterRef), so its commit phase pays no name lookup per
// packet. Execute and Add take only the array's own fine-grained lock
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

// Add bumps a counter cell by packets and bytes under one hold of its
// lock: what packets count() calls over bytes in all would leave.
func (r CounterRef) Add(idx int, packets, bytes uint64) error {
	return r.c.add(r.name, idx, packets, bytes)
}

// RecordHits adds n to the entry's hit counter. Fast-path handlers call
// it for every installed entry the fused walk matched — once per entry per
// burst, with the burst's total — so Hits, and everything built on it
// like the DPMU's per-vdev stats, stays conserved between the fused and
// interpreted paths.
func (e *Entry) RecordHits(n int64) { e.hits.Add(n) }

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
