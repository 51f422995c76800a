// Package sim implements a software P4 target functionally equivalent to the
// bmv2 simple_switch the paper evaluates on: a parser state machine, ingress
// and egress match-action pipelines, a traffic manager handling resubmit,
// recirculate and clone, and a deparser with calculated-field (checksum)
// updates.
//
// Processing is synchronous: Process takes one packet and returns every
// packet the switch emits, plus a Trace recording the work performed (tables
// applied, ternary bits matched, resubmit/recirculate counts). The trace is
// what the paper's evaluation tables are computed from.
//
// Concurrency: Process is safe to call from multiple goroutines; the packet
// I/O runtime's workers each hand it bursts through ProcessSeq. Control-plane
// mutations (TableAdd, TableDelete, SetMirror, ...) serialize against
// in-flight packets on a switch-wide RWMutex, one Update transaction of any
// number of them per hold of the write side; stateful externs (registers,
// counters, meters) take fine-grained per-array locks so their updates are
// serialized exactly as bmv2 serializes extern access. A packet holds the
// read side for its whole run, except that ProcessSeq runs a run of packets
// the fused fast path takes as one unit of work: one hold of the read side,
// one clock pair, and one flush of their counts, before the lock is
// released. See DESIGN.md ("Concurrency model & fast path").
package sim

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"hyper4/internal/bitfield"
	"hyper4/internal/p4/hlir"
)

// MaxPasses bounds parser re-entries per packet (resubmit + recirculate +
// clones), preventing a misconfigured program from looping forever.
const MaxPasses = 256

// Output is one packet emitted by the switch.
type Output struct {
	Port int
	Data []byte
}

// Switch is a software P4 target loaded with one program.
type Switch struct {
	Name string
	prog *hlir.Program
	lay  *layout
	code *code // the compiled program (compile.go)

	// mu guards control-plane state (table entries, defaults, mirrors)
	// against in-flight packets: Process holds the read side for the whole
	// packet (ProcessSeq for a whole run of fused packets), and Update holds
	// the write side for a whole transaction of control-plane writes.
	mu      sync.RWMutex
	tables  map[string]*table
	mirrors map[int]int // clone session ID -> egress port
	// writes counts the committed transactions that wrote something, to the
	// switch or to bookkeeping recorded beside it (Tx.OnUndo). Guarded by
	// mu; Tx.Undo checks write sets against it.
	writes uint64

	// Stateful externs carry their own fine-grained locks (see stateful.go);
	// the maps themselves are immutable after New.
	registers map[string]*registerArray
	counters  map[string]*counterArray
	meters    map[string]*meterArray

	stats   stats
	metrics switchMetrics
	pool    sync.Pool

	// Fault containment (fault.go). attrib/injector/faultHook are written
	// under mu's write side and read under the read side Process holds; the
	// quarantine table is swapped atomically so enforcement never locks.
	attrib    attribution
	injector  Injector
	faultHook func(*PacketFault)
	quar      atomic.Pointer[quarTable]

	// Fused fast path (fastpath.go). fast is the installed handler, loaded
	// once per packet or per ProcessSeq burst; gen counts control-plane
	// mutations so compiled plans can detect staleness without any extra
	// synchronization.
	fast atomic.Pointer[fastBox]
	gen  atomic.Uint64
}

// Stats aggregates switch-lifetime counters.
type Stats struct {
	PacketsIn      int
	PacketsOut     int
	PacketsDropped int
	Resubmits      int
	Recirculates   int
	Clones         int
	TableApplies   int
}

// stats is the internal atomic representation, so concurrent Process calls
// never contend on a lock just to count.
type stats struct {
	packetsIn      atomic.Int64
	packetsOut     atomic.Int64
	packetsDropped atomic.Int64
	resubmits      atomic.Int64
	recirculates   atomic.Int64
	clones         atomic.Int64
	tableApplies   atomic.Int64
}

// New creates a switch running the given resolved program.
func New(name string, prog *hlir.Program) (*Switch, error) {
	sw := &Switch{
		Name:      name,
		prog:      prog,
		lay:       newLayout(prog),
		tables:    map[string]*table{},
		registers: map[string]*registerArray{},
		counters:  map[string]*counterArray{},
		meters:    map[string]*meterArray{},
		mirrors:   map[int]int{},
	}
	for _, tname := range prog.TableOrder {
		decl := prog.Tables[tname]
		tbl, err := newTable(sw.lay, decl)
		if err != nil {
			return nil, err
		}
		sw.tables[tname] = tbl
	}
	for name, r := range prog.Registers {
		n := r.InstanceCount
		if n == 0 {
			n = 1
		}
		ra := &registerArray{width: r.Width, cells: make([]bitfield.Value, n)}
		for i := range ra.cells {
			ra.cells[i] = bitfield.New(r.Width)
		}
		sw.registers[name] = ra
	}
	for name, c := range prog.Counters {
		n := c.InstanceCount
		if n == 0 {
			n = 1
		}
		sw.counters[name] = &counterArray{kind: c.Kind, packets: make([]uint64, n), bytes: make([]uint64, n)}
	}
	for name, m := range prog.Meters {
		n := m.InstanceCount
		if n == 0 {
			n = 1
		}
		sw.meters[name] = newMeterArray(m.Kind, n)
	}
	sw.code = sw.compile()
	for _, t := range sw.tables {
		t.defaultAct = sw.code.byName[t.defaultAction]
	}
	sw.metrics.init(sw.code.actions)
	sw.pool.New = func() any { return newPacketState(sw) }
	return sw, nil
}

// Program returns the loaded program.
func (sw *Switch) Program() *hlir.Program { return sw.prog }

// Stats returns a snapshot of the lifetime counters.
func (sw *Switch) Stats() Stats {
	return Stats{
		PacketsIn:      int(sw.stats.packetsIn.Load()),
		PacketsOut:     int(sw.stats.packetsOut.Load()),
		PacketsDropped: int(sw.stats.packetsDropped.Load()),
		Resubmits:      int(sw.stats.resubmits.Load()),
		Recirculates:   int(sw.stats.recirculates.Load()),
		Clones:         int(sw.stats.clones.Load()),
		TableApplies:   int(sw.stats.tableApplies.Load()),
	}
}

// SetMirror maps a clone session ID to an egress port.
func (tx *Tx) SetMirror(session, port int) {
	mirrors := tx.sw.mirrors
	old, had := mirrors[session]
	mirrors[session] = port
	tx.changed = true
	if tx.record {
		tx.OnUndo(func() {
			if had {
				mirrors[session] = old
			} else {
				delete(mirrors, session)
			}
		})
	}
}

// pass describes one trip through (parser →) ingress/egress.
type pass struct {
	data         []byte
	port         int
	preserved    []preservedField
	instanceType uint64
	// egressOnly passes (clones) skip parser+ingress and carry state.
	egressOnly bool
	state      *packetState
	egressPort int
}

// bmv2 instance_type values.
const (
	instNormal      = 0
	instCloneI2E    = 1
	instCloneE2E    = 2
	instRecirculate = 4
	instResubmit    = 6
)

// Process runs one packet through the switch and returns all emitted packets
// and a trace of the work performed. It is safe for concurrent use. It is
// a one-packet ProcessSeq burst.
func (sw *Switch) Process(data []byte, port int) ([]Output, *Trace, error) {
	var r [1]Result
	if _, fused := sw.runBurst([]Input{{Data: data, Port: port}}, r[:], false); fused {
		tr := r[0].trace
		return r[0].Outputs, &tr, nil
	}
	return r[0].Outputs, r[0].Trace, r[0].Err
}

// interpret runs one packet through the interpreted pipeline. Callers hold
// mu's read side. Every per-packet failure — including recovered panics —
// surfaces as a *PacketFault; the switch itself never dies on data-plane
// input.
func (sw *Switch) interpret(data []byte, port int) ([]Output, *Trace, error) {
	sw.stats.packetsIn.Add(1)
	maxPasses := MaxPasses
	if inj := sw.injector; inj != nil {
		inj.Delay()
		if b := inj.PassBound(); b > 0 && b < maxPasses {
			maxPasses = b
		}
	}
	tr := newTrace()
	var queueArr [2]pass
	queue := append(queueArr[:0], pass{data: data, port: port, instanceType: instNormal})
	var outputs []Output
	// lastAttr remembers the most recent attribution value observed across
	// passes, so a pass-bound fault is pinned on the vdev driving the loop.
	var lastAttr uint64
	for len(queue) > 0 {
		if tr.Passes >= maxPasses {
			sw.releaseQueued(queue)
			return nil, nil, sw.fault(&PacketFault{
				Kind: FaultPassBound, Port: port, Attr: lastAttr,
				Msg: fmt.Sprintf("sim: packet exceeded %d pipeline passes", maxPasses), //hp4:allow hotpath (fault path)
			})
		}
		tr.Passes++
		p := queue[0]
		queue = queue[1:]
		if p.egressOnly && p.state != nil {
			// Clone passes carry their instance type in the cloned state.
			sw.metrics.recordPass(p.state.stdMetaUint(stdInstanceType))
		} else {
			sw.metrics.recordPass(p.instanceType)
		}
		emitted, next, attr, err := sw.runPassContained(p, tr)
		if attr != 0 {
			lastAttr = attr
		}
		if err != nil {
			sw.releaseQueued(queue)
			if f, ok := err.(*PacketFault); ok {
				return nil, nil, sw.fault(f)
			}
			return nil, nil, err
		}
		if outputs == nil {
			outputs = emitted
		} else {
			outputs = append(outputs, emitted...)
		}
		queue = append(queue, next...)
	}
	sw.stats.packetsOut.Add(int64(len(outputs)))
	if len(outputs) == 0 {
		sw.stats.packetsDropped.Add(1)
	}
	tr.Outputs = outputs
	return outputs, tr, nil
}

// runPassContained executes one pass with panic recovery: a panic anywhere
// in parse/pipeline/deparse becomes a FaultPanic. The panicking packet state
// is abandoned rather than repooled (it may be mid-mutation), as are any
// clone states staged for follow-on passes; both are reclaimed by GC and the
// pool re-allocates on demand.
func (sw *Switch) runPassContained(p pass, tr *Trace) (outputs []Output, next []pass, attr uint64, err error) {
	var cur *packetState
	defer func() {
		if r := recover(); r != nil {
			if cur != nil {
				attr = sw.attrOf(cur)
			}
			outputs, next = nil, nil
			err = &PacketFault{
				Kind: FaultPanic, Port: p.port, Attr: attr,
				Msg: fmt.Sprintf("sim: recovered panic in pipeline: %v", r), //hp4:allow hotpath (panic recovery path)
			}
		}
	}()
	return sw.runPass(p, tr, &cur)
}

// releaseQueued returns the states of abandoned clone passes to the pool.
func (sw *Switch) releaseQueued(queue []pass) {
	for _, p := range queue {
		if p.state != nil {
			sw.putState(p.state)
		}
	}
}

// failPass reads the attribution value, repools the state, and wraps a stage
// error into a PacketFault of the given kind. The attribution must be read
// before the state returns to the pool (repooled states are reused
// concurrently).
func (sw *Switch) failPass(ps *packetState, kind FaultKind, port int, err error) (uint64, *PacketFault) {
	attr := sw.attrOf(ps)
	sw.putState(ps)
	return attr, &PacketFault{Kind: kind, Port: port, Attr: attr, Msg: err.Error(), err: err}
}

// dropQuarantined repools the state of a pass aborted by quarantine
// enforcement and counts the drop. Not a fault: quarantine drops are the
// containment working as intended.
func (sw *Switch) dropQuarantined(ps *packetState) uint64 {
	attr := sw.attrOf(ps)
	sw.metrics.quarDrops.Add(1)
	sw.putState(ps)
	return attr
}

// runPass executes one pipeline pass and returns emitted packets, follow-on
// passes (resubmits, recirculations, clones), and the attribution value
// observed for the pass. The pass's packet state is returned to the pool
// before runPass returns; follow-on clone passes carry their own freshly
// cloned states. *cur tracks the live state so the panic recovery in
// runPassContained can attribute a fault raised mid-pass.
func (sw *Switch) runPass(p pass, tr *Trace, cur **packetState) ([]Output, []pass, uint64, error) {
	var ps *packetState
	var followOn []pass

	if p.egressOnly {
		ps = p.state
		*cur = ps
		ps.setStdMeta(stdEgressPort, uint64(p.egressPort))
		ps.setStdMeta(stdEgressSpec, uint64(p.egressPort))
	} else {
		ps = sw.getState(p.data, p.port)
		*cur = ps
		ps.setStdMeta(stdInstanceType, p.instanceType)
		ps.restorePreserved(p.preserved)
		if err := sw.parse(ps, tr); err != nil {
			attr, f := sw.failPass(ps, FaultParse, p.port, err)
			return nil, nil, attr, f
		}
		if ing := sw.code.ingress; ing != nil {
			if err := sw.runStmts(ing.body, ps, tr); err != nil {
				if errors.Is(err, errQuarantined) {
					return nil, nil, sw.dropQuarantined(ps), nil
				}
				attr, f := sw.failPass(ps, FaultPipeline, p.port, err)
				return nil, nil, attr, f
			}
		}
		// End of ingress: resubmit wins over forwarding.
		if ps.resubmitRaised {
			sw.stats.resubmits.Add(1)
			tr.Resubmits++
			preserved, err := ps.capturePreserved(ps.resubmitList)
			attr := sw.attrOf(ps)
			sw.putState(ps)
			if err != nil {
				return nil, nil, attr, &PacketFault{Kind: FaultPipeline, Port: p.port, Attr: attr, Msg: err.Error(), err: err}
			}
			return nil, []pass{{data: p.data, port: p.port, preserved: preserved, instanceType: instResubmit}}, attr, nil
		}
		if ps.cloneI2ERaised {
			sw.stats.clones.Add(1)
			tr.ClonesI2E++
			mirrorPort, ok := sw.mirrors[ps.cloneI2ESession]
			if ok {
				// cloneForEgress clears the parent's pending drop/resubmit/
				// recirculate/clone flags: an ingress drop must not drop the
				// mirror copy. bmv2 copies all metadata for i2e clones; we
				// keep the full copy, matching bmv2.
				cl := ps.cloneForEgress()
				cl.setStdMeta(stdInstanceType, instCloneI2E)
				followOn = append(followOn, pass{egressOnly: true, state: cl, egressPort: mirrorPort})
			}
		}
		spec := ps.stdMetaUint(stdEgressSpec)
		if spec == hlir.DropSpec {
			attr := sw.attrOf(ps)
			sw.putState(ps)
			return nil, followOn, attr, nil
		}
		ps.setStdMeta(stdEgressPort, spec)
	}

	// Egress pipeline.
	ps.inEgress = true
	if eg := sw.code.egress; eg != nil {
		if err := sw.runStmts(eg.body, ps, tr); err != nil {
			sw.releaseQueued(followOn)
			if errors.Is(err, errQuarantined) {
				return nil, nil, sw.dropQuarantined(ps), nil
			}
			attr, f := sw.failPass(ps, FaultPipeline, p.port, err)
			return nil, nil, attr, f
		}
	}
	if ps.cloneE2ERaised {
		sw.stats.clones.Add(1)
		tr.ClonesE2E++
		if mirrorPort, ok := sw.mirrors[ps.cloneE2ESession]; ok {
			cl := ps.cloneForEgress()
			cl.setStdMeta(stdInstanceType, instCloneE2E)
			followOn = append(followOn, pass{egressOnly: true, state: cl, egressPort: mirrorPort})
		}
	}
	outBytes, err := sw.deparse(ps)
	if err != nil {
		sw.releaseQueued(followOn)
		attr, f := sw.failPass(ps, FaultDeparse, p.port, err)
		return nil, nil, attr, f
	}
	if ps.recircRaised {
		sw.stats.recirculates.Add(1)
		tr.Recirculates++
		preserved, err := ps.capturePreserved(ps.recircList)
		port := int(ps.stdMetaUint(stdIngressPort))
		attr := sw.attrOf(ps)
		sw.putState(ps)
		if err != nil {
			sw.releaseQueued(followOn)
			return nil, nil, attr, &PacketFault{Kind: FaultPipeline, Port: p.port, Attr: attr, Msg: err.Error(), err: err}
		}
		return nil, append(followOn, pass{data: outBytes, port: port, preserved: preserved, instanceType: instRecirculate}), attr, nil
	}
	dropped := ps.dropped
	port := int(ps.stdMetaUint(stdEgressPort))
	attr := sw.attrOf(ps)
	sw.putState(ps)
	if dropped {
		return nil, followOn, attr, nil
	}
	return []Output{{Port: port, Data: outBytes}}, followOn, attr, nil
}
