package fuse

import (
	"hyper4/internal/bitfield"
	"hyper4/internal/core/persona"
	"hyper4/internal/core/persona/rows"
	"hyper4/internal/sim"
)

// Segment instance kinds, mirroring the interpreter's pass types for
// metrics and stats conservation.
const (
	segNormal = iota
	segResubmit
	segRecirc
	segClone
)

// segment is one journaled pipeline pass. The run phase builds a tree of
// segments shaped exactly like the interpreter's pass graph — parser passes
// chain through child[0] (resubmission), a final pass's child[0] is its
// egress-to-egress clone and child[1] its recirculation into the next
// plan — and the commit phase replays it in the interpreter's BFS order so
// meter executions, entry hits, and emitted outputs interleave identically.
type segment struct {
	pid     int  // owning vdev: meter/counter index for parser passes
	inst    int  // segNormal/segResubmit/segRecirc/segClone
	parser  bool // parser passes hit t_norm and run the policing meter
	dataLen int  // this pass's packet byte count (the meter/counter amount)
	norm    *sim.Entry
	assign  *sim.Entry // t_assign hit, root pass only
	lo, hi  int        // post-police hit range into execState.jr
	outPort int
	outData []byte // non-nil: this pass emits an output (unless policed red)
	child   [2]int // follow-on segments in queue-push order, -1 when absent
}

// walkJob is one pending walk: a packet entering a plan, either from a
// physical port (the root) or recirculated across a virtual link.
type walkJob struct {
	p      *plan
	ving   uint64
	data   []byte
	inst   int        // instance kind of the walk's first pass
	assign *sim.Entry // root walk only
	parent int        // segment whose child[slot] this walk's first pass becomes
	slot   int
}

// execState is the pooled per-packet scratch: the extracted-data and
// emulated-metadata wide fields, a staging buffer for overlapping copies,
// and the segment/journal/job storage the run phase fills and the commit
// phase replays. Only output buffers escape the packet.
type execState struct {
	ext  bitfield.Value
	meta bitfield.Value
	tmp  bitfield.Value
	key  []byte // masked lookup key, sized for the widest field so lookups never grow it

	segs  []segment
	jr    []*sim.Entry // hit journal; segments hold [lo,hi) ranges into it
	jobs  []walkJob
	queue []int // commit-phase BFS queue
}

func newExecState(ew int) *execState {
	return &execState{
		ext:  bitfield.New(ew),
		meta: bitfield.New(persona.MetaWidth),
		tmp:  bitfield.New(ew),
		key:  make([]byte, 0, (max(ew, persona.MetaWidth)+7)/8+16),
	}
}

// release drops every pointer the packet accumulated — journaled *sim.Entry
// hits, segment entries, output and job buffers — so pooled state cannot
// retain deleted entries or packet data across packets.
func (st *execState) release() {
	for i := range st.jr {
		st.jr[i] = nil
	}
	st.jr = st.jr[:0]
	for i := range st.segs {
		st.segs[i] = segment{}
	}
	st.segs = st.segs[:0]
	for i := range st.jobs {
		st.jobs[i] = walkJob{}
	}
	st.jobs = st.jobs[:0]
	st.queue = st.queue[:0]
}

// RunFast implements sim.FastHandler: it either fully processes the packet
// through the fused plans (recording exactly the hits, meter executions and
// counter bumps the interpreter would) or declines, leaving no trace.
//
//hp4:hotpath
func (eng *Engine) RunFast(sw *sim.Switch, data []byte, port int) (res sim.FastResult, ok bool) {
	if sw.Generation() != eng.gen {
		return sim.FastResult{}, false
	}
	if port < 0 || port >= len(eng.ports) {
		return sim.FastResult{}, false
	}
	pb := &eng.ports[port]
	if pb.plan == nil {
		return sim.FastResult{}, false
	}
	// Quarantined, probing, and bypassed vdevs all sit in the quarantine
	// table; their packets need the interpreter's containment accounting.
	// The whole reachable chain is checked: a fused walk may cross into any
	// of these plans.
	for _, pid := range pb.plan.chain {
		if _, contained := sw.QuarantineRemaining(uint64(pid)); contained {
			return sim.FastResult{}, false
		}
	}
	st := eng.pool.Get().(*execState)
	// Deferred so a panic inside run (swallowed as a decline by sim.runFast)
	// cannot leak the scratch state, and so pooled state never retains
	// journal pointers.
	defer func() {
		st.release()
		eng.pool.Put(st)
	}()
	res, ok = eng.run(pb, st, sw, data)
	if ok {
		eng.hits.Add(1)
	}
	return res, ok
}

// run is the pure phase: it simulates every pass of the packet — including
// walks chained across virtual links and multicast clone expansions —
// without touching shared state, journaling the entry hits each pass would
// record. Only when the packet's whole fate is decided does commit apply
// the journal, so declining at any point before commit is free of side
// effects.
func (eng *Engine) run(pb *portBind, st *execState, sw *sim.Switch, data []byte) (sim.FastResult, bool) {
	st.jobs = append(st.jobs, walkJob{
		p: pb.plan, ving: pb.vingress, data: data,
		inst: segNormal, assign: pb.assign, parent: -1,
	})
	for j := 0; j < len(st.jobs); j++ {
		job := st.jobs[j] // copy: walk may append and reallocate st.jobs
		if !eng.walk(st, job) {
			return sim.FastResult{}, false
		}
	}
	return eng.commit(st, sw)
}

// walk simulates one plan traversal: the parse loop, the stage walk, and
// the virtual-network dispatch. Crossing a virtual link enqueues a new walk
// against the target plan; a multicast route additionally synthesizes the
// clone-pass segments. Returns false to decline the whole packet.
func (eng *Engine) walk(st *execState, job walkJob) bool {
	p := job.p

	// Parse loop: each iteration is one pipeline pass. n carries the
	// a_parse_more request, as the byte count the parser lands on, across
	// the (virtual) resubmission.
	n := p.defaultBytes
	state := uint64(0)
	var fin *rows.ParseRow
	parsed, consumed := 0, 0
	inst := job.inst
	prev, finIdx := -1, -1
	for {
		if len(st.segs) >= sim.MaxPasses {
			// The interpreter faults at the pass bound; let it.
			return false
		}
		idx := len(st.segs)
		st.segs = append(st.segs, segment{
			pid: p.pid, inst: inst, parser: true, dataLen: len(job.data),
			lo: len(st.jr), child: [2]int{-1, -1},
		})
		if prev < 0 {
			st.segs[idx].assign = job.assign
			if job.parent >= 0 {
				st.segs[job.parent].child[job.slot] = idx
			}
		} else {
			st.segs[prev].child[0] = idx
		}
		inst = segResubmit

		// A supported count whose t_norm row is missing would MISS in the
		// interpreter (t_norm reads hp4.parsed exact) — decline rather than
		// silently normalize at the default width.
		ne := p.normBy[n]
		if ne == nil {
			return false
		}
		st.segs[idx].norm = ne
		take := len(job.data)
		if take > n {
			take = n
		}
		st.ext.SetPrefixBytes(job.data[:take])
		var row *rows.ParseRow
		if ps := p.parseBy[state]; ps != nil {
			if r := ps.ix.lookup(&st.key, st.ext, 0, 0); r >= 0 {
				row = &ps.rows[r]
			}
		}
		if row == nil {
			// Parse miss: no stage walk, t_virtnet applied with vport=0.
			st.jr = append(st.jr, p.vdrop0)
			st.segs[idx].hi = len(st.jr)
			return true
		}
		st.jr = append(st.jr, row.Entry)
		if row.More {
			// a_parse_more resubmits; this pass still traverses t_virtnet
			// with vport=0 before the resubmission takes effect.
			st.jr = append(st.jr, p.vdrop0)
			st.segs[idx].hi = len(st.jr)
			n = row.Window
			state = row.Next
			prev = idx
			continue
		}
		fin = row
		parsed, consumed = n, take
		finIdx = idx
		break
	}

	// Stage walk on the final pass.
	st.meta.Zero()
	ving := job.ving
	vport := uint64(0)
	dropped := false
	kind, id := fin.Kind, fin.Slot
	curStage := 0
	for kind != persona.NTDone {
		fs := p.slots[slotKey(kind, uint64(id))]
		// A successor at or before the current stage can never be applied:
		// the interpreter's remaining stage tables don't hold its rows.
		if fs == nil || fs.stage <= curStage {
			break
		}
		curStage = fs.stage
		r := fs.lookup(st, ving, vport)
		if r == nil {
			break
		}
		st.jr = append(st.jr, r.hits...)
		for i := range r.ops {
			op := &r.ops[i]
			switch op.Code {
			case persona.OpNoOp:
			case persona.OpDrop:
				dropped = true
				vport = persona.VPortDrop
			case persona.OpModVPortConst:
				vport = op.Const & (1<<persona.VPortWidth - 1)
			case persona.OpModVPortVIngress:
				vport = ving
			case persona.OpModEDConst, persona.OpModMetaConst:
				st.setConst(op)
			case persona.OpModEDED, persona.OpModEDMeta, persona.OpModMetaED, persona.OpModMetaMeta:
				st.copyField(op)
			case persona.OpAddEDConst, persona.OpAddMetaConst:
				dst := st.store(op.Dst)
				x := dst.UintAt(op.DstOff, op.DstW) + op.Const
				dst.InsertUint(op.DstOff, op.DstW, x)
			}
		}
		kind, id = r.nextKind, r.nextID
	}

	// Virtual networking + egress. A vnet miss applies the table default
	// (a_vdrop, no entry hit).
	if dropped {
		st.segs[finIdx].hi = len(st.jr)
		return true
	}
	vr := p.vnet[vport]
	if vr == nil {
		st.segs[finIdx].hi = len(st.jr)
		return true
	}
	st.jr = append(st.jr, vr.Entry)
	switch vr.Kind {
	case rows.RouteDrop:
		st.segs[finIdx].hi = len(st.jr)
		return true
	case rows.RoutePhys:
		buf, ok := eng.egress(st, p, fin, job.data, parsed, consumed)
		if !ok {
			return false
		}
		st.segs[finIdx].outPort = vr.Port
		st.segs[finIdx].outData = buf
		st.segs[finIdx].hi = len(st.jr)
		return true
	case rows.RouteVirt:
		// Cross-plan call: the packet traverses egress (checksum, resize,
		// writeback), then recirculates into the target plan with the
		// deparsed bytes and a fresh parse loop — the link-time analysis
		// already bounded the chain. An unresolved target (vdev not fused)
		// declines before any side effect.
		if vr.target == nil {
			return false
		}
		buf, ok := eng.egress(st, p, fin, job.data, parsed, consumed)
		if !ok {
			return false
		}
		st.segs[finIdx].hi = len(st.jr)
		st.jobs = append(st.jobs, walkJob{
			p: vr.target, ving: vr.VIn, data: buf,
			inst: segRecirc, parent: finIdx, slot: 1,
		})
		return true
	case rows.RouteMcast:
		// Multicast fan-out: the original pass hits the orig row and
		// recirculates into the first target; each egress-to-egress clone
		// re-runs egress on identical bytes (checksum recompute is
		// idempotent), hits its step row, and recirculates into its own
		// target. One chained walk per leaf.
		if vr.bad || vr.target == nil {
			return false
		}
		for _, t := range vr.targets {
			if t == nil {
				return false
			}
		}
		buf, ok := eng.egress(st, p, fin, job.data, parsed, consumed)
		if !ok {
			return false
		}
		st.jr = append(st.jr, vr.Orig)
		st.segs[finIdx].hi = len(st.jr)
		st.jobs = append(st.jobs, walkJob{
			p: vr.target, ving: vr.VIn, data: buf,
			inst: segRecirc, parent: finIdx, slot: 1,
		})
		prevSeg := finIdx
		for i := range vr.Steps {
			stp := &vr.Steps[i]
			if len(st.segs) >= sim.MaxPasses {
				return false
			}
			cidx := len(st.segs)
			st.segs = append(st.segs, segment{
				pid: p.pid, inst: segClone,
				lo: len(st.jr), child: [2]int{-1, -1},
			})
			st.segs[prevSeg].child[0] = cidx
			if fin.Csum && p.csum != nil {
				st.jr = append(st.jr, p.csum.Entry)
			}
			st.jr = append(st.jr, p.resizeBy[parsed], p.wbBy[parsed], stp.Entry)
			st.segs[cidx].hi = len(st.jr)
			st.jobs = append(st.jobs, walkJob{
				p: vr.targets[i], ving: stp.VIn, data: buf,
				inst: segRecirc, parent: cidx, slot: 1,
			})
			prevSeg = cidx
		}
		return true
	}
	return false
}

// egress journals the egress-side hits of a walk's final pass — checksum
// (when the parse row armed it), resize, writeback — and returns the
// deparsed bytes, declining when a required row is missing.
func (eng *Engine) egress(st *execState, p *plan, fin *rows.ParseRow, data []byte, parsed, consumed int) ([]byte, bool) {
	if fin.Csum && p.csum != nil {
		st.fixCsum(p.csum)
		st.jr = append(st.jr, p.csum.Entry)
	}
	re, wb := p.resizeBy[parsed], p.wbBy[parsed]
	if re == nil || wb == nil {
		return nil, false
	}
	st.jr = append(st.jr, re, wb)
	buf := make([]byte, 0, parsed+len(data)-consumed)
	buf = st.ext.AppendSliceTo(buf, 0, parsed*8)
	buf = append(buf, data[consumed:]...)
	return buf, true
}

// commit replays the segment tree in the interpreter's BFS pass order,
// interleaved with the policing meter exactly as the interpreted ingress
// runs it: t_norm (and, on the root pass, t_assign) hit first, then
// a_police's meter + counter, then — only if the verdict isn't red — the
// rest of the pass. A red verdict prunes that pass's entry hits, output,
// and every follow-on pass, exactly where the interpreter's policing guard
// would have; sibling passes already queued continue unaffected.
func (eng *Engine) commit(st *execState, sw *sim.Switch) (sim.FastResult, bool) {
	var res sim.FastResult
	st.queue = append(st.queue[:0], 0)
	for head := 0; head < len(st.queue); head++ {
		s := &st.segs[st.queue[head]]
		switch s.inst {
		case segResubmit:
			res.Resubmits++
		case segRecirc:
			res.Recirculates++
		case segClone:
			res.Clones++
		}
		if s.parser {
			s.norm.RecordHit()
			if s.assign != nil {
				s.assign.RecordHit()
			}
			color, err := sw.FastMeterExecute(persona.MeterIngress, s.pid, s.dataLen)
			_ = sw.FastCounterInc(persona.CounterVDev, s.pid, s.dataLen)
			if err == nil && color == 2 {
				continue
			}
		}
		for _, e := range st.jr[s.lo:s.hi] {
			e.RecordHit()
		}
		if s.outData != nil {
			res.Outputs = append(res.Outputs, sim.Output{Port: s.outPort, Data: s.outData})
		}
		if s.child[0] >= 0 {
			st.queue = append(st.queue, s.child[0])
		}
		if s.child[1] >= 0 {
			st.queue = append(st.queue, s.child[1])
		}
	}
	return res, true
}

// lookup returns the slot's first matching row in precedence order — by
// construction the same row the interpreter's lookup would pick.
func (fs *fusedSlot) lookup(st *execState, ving, vport uint64) *frow {
	src := st.ext
	if fs.kind == matchMeta {
		src = st.meta
	}
	if r := fs.ix.lookup(&st.key, src, ving, vport); r >= 0 {
		return fs.rows[r]
	}
	return nil
}

func (st *execState) store(s persona.Store) *bitfield.Value {
	if s == persona.StoreMeta {
		return &st.meta
	}
	return &st.ext
}

// zeroRange clears [off, off+w) in 64-bit chunks without allocating.
func zeroRange(v *bitfield.Value, off, w int) {
	for w > 0 {
		n := w
		if n > 64 {
			n = 64
		}
		v.InsertUint(off, n, 0)
		off += n
		w -= n
	}
}

// setConst writes zext(cval) into dst[off, off+w).
func (st *execState) setConst(op *rows.Op) {
	dst := st.store(op.Dst)
	if op.DstW <= 64 {
		dst.InsertUint(op.DstOff, op.DstW, op.Const)
		return
	}
	zeroRange(dst, op.DstOff, op.DstW-64)
	dst.InsertUint(op.DstOff+op.DstW-64, 64, op.Const)
}

// copyField writes zext/truncate of src[srcOff, srcOff+srcW) into
// dst[dstOff, dstOff+dstW), staging wide copies through tmp so an
// overlapping ed←ed move cannot corrupt itself.
func (st *execState) copyField(op *rows.Op) {
	if op.DstW <= 64 && op.SrcW <= 64 {
		x := st.store(op.Src).UintAt(op.SrcOff, op.SrcW)
		st.store(op.Dst).InsertUint(op.DstOff, op.DstW, x)
		return
	}
	st.store(op.Src).SliceInto(&st.tmp, op.SrcOff, op.SrcW)
	dst := st.store(op.Dst)
	if op.DstW <= op.SrcW {
		dst.InsertBits(op.DstOff, st.tmp, op.SrcW-op.DstW, op.DstW)
		return
	}
	zeroRange(dst, op.DstOff, op.DstW-op.SrcW)
	dst.InsertBits(op.DstOff+op.DstW-op.SrcW, st.tmp, 0, op.SrcW)
}

// fixCsum recomputes the IPv4 header checksum over ten 16-bit words,
// mirroring a_ipv4_csum: zero the checksum word, sum, fold three times,
// complement, write back.
func (st *execState) fixCsum(c *rows.Csum) {
	base := c.Hdr
	var sum uint64
	for k := 0; k < 10; k++ {
		if k == 5 {
			continue // the checksum word itself, zeroed before summing
		}
		sum += st.ext.UintAt(base+16*k, 16)
	}
	for i := 0; i < 3; i++ {
		sum = (sum & 0xffff) + (sum >> 16)
	}
	st.ext.InsertUint(base+80, 16, ^sum&0xffff)
}
