package fuse

import (
	"encoding/binary"
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
)

// segment is one journaled pipeline pass. A fused packet's passes form a
// chain — parse resubmissions, then a recirculation into the next plan —
// so the run phase appends them in the interpreter's pass order, and the
// commit phase replays them in that order, so meter executions, entry
// hits, and the emitted output interleave identically.
type segment struct {
	pid     int   // owning vdev: meter/counter index
	inst    int   // segNormal/segResubmit/segRecirc
	dataLen int   // this pass's packet byte count (the meter/counter amount)
	norm    int32 // t_norm hit in Engine.entries
	assign  int32 // t_assign hit, root pass only; 0 elsewhere
	lo, hi  int   // post-police hit runs: execState.jr[lo:hi]
	outPort int
	outData []byte // non-nil: this pass emits an output (unless policed red)
}

// walkJob is one walk: a packet entering a plan, either from a physical
// port (the root) or recirculated across a virtual link. A nil p is no
// walk: the packet's last walk ended.
type walkJob struct {
	p      *plan
	ving   uint64
	data   []byte
	inst   int   // instance kind of the walk's first pass
	assign int32 // root walk only
}

// run is one journaled stretch of entry hits: Engine.entries[lo:hi], a
// whole journal unit (see Engine.entries).
type run struct{ lo, hi int32 }

// execState is the pooled scratch of one burst: the extracted-data and
// emulated-metadata wide fields, a staging buffer for overlapping copies,
// the segment/journal storage a packet's run phase fills and its commit
// phase replays, the link-hop buffers recirculating walks deparse into, and
// the tally the burst's commits write into. Only the bytes of outputs on
// physical ports escape a packet; they alone are freshly allocated. The
// hit journal is pointer-free: a fused row's hits are one run of the
// engine's entry table, journaled as two indices. An execState is a
// sim.FastBurst: BeginBurst takes one from the engine's pool, Flush
// returns it.
type execState struct {
	eng *Engine

	ext  bitfield.Value
	meta bitfield.Value
	tmp  bitfield.Value
	key  []byte   // masked lookup key, sized for the widest field so lookups never grow it
	pair [16]byte // a std lookup's (vingress, vport) key

	segs []segment
	jr   []run // hit journal; segments hold [lo,hi) ranges into it

	// bufs[:nbufs] hold this packet's link-hop bytes, one buffer per walk
	// that recirculated. A buffer is only read after it is written, by the
	// walk it feeds, so stale bytes of earlier packets left in bufs are
	// never observed.
	bufs  [][]byte
	nbufs int

	tally
}

// tally is a burst's deferred commutative effects: entry hits, CounterVDev
// cells and the fused packet count. Commit writes here instead of into
// shared state, and Flush applies the whole burst at once: one atomic add
// per entry the burst hit, one counter update per touched PID, one add to
// the engine's hit count. Meter executions are not deferred: a red verdict
// prunes the rest of the packet, so they run in commit, in pass order.
type tally struct {
	// touched lists the journal units the burst hit, once each, at their
	// first hit; hits counts a unit's hits at the unit's first index in
	// Engine.entries, and is zero between flushes.
	touched []run
	hits    []uint32
	ctr     [meterInstances]ctrCell // CounterVDev packets and bytes per PID
	pids    []int32                 // PIDs with a non-zero ctr cell
	fused   uint64                  // packets the burst fully handled
}

type ctrCell struct{ packets, bytes uint64 }

func newExecState(eng *Engine) *execState {
	return &execState{
		eng:   eng,
		ext:   bitfield.New(eng.ew),
		meta:  bitfield.New(persona.MetaWidth),
		tmp:   bitfield.New(eng.ew),
		key:   make([]byte, 0, (max(eng.ew, persona.MetaWidth)+7)/8+16),
		tally: tally{hits: make([]uint32, len(eng.entries))},
	}
}

// hit tallies one hit of the journal unit r: every entry in it.
func (t *tally) hit(r run) {
	if t.hits[r.lo] == 0 {
		t.touched = append(t.touched, r)
	}
	t.hits[r.lo]++
}

// count tallies one CounterVDev update of pid's cell.
func (t *tally) count(pid, bytes int) {
	c := &t.ctr[pid]
	if c.packets == 0 {
		t.pids = append(t.pids, int32(pid))
	}
	c.packets++
	c.bytes += uint64(bytes)
}

// release drops every pointer the packet accumulated — its output bytes —
// so pooled state cannot retain outputs across packets. The journal holds
// indices, not entries, so it is truncated without clearing. The link-hop
// buffers are kept for the next packet, earlier packets' bytes and all:
// they hold no pointers and are private to the engine. The tally is the
// burst's, not the packet's: Flush empties it.
func (st *execState) release() {
	st.jr = st.jr[:0]
	for i := range st.segs {
		st.segs[i] = segment{}
	}
	st.segs = st.segs[:0]
	st.nbufs = 0
}

// RunFast implements sim.FastHandler: one packet as a one-packet burst —
// begin, run, flush.
func (eng *Engine) RunFast(sw *sim.Switch, data []byte, port int) (sim.FastResult, bool) {
	st := eng.pool.Get().(*execState)
	res, ok := st.RunFast(sw, data, port)
	st.Flush()
	return res, ok
}

// BeginBurst implements sim.FastHandler: it opens a burst on pooled
// scratch with an empty tally.
//
//hp4:hotpath
func (eng *Engine) BeginBurst() sim.FastBurst { return eng.pool.Get().(*execState) }

// RunFast runs one packet of the burst: it either fully processes the
// packet through the fused plans (running the meter the interpreter would,
// and tallying exactly the entry hits and counter bumps it would record)
// or declines, leaving no trace.
//
//hp4:hotpath
func (st *execState) RunFast(sw *sim.Switch, data []byte, port int) (sim.FastResult, bool) {
	eng := st.eng
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
	// Deferred so a panic inside run (swallowed as a decline by the
	// switch) cannot leave the next packet of the burst dirty scratch, and
	// so pooled state never retains output or job pointers.
	defer st.release()
	res, ok := eng.run(pb, st, data)
	if ok {
		st.fused++
	}
	return res, ok
}

// Flush applies the burst's tally and returns its scratch to the pool; the
// burst must not be used after. The switch calls it before releasing the
// read lock the burst ran under.
//
//hp4:hotpath
func (st *execState) Flush() {
	eng := st.eng
	for _, r := range st.touched {
		n := int64(st.hits[r.lo])
		st.hits[r.lo] = 0
		for _, e := range eng.entries[r.lo:r.hi] {
			e.RecordHits(n)
		}
	}
	st.touched = st.touched[:0]
	for _, pid := range st.pids {
		c := &st.ctr[pid]
		// The PID is in the counter's range: Build fuses none past it.
		_ = eng.counter.Add(int(pid), c.packets, c.bytes)
		*c = ctrCell{}
	}
	st.pids = st.pids[:0]
	if st.fused > 0 {
		eng.hits.Add(st.fused)
		st.fused = 0
	}
	eng.pool.Put(st)
}

// run is the pure phase: it simulates every pass of the packet — including
// walks chained across virtual links — without touching shared state,
// journaling the entry hits each pass would record. Only when the packet's
// whole fate is decided does commit apply the journal, so declining at any
// point before commit is free of side effects.
func (eng *Engine) run(pb *portBind, st *execState, data []byte) (sim.FastResult, bool) {
	job := walkJob{p: pb.plan, ving: pb.vingress, data: data, inst: segNormal, assign: pb.assign}
	for job.p != nil {
		var ok bool
		if job, ok = eng.walk(st, job); !ok {
			return sim.FastResult{}, false
		}
	}
	return eng.commit(st)
}

// walk simulates one plan traversal: the parse loop, the stage walk, and
// the virtual-network dispatch. It returns the walk a crossed virtual link
// starts in the target plan, or a zero walkJob when the packet's walks
// end; false declines the whole packet.
func (eng *Engine) walk(st *execState, job walkJob) (walkJob, bool) {
	p := job.p

	// Parse loop: each iteration is one pipeline pass. n carries the
	// a_parse_more request, as the byte count the parser lands on, across
	// the (virtual) resubmission.
	n := p.defaultBytes
	ps := p.parse0
	var fin *prow
	parsed, consumed := 0, 0
	seg := segment{pid: p.pid, inst: job.inst, dataLen: len(job.data), assign: job.assign}
	var cur *segment // the walk's latest pass, the last segment
	for {
		if len(st.segs) >= sim.MaxPasses {
			// The interpreter faults at the pass bound; let it.
			return walkJob{}, false
		}
		// A supported count whose t_norm row is missing would MISS in the
		// interpreter (t_norm reads hp4.parsed exact) — decline rather than
		// silently normalize at the default width.
		if seg.norm = at(eng.norm, n); seg.norm == 0 {
			return walkJob{}, false
		}
		seg.lo = len(st.jr)
		st.segs = append(st.segs, seg)
		cur = &st.segs[len(st.segs)-1]
		seg.inst, seg.assign = segResubmit, 0

		take := len(job.data)
		if take > n {
			take = n
		}
		st.ext.SetPrefixBytes(job.data[:take])
		var row *prow
		if ps != nil {
			if r, ok := ps.ix.Lookup(st.ext.View(), &st.key); ok {
				row = &ps.rows[r]
			}
		}
		if row == nil {
			// Parse miss: no stage walk, t_virtnet applied with vport=0.
			st.journal(p.vdrop0)
			cur.hi = len(st.jr)
			return walkJob{}, true
		}
		st.journal(row.ent)
		if row.more {
			// a_parse_more resubmits; this pass still traverses t_virtnet
			// with vport=0 before the resubmission takes effect.
			st.journal(p.vdrop0)
			cur.hi = len(st.jr)
			n = row.window
			ps = row.next
			continue
		}
		fin = row
		parsed, consumed = n, take
		break
	}

	// Stage walk on the final pass.
	st.meta.Zero()
	ving := job.ving
	vport := uint64(0)
	dropped := false
	for fs := fin.first; fs != nil; {
		r := fs.lookup(st, ving, vport)
		if r == nil {
			break
		}
		st.jr = append(st.jr, run{r.lo, r.hi})
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
		fs = r.next
	}

	// Virtual networking + egress. A vnet miss applies the table default
	// (a_vdrop, no entry hit).
	var next walkJob
	if vr := p.vnet[vport]; !dropped && vr != nil {
		st.journal(vr.ent)
		switch vr.Kind {
		case rows.RouteDrop:
		case rows.RoutePhys:
			buf, ok := eng.egress(st, p, fin, job.data, parsed, consumed, false)
			if !ok {
				return walkJob{}, false
			}
			cur.outPort, cur.outData = vr.Port, buf
		case rows.RouteVirt:
			// Cross-plan call: the packet traverses egress (checksum,
			// resize, writeback), then recirculates into the target plan
			// with the deparsed bytes and a fresh parse loop — the
			// link-time analysis already bounded the chain. An unresolved
			// target (vdev not fused) declines before any side effect.
			if vr.target == nil {
				return walkJob{}, false
			}
			buf, ok := eng.egress(st, p, fin, job.data, parsed, consumed, true)
			if !ok {
				return walkJob{}, false
			}
			next = walkJob{p: vr.target, ving: vr.VIn, data: buf, inst: segRecirc}
		default:
			// A multicast route declines: its clone-and-recirculate
			// fan-out runs in the interpreter only.
			return walkJob{}, false
		}
	}
	cur.hi = len(st.jr)
	return next, true
}

// egress journals the egress-side hits of a walk's final pass — checksum
// (when the parse row armed it), resize, writeback — and returns the
// deparsed bytes, declining when a required row is missing. A recirculating
// walk (hop) deparses into the next pooled link-hop buffer; bytes leaving on
// a physical port get a fresh allocation, because they escape as a
// sim.Output.
func (eng *Engine) egress(st *execState, p *plan, fin *prow, data []byte, parsed, consumed int, hop bool) ([]byte, bool) {
	if fin.csum && p.csum != nil {
		st.fixCsum(p.csum)
		st.journal(p.csumEnt)
	}
	eg := at(eng.resize, parsed)
	if eg == 0 {
		return nil, false
	}
	st.jr = append(st.jr, run{eg, eg + 2})
	n := parsed + len(data) - consumed
	var buf []byte
	if hop {
		buf = st.hopBuf(n)
	} else {
		buf = make([]byte, 0, n)
	}
	buf = st.ext.AppendSliceTo(buf, 0, parsed*8)
	buf = append(buf, data[consumed:]...)
	return buf, true
}

// journal journals the single entry eng.entries[i].
func (st *execState) journal(i int32) { st.jr = append(st.jr, run{i, i + 1}) }

// at returns tab[n], or 0 — no row — when n is out of range.
func at(tab []int32, n int) int32 {
	if uint(n) < uint(len(tab)) {
		return tab[n]
	}
	return 0
}

// hopBuf returns the packet's next link-hop buffer, empty with room for n
// bytes, growing the pooled buffer when an earlier packet's was smaller.
func (st *execState) hopBuf(n int) []byte {
	if st.nbufs == len(st.bufs) {
		st.bufs = append(st.bufs, nil)
	}
	b := &st.bufs[st.nbufs]
	st.nbufs++
	if cap(*b) < n {
		*b = make([]byte, 0, n)
	}
	return (*b)[:0]
}

// commit replays the packet's passes in order, interleaved with the
// policing meter exactly as the interpreted ingress runs it: t_norm (and,
// on the root pass, t_assign) hit first, then a_police's meter + counter,
// then — only if the verdict isn't red — the rest of the pass. A red
// verdict prunes that pass's entry hits and output and every later pass,
// exactly where the interpreter's policing guard would have. The meter
// runs here, per pass; the entry hits and counter bumps go into the
// burst's tally, which Flush applies.
func (eng *Engine) commit(st *execState) (sim.FastResult, bool) {
	var res sim.FastResult
	for i := range st.segs {
		s := &st.segs[i]
		switch s.inst {
		case segResubmit:
			res.Resubmits++
		case segRecirc:
			res.Recirculates++
		}
		st.hit(run{s.norm, s.norm + 1})
		if s.assign != 0 {
			st.hit(run{s.assign, s.assign + 1})
		}
		color, err := eng.meter.Execute(s.pid, s.dataLen)
		st.count(s.pid, s.dataLen)
		if err == nil && color == sim.MeterRed {
			break
		}
		for _, r := range st.jr[s.lo:s.hi] {
			st.hit(r)
		}
		if s.outData != nil {
			res.Outputs = append(res.Outputs, sim.Output{Port: s.outPort, Data: s.outData})
		}
	}
	return res, true
}

// lookup returns the slot's first matching row in precedence order — by
// construction the same row the interpreter's lookup would pick.
func (fs *fusedSlot) lookup(st *execState, ving, vport uint64) *frow {
	key := st.ext.View()
	switch fs.kind {
	case matchMeta:
		key = st.meta.View()
	case matchStd:
		binary.BigEndian.PutUint64(st.pair[:8], ving)
		binary.BigEndian.PutUint64(st.pair[8:], vport)
		key = st.pair[:]
	}
	if r, ok := fs.ix.Lookup(key, &st.key); ok {
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
