// Package fuse compiles a loaded virtual device's installed persona entries
// into a per-vdev dispatch plan that internal/sim's fast-path hook executes
// without interpreting the persona program (DESIGN.md §13).
//
// The persona pays an emulation tax on every packet: a resubmitting parse
// loop, a table lookup per stage×primitive, and wide-bitfield action bodies
// executed one interpreted primitive at a time. All of that is statically
// determined by the installed entries, which the shared row model
// (internal/core/persona/rows) decodes, so the fuser flattens it once per
// control-plane write batch: each parse state's decisions and each virtual
// table's multi-row persona encoding become one lookup in the mask-grouped
// first-match index the interpreter also uses (internal/tuple), whose cost
// does not grow with the entries installed, and each
// compound action becomes a pre-decoded micro-op sequence run against
// pooled scratch bitfields with no per-pass allocation.
//
// Build links the plan completely: parse rows point at their next parse
// state or first fused table, fused rows at their successor, the
// persona-static t_norm and resize/writeback rows sit in slices indexed by
// byte count, and the policing meter and vdev counter are resolved refs.
// A walk's only lookups are the index probes and one virtual-network route
// per walk. Every persona entry a packet can hit lives once in the
// engine's entry table, each fused row's hits one contiguous run of it, so
// the per-packet hit journal is a list of index runs with no pointers.
//
// Plans link across vdevs: a walk that reaches an a_virt_fwd route jumps
// straight into the target vdev's plan (a fresh parse loop and stage walk
// on the deparsed bytes, exactly as the interpreter's recirculation would),
// and an a_mcast_start route expands into its precomputed clone sequence,
// one chained walk per leaf. The deparsed bytes a walk hands across a link
// live in pooled per-packet scratch (execState.bufs) that later packets
// overwrite; only bytes leaving on a physical port are allocated, and
// they alone become outputs. Chain depth is bounded at build time against
// sim.MaxPasses — a chain the interpreter would fault on refuses to fuse,
// so the fault still fires.
//
// Correctness is anchored on conservation: the fused walk records exactly
// the entry hits, meter executions, and counter bumps the interpreted
// pipeline would have produced. A vdev with a row the model cannot decode
// is not fused, and any construct the plan cannot prove equivalent
// (unfused chain members, undecodable multicast sequences, quarantine
// probing, stale generations) declines the packet to the interpreter
// untouched. The
// differential harness (dpmu's TestFused* suite, also run under
// `make race`) enforces byte-identical behavior.
package fuse

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"hyper4/internal/core/persona"
	"hyper4/internal/core/persona/rows"
	"hyper4/internal/core/verify"
	"hyper4/internal/sim"
	"hyper4/internal/tuple"
)

// MaxPorts is the physical ingress port space (9-bit, matching t_assign).
const MaxPorts = 512

// meterInstances mirrors the persona's MeterIngress/CounterVDev instance
// count; a PID at or past it would fault in the interpreter's policing
// action, so such a vdev is never fused.
const meterInstances = 256

// VDev names one loaded virtual device the builder should try to fuse.
type VDev struct {
	Name string
	PID  int
}

// Engine is a compiled set of per-vdev plans plus the physical-port
// dispatch derived from t_assign. It implements sim.FastHandler. An engine
// is immutable after Build; staleness is detected by comparing the
// switch generation it was built against (see RunFast).
type Engine struct {
	gen   uint64
	ew    int
	plans map[int]*plan
	ports []portBind
	pool  sync.Pool

	// entries is every persona row the plans can journal, each fused row's
	// hits (set_match, then prep and exec per primitive) one contiguous run.
	// Index 0 is nil and means "no row": a journaled hit is an index range
	// into entries, so the per-packet journal holds no pointers. Every
	// index belongs to exactly one journal unit — a fused row's run, a
	// resize/writeback pair, or a single row — so a unit is named by its
	// first index, which is what a burst's tally counts hits by.
	entries []*sim.Entry
	// norm[n] is the t_norm row for a parse of n bytes and resize[n] its
	// te_resize row, with the te_writeback row next to it, both indexed by
	// byte count up to cfg.ParseMax. 0 (or a count past the end) is a row
	// the interpreter would miss: the packet declines.
	norm, resize []int32
	// meter and counter are the policing extern arrays, resolved once.
	meter   sim.MeterRef
	counter sim.CounterRef

	// hits counts packets fully handled by this engine (since Build);
	// declined packets don't count. Operator-visible via the ctl fuse read.
	hits atomic.Uint64
}

// Hits reports how many packets this engine fully processed since it was
// built.
func (eng *Engine) Hits() uint64 { return eng.hits.Load() }

// portBind is the fused t_assign row for one physical ingress port.
type portBind struct {
	plan     *plan
	vingress uint64
	assign   int32 // t_assign row in Engine.entries
}

// plan is one vdev's fused dispatch state, built from its decoded rows
// (internal/core/persona/rows) and linked: a walk follows pointers from
// parse0 through parse rows and fused rows, and its only map lookup is the
// vnet route.
type plan struct {
	pid          int
	name         string
	defaultBytes int
	parse0       *parseState // parse state 0's rows; nil: every packet misses
	vdrop0       int32       // the (pid, vport=0) drop row, hit on parse misses and parse-more passes
	vnet         map[uint64]*vnetRow
	csum         *rows.Csum
	csumEnt      int32 // csum's row in Engine.entries
	// parseBy and slots index the plan's parse states and fused tables for
	// linking; a walk never reads them.
	parseBy map[uint64]*parseState
	slots   map[uint32]*fusedSlot
	// chain is the set of PIDs a packet entering this plan can visit
	// (including this one), across virtual links and multicast steps.
	// RunFast declines when any member is quarantined: containment
	// accounting belongs to the interpreter.
	chain []int
}

// Fused match kinds (collapsed from the persona's six stage-table kinds:
// exact rows are ternary rows with an all-ones mask by install time).
const (
	matchED = iota
	matchMeta
	matchStd
	matchNone
)

// fusedSlot is one virtual table: the rows of its persona stage table that
// belong to this vdev and slot, in match precedence order, sealed into a
// first-match index by rank.
type fusedSlot struct {
	stage int // the persona stage the slot's rows are installed in
	kind  int
	rows  []*frow
	ix    *tuple.Index[int]
}

// seal indexes the slot's rows; Build calls it once the rows are complete.
func (fs *fusedSlot) seal() {
	fs.ix = sealRows(len(fs.rows), func(i int) *rows.Key { return &fs.rows[i].Key }, fs.kind == matchStd)
}

// parseState is one parse state's t_parse_ctrl rows, in precedence order,
// sealed like a fused table.
type parseState struct {
	rows []prow
	ix   *tuple.Index[int]
}

// prow is one linked t_parse_ctrl row. a_parse_more resubmits for window
// bytes into next (nil: a state with no rows, where every packet misses);
// a_parse_done starts the stage walk at first (nil: no table applies) and
// arms the checksum fix-up when csum is set.
type prow struct {
	ent    int32 // the row in Engine.entries
	more   bool
	window int
	next   *parseState
	first  *fusedSlot
	csum   bool
}

// sealRows indexes n rows, key(0)..key(n-1) in match precedence order, by their
// rank. A wide key is the field's bytes; a std key is the (vingress, vport)
// pair as two big-endian uint64s, the layout fusedSlot.lookup probes with.
func sealRows(n int, key func(rank int) *rows.Key, std bool) *tuple.Index[int] {
	var mask, val []byte
	return tuple.Build(cmp.Less[int], n, func(rank int) ([]byte, []byte, int) {
		k := key(rank)
		if !std {
			return k.Mask.View(), k.Val.View(), rank
		}
		mask = binary.BigEndian.AppendUint64(binary.BigEndian.AppendUint64(mask[:0], k.VinMask), k.VpMask)
		val = binary.BigEndian.AppendUint64(binary.BigEndian.AppendUint64(val[:0], k.VinVal), k.VpVal)
		return mask, val, rank
	})
}

// frow is one decoded virtual entry: its match key (wide for matchED /
// matchMeta, the std pair for matchStd), the micro-ops of its pre-bound
// action, its linked successor (nil: the walk ends), and the run
// Engine.entries[lo:hi] of every persona entry the interpreter would have
// hit applying it (set_match + per-primitive prep/exec rows).
type frow struct {
	rows.Key
	ops    []rows.Op
	next   *fusedSlot
	lo, hi int32
}

// vnetRow is one decoded t_virtnet route plus its link-time targets. A
// virtual or multicast route whose target plan is unresolved (target vdev
// not fused), or whose clone sequence stays interpreted (bad), declines at
// runtime.
type vnetRow struct {
	rows.Route
	ent, orig int32   // Entry and (RouteMcast) Orig in Engine.entries
	steps     []int32 // RouteMcast: each step's Entry in Engine.entries
	target    *plan   // the plan the (first) recirculated copy enters
	targets   []*plan // RouteMcast: each step's plan, in clone order
	bad       bool
}

func slotKey(kind int, id uint64) uint32 { return uint32(kind)<<16 | uint32(id&0xffff) }

func unfusable(vdev, table string, handle int, format string, args ...any) verify.Finding {
	return verify.Finding{
		Code:     verify.CodeUnfusable,
		Severity: verify.SevInfo,
		VDev:     vdev,
		Table:    table,
		Handle:   handle,
		Detail:   fmt.Sprintf(format, args...),
	}
}

// Build compiles fused plans for the given vdevs against the switch's
// current table state. It returns the engine (nil when nothing could be
// fused) and informational findings explaining, per vdev, what blocks
// fusion or which constructs stay interpreted. Build only reads — it must
// be called from the control plane (the DPMU holds its own lock), never
// from the data path.
func Build(sw *sim.Switch, cfg persona.Config, vdevs []VDev) (*Engine, []verify.Finding) {
	var findings []verify.Finding
	if cfg.FixedParser {
		findings = append(findings, unfusable("", "", 0,
			"fixed-parser persona: the fast path only fuses the programmable byte-stack parser"))
		return nil, findings
	}
	ew := cfg.ExtractedWidth()
	eng := &Engine{
		gen:    sw.Generation(),
		ew:     ew,
		plans:  map[int]*plan{},
		ports:  make([]portBind, MaxPorts),
		norm:   make([]int32, cfg.ParseMax+1),
		resize: make([]int32, cfg.ParseMax+1),
	}
	// Burst scratch is built lazily, per burst, once the entry table is
	// complete: Build pays nothing for it.
	eng.pool.New = func() any { return newExecState(eng) }
	var err error
	if eng.meter, err = sw.MeterRef(persona.MeterIngress); err == nil {
		eng.counter, err = sw.CounterRef(persona.CounterVDev)
	}
	var t *rows.Tables
	if err == nil {
		t, err = rows.Load(sw, cfg)
	}
	if err != nil {
		findings = append(findings, unfusable("", "", 0, "persona introspection failed: %v", err))
		return nil, findings
	}
	// Decode every vdev up front so the entry table is allocated once.
	models := make([]*rows.VDev, len(vdevs))
	need := 1 + len(t.Norm) + len(t.Resize) + len(t.Writeback) + len(t.Assign)
	for i, vd := range vdevs {
		if vd.PID > 0 && vd.PID < meterInstances {
			models[i] = t.VDev(vd.PID)
			need += planEntries(models[i])
		}
	}
	eng.entries = make([]*sim.Entry, 1, need)
	for n := range eng.norm {
		if e := t.Norm[n]; e != nil {
			eng.norm[n] = eng.entry(e)
		}
		if re, wb := t.Resize[n], t.Writeback[n]; re != nil && wb != nil {
			eng.resize[n] = eng.entry(re)
			eng.entry(wb)
		}
	}
	sessionOK := func(session int) bool {
		_, ok := sw.MirrorPort(session)
		return ok
	}
	for i, vd := range vdevs {
		p, fs := eng.buildPlan(cfg, models[i], sessionOK, vd)
		findings = append(findings, fs...)
		if p != nil {
			eng.plans[vd.PID] = p
		}
	}
	// Resolve cross-plan routes and bound every chain's worst-case pass
	// count against the interpreter's budget; plans that would exceed it
	// (or sit on a link cycle) are refused here, before port binding.
	findings = append(findings, linkPlans(eng, sim.MaxPasses)...)
	// Fuse t_assign into a direct port dispatch: for each physical port,
	// the first assign row in precedence order that matches it. A port an
	// undecodable row might claim stays with the interpreter.
	assignEnt := make([]int32, len(t.Assign))
	for port := 0; port < MaxPorts; port++ {
		for i := range t.Assign {
			a := &t.Assign[i]
			if a.Err != nil {
				break
			}
			if uint64(port)&a.Mask != a.Val {
				continue
			}
			if p := eng.plans[a.PID]; p != nil {
				if assignEnt[i] == 0 {
					assignEnt[i] = eng.entry(a.Entry)
				}
				eng.ports[port] = portBind{plan: p, vingress: a.VIngress, assign: assignEnt[i]}
			}
			break
		}
	}
	if len(eng.plans) == 0 {
		return nil, findings
	}
	return eng, findings
}

// entry appends e to the engine's entry table and returns its index.
func (eng *Engine) entry(e *sim.Entry) int32 {
	eng.entries = append(eng.entries, e)
	return int32(len(eng.entries) - 1)
}

// Plans reports how many vdevs the engine fused.
func (eng *Engine) Plans() int { return len(eng.plans) }

// Fused reports whether the given PID has a fused plan.
func (eng *Engine) Fused(pid int) bool { return eng.plans[pid] != nil }

// BuiltAgainst returns the switch generation the engine was compiled from.
func (eng *Engine) BuiltAgainst() uint64 { return eng.gen }

// buildPlan fuses one vdev from its decoded rows m (nil when its PID is out
// of range). A nil plan means the vdev
// stays fully interpreted; the findings say why. A non-nil plan may still
// carry per-construct runtime fallbacks (multicast sequences), reported as
// findings too.
func (eng *Engine) buildPlan(cfg persona.Config, m *rows.VDev, sessionOK func(int) bool, vd VDev) (*plan, []verify.Finding) {
	var findings []verify.Finding
	fail := func(table string, handle int, format string, args ...any) (*plan, []verify.Finding) {
		return nil, append(findings, unfusable(vd.Name, table, handle, format, args...))
	}
	if vd.PID <= 0 || vd.PID >= meterInstances {
		return fail("", 0, "pid %d outside the policing meter instance range", vd.PID)
	}
	if len(m.Errs) > 0 {
		return fail(m.Errs[0].Table, m.Errs[0].Handle, "%s", m.Errs[0].Detail)
	}
	p := &plan{
		pid:          vd.PID,
		name:         vd.Name,
		defaultBytes: cfg.ParseDefault,
		parseBy:      make(map[uint64]*parseState, len(m.Parse)),
		slots:        map[uint32]*fusedSlot{},
		vnet:         map[uint64]*vnetRow{},
		csum:         m.Csum,
	}
	if m.Csum != nil {
		p.csumEnt = eng.entry(m.Csum.Entry)
	}

	for i := range m.Routes {
		r := &m.Routes[i]
		vr := &vnetRow{Route: *r, ent: eng.entry(r.Entry)}
		if r.Kind == rows.RouteMcast {
			if err := mcastFusable(r, sessionOK); err != nil {
				vr.bad = true
				findings = append(findings, unfusable(vd.Name, persona.TblVirtnet, r.Entry.Handle,
					"vport %d multicast sequence stays interpreted: %v", r.VPort, err))
			}
		}
		if p.vnet[r.VPort] == nil {
			if r.Kind == rows.RouteMcast && !vr.bad {
				vr.orig = eng.entry(r.Orig)
				vr.steps = make([]int32, len(r.Steps))
				for k := range r.Steps {
					vr.steps[k] = eng.entry(r.Steps[k].Entry)
				}
			}
			p.vnet[r.VPort] = vr
		}
		if r.VPort == 0 && r.Kind == rows.RouteDrop && p.vdrop0 == 0 {
			p.vdrop0 = vr.ent
		}
	}
	if p.vdrop0 == 0 {
		return fail(persona.TblVirtnet, 0, "no (pid, vport=0) drop row: vdev not fully assigned")
	}

	// rows groups slot rows by (stage, kind, id), so a second slot under
	// one (kind, id) key is always a second stage.
	for _, s := range m.Slots {
		key := slotKey(s.Kind, uint64(s.ID))
		if fs := p.slots[key]; fs != nil {
			return fail(persona.StageTable(s.Stage, persona.KindName(s.Kind)), s.Rows[0].Entry.Handle,
				"slot %d installed in stages %d and %d", s.ID, fs.stage, s.Stage)
		}
		fs := &fusedSlot{stage: s.Stage, kind: fusedKind(s.Kind), rows: make([]*frow, len(s.Rows))}
		p.slots[key] = fs
		frs := make([]frow, len(s.Rows))
		for j := range s.Rows {
			r := &s.Rows[j]
			for k := range r.Ops {
				if op := &r.Ops[k]; isAdd(op.Code) && op.DstW > 64 {
					return fail(persona.PrimTable(s.Stage, k+1, "prep"), op.Prep.Handle,
						"add over %d-bit destination exceeds the 64-bit fused adder", op.DstW)
				}
			}
			lo := eng.entry(r.Entry)
			for k := range r.Ops {
				eng.entry(r.Ops[k].Prep)
				eng.entry(r.Ops[k].Exec)
			}
			frs[j] = frow{Key: r.Key, ops: r.Ops, lo: lo, hi: int32(len(eng.entries))}
			fs.rows[j] = &frs[j]
		}
	}
	// Link each row to its successor. One applied at or before the row's
	// own stage never is: the interpreter's remaining stage tables don't
	// hold its rows, so the walk ends there.
	for _, s := range m.Slots {
		fs := p.slots[slotKey(s.Kind, uint64(s.ID))]
		for j := range s.Rows {
			fs.rows[j].next = p.stageAfter(s.Rows[j].NextKind, s.Rows[j].NextSlot, s.Stage)
		}
	}
	for _, fs := range p.slots {
		fs.seal()
	}

	for state, prs := range m.Parse {
		ps := &parseState{rows: make([]prow, len(prs))}
		ps.ix = sealRows(len(prs), func(i int) *rows.Key { return &prs[i].Key }, false)
		p.parseBy[state] = ps
	}
	for state, prs := range m.Parse {
		ps := p.parseBy[state]
		for i := range prs {
			r := &prs[i]
			ps.rows[i] = prow{ent: eng.entry(r.Entry), more: r.More, window: r.Window, csum: r.Csum}
			if r.More {
				ps.rows[i].next = p.parseBy[r.Next]
			} else {
				ps.rows[i].first = p.stageAfter(r.Kind, r.Slot, 0)
			}
		}
	}
	p.parse0 = p.parseBy[0]
	return p, findings
}

// planEntries bounds the rows buildPlan adds to the engine's entry table
// for m.
func planEntries(m *rows.VDev) int {
	n := 1
	for i := range m.Routes {
		n += 2 + len(m.Routes[i].Steps)
	}
	for _, prs := range m.Parse {
		n += len(prs)
	}
	for _, s := range m.Slots {
		for j := range s.Rows {
			n += 1 + 2*len(s.Rows[j].Ops)
		}
	}
	return n
}

// stageAfter links a next-table reference: the fused table (kind, id) when
// it exists and sits in a stage after stage, else nil.
func (p *plan) stageAfter(kind, id, stage int) *fusedSlot {
	if kind == persona.NTDone {
		return nil
	}
	if fs := p.slots[slotKey(kind, uint64(id))]; fs != nil && fs.stage > stage {
		return fs
	}
	return nil
}

func isAdd(code int) bool { return code == persona.OpAddEDConst || code == persona.OpAddMetaConst }

// mcastFusable checks that a multicast route's clone sequence decoded and
// that every clone session has a mirror mapping — without one the
// interpreter counts the clone but never spawns it, a shape the fused
// expansion does not model.
func mcastFusable(r *rows.Route, sessionOK func(int) bool) error {
	if r.McastErr != nil {
		return r.McastErr
	}
	if !sessionOK(r.Session) {
		return fmt.Errorf("clone session %d has no mirror mapping", r.Session)
	}
	for _, st := range r.Steps {
		if st.Session >= 0 && !sessionOK(st.Session) {
			return fmt.Errorf("clone session %d has no mirror mapping", st.Session)
		}
	}
	return nil
}

// costUnbounded marks a plan on a virtual-link cycle: its worst-case pass
// count has no static bound (the interpreter's pass-bound fault is what
// stops such packets).
const costUnbounded = int(^uint(0) >> 1)

// linkPlans resolves every cross-plan route against the built plan set,
// bounds each plan's worst-case total pass count (parse resubmissions plus
// chained walks plus multicast clones) against the interpreter's budget,
// and precomputes the reachable-PID chain used for quarantine checks. Plans
// whose bound is exceeded — or which sit on a link cycle — are refused with
// an informational chain-depth finding: their packets stay interpreted, so
// the interpreter's pass-bound fault fires exactly as without fusion.
func linkPlans(eng *Engine, maxPasses int) []verify.Finding {
	for _, p := range eng.plans {
		for _, vr := range p.vnet {
			switch vr.Kind {
			case rows.RouteVirt:
				vr.target = eng.plans[vr.PID]
			case rows.RouteMcast:
				if vr.bad {
					continue
				}
				vr.target = eng.plans[vr.PID]
				vr.targets = make([]*plan, len(vr.Steps))
				for i := range vr.Steps {
					vr.targets[i] = eng.plans[vr.Steps[i].PID]
				}
			}
		}
	}

	// Worst-case total passes, memoized over the link graph. An in-progress
	// revisit is a cycle: the cost saturates. Unresolved targets contribute
	// nothing — their packets decline at runtime before any side effect.
	const (
		unvisited = 0
		visiting  = 1
		done      = 2
	)
	memo := map[*plan]int{}
	state := map[*plan]int{}
	// add saturates just past the bound so finite-but-too-deep chains stay
	// distinguishable from cycles.
	add := func(a, b int) int {
		if a == costUnbounded || b == costUnbounded {
			return costUnbounded
		}
		if s := a + b; s <= maxPasses+1 {
			return s
		}
		return maxPasses + 1
	}
	var cost func(p *plan) int
	cost = func(p *plan) int {
		switch state[p] {
		case visiting:
			return costUnbounded
		case done:
			return memo[p]
		}
		state[p] = visiting
		c := walkPasses(p)
		extra := 0
		for _, vr := range p.vnet {
			rc := 0
			switch {
			case vr.Kind == rows.RouteVirt && vr.target != nil:
				rc = cost(vr.target)
			case vr.Kind == rows.RouteMcast && !vr.bad && vr.target != nil:
				rc = add(len(vr.targets), cost(vr.target)) // one pass per clone
				for _, t := range vr.targets {
					if t != nil {
						rc = add(rc, cost(t))
					}
				}
			}
			if rc > extra {
				extra = rc
			}
		}
		state[p] = done
		memo[p] = add(c, extra)
		return memo[p]
	}

	var findings []verify.Finding
	pids := make([]int, 0, len(eng.plans))
	for pid := range eng.plans {
		pids = append(pids, pid)
	}
	sort.Ints(pids)
	for _, pid := range pids {
		p := eng.plans[pid]
		c := cost(p)
		if c <= maxPasses {
			continue
		}
		if c == costUnbounded {
			findings = append(findings, verify.Finding{
				Code: verify.CodeFuseChainDepth, Severity: verify.SevInfo, VDev: p.name,
				Detail: fmt.Sprintf("virtual links reachable from %s form a cycle; packets stay interpreted so the %d-pass bound faults them exactly as without fusion", p.name, maxPasses),
			})
		} else {
			findings = append(findings, verify.Finding{
				Code: verify.CodeFuseChainDepth, Severity: verify.SevInfo, VDev: p.name,
				Detail: fmt.Sprintf("worst-case chain needs at least %d pipeline passes, pass bound is %d; packets stay interpreted", c, maxPasses),
			})
		}
		delete(eng.plans, pid)
	}
	// Clear links into refused plans. Cost is monotone along links, so any
	// plan that could reach a refused plan was refused too — this is a
	// belt-and-suspenders pass that also covers future non-monotone edits.
	for _, p := range eng.plans {
		for _, vr := range p.vnet {
			if vr.target != nil && eng.plans[vr.target.pid] != vr.target {
				vr.target = nil
			}
			for i, t := range vr.targets {
				if t != nil && eng.plans[t.pid] != t {
					vr.targets[i] = nil
				}
			}
		}
	}
	// Reachable-PID chains for the quarantine check.
	for _, p := range eng.plans {
		seen := map[int]bool{}
		var visit func(q *plan)
		visit = func(q *plan) {
			if q == nil || seen[q.pid] {
				return
			}
			seen[q.pid] = true
			p.chain = append(p.chain, q.pid)
			for _, vr := range q.vnet {
				visit(vr.target)
				for _, t := range vr.targets {
					visit(t)
				}
			}
		}
		p.chain = p.chain[:0]
		visit(p)
		sort.Ints(p.chain)
	}
	return findings
}

// walkPasses bounds the pipeline passes of one walk through the plan: the
// first pass plus the deepest chain of a_parse_more resubmissions from
// parse state 0, mirroring verify's parseDepth (seen-guarded against state
// cycles; the runtime segment cap still protects adversarial inputs).
func walkPasses(p *plan) int {
	seen := map[*parseState]bool{}
	var deepest func(ps *parseState) int
	deepest = func(ps *parseState) int {
		if ps == nil || seen[ps] {
			return 0
		}
		seen[ps] = true
		best := 0
		for i := range ps.rows {
			if r := &ps.rows[i]; r.more {
				best = max(best, 1+deepest(r.next))
			}
		}
		seen[ps] = false
		return best
	}
	return 1 + deepest(p.parse0)
}

func fusedKind(code int) int {
	switch code {
	case persona.NTEDExact, persona.NTEDTernary:
		return matchED
	case persona.NTMetaExact, persona.NTMetaTernary:
		return matchMeta
	case persona.NTStdMeta:
		return matchStd
	default:
		return matchNone
	}
}
