// Package fuse compiles a loaded virtual device's installed persona entries
// into a per-vdev dispatch plan that internal/sim's fast-path hook executes
// without interpreting the persona program (DESIGN.md §13).
//
// The persona pays an emulation tax on every packet: a resubmitting parse
// loop, a table lookup per stage×primitive, and wide-bitfield action bodies
// executed one interpreted primitive at a time. All of that is statically
// determined by the installed entries, so the fuser flattens it once per
// control-plane write batch: each parse state's decisions and each virtual
// table's multi-row persona encoding become one mask-grouped hash lookup
// whose cost does not grow with the entries installed (index.go), and each
// compound action becomes a pre-decoded micro-op sequence run against
// pooled scratch bitfields with no per-pass allocation.
//
// Plans link across vdevs: a walk that reaches an a_virt_fwd route jumps
// straight into the target vdev's plan (a fresh parse loop and stage walk
// on the deparsed bytes, exactly as the interpreter's recirculation would),
// and an a_mcast_start route expands into its precomputed clone sequence,
// one chained walk per leaf. Chain depth is bounded at build time against
// sim.MaxPasses — a chain the interpreter would fault on refuses to fuse,
// so the fault still fires.
//
// Correctness is anchored on conservation: the fused walk records exactly
// the entry hits, meter executions, and counter bumps the interpreted
// pipeline would have produced, and any construct the plan cannot prove
// equivalent (undecodable rows, unfused chain members, quarantine probing,
// stale generations) declines the packet to the interpreter untouched. The
// differential harness (dpmu's TestFused* suite, `make fuse-diff`)
// enforces byte-identical behavior.
package fuse

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"hyper4/internal/bitfield"
	"hyper4/internal/core/persona"
	"hyper4/internal/core/verify"
	"hyper4/internal/p4/ast"
	"hyper4/internal/sim"
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
	assign   *sim.Entry
}

// plan is one vdev's fused dispatch state.
type plan struct {
	pid          int
	name         string
	defaultBytes int
	counts       map[int]bool // the persona parser's supported byte counts
	// Persona-static rows shared across plans (keyed by byte count).
	normBy   map[int]*sim.Entry
	resizeBy map[int]*sim.Entry
	wbBy     map[int]*sim.Entry
	parseBy  map[uint64]*parseState // t_parse_ctrl rows by parse state
	vdrop0   *sim.Entry             // the (pid, vport=0) drop row, hit on parse misses and parse-more passes
	slots    map[uint32]*fusedSlot
	vnet     map[uint64]*vnetRow
	csum     *csumPlan
	csumBad  bool // a csum row exists but could not be decoded: decline packets that set the csum flag
	// chain is the set of PIDs a packet entering this plan can visit
	// (including this one), across virtual links and multicast steps.
	// RunFast declines when any member is quarantined: containment
	// accounting belongs to the interpreter.
	chain []int
	// retained records, per persona table, the handles of every live row
	// this plan decoded. Prove mode rebuilds the vdev's symbolic machine
	// from exactly these rows and requires it equivalent to the machine
	// built from the full live tables — a plan that silently skipped a row
	// diverges.
	retained map[string]map[int]bool
}

// retain records that a live row was absorbed into the plan.
func (p *plan) retain(table string, handle int) {
	m := p.retained[table]
	if m == nil {
		m = map[int]bool{}
		p.retained[table] = m
	}
	m[handle] = true
}

// parseRow is one decoded t_parse_ctrl entry for this vdev. Its key is a
// (val, mask) pair over the parse window.
type parseRow struct {
	matchKey
	entry     *sim.Entry
	more      bool
	numBytes  int // a_parse_more: bytes to request on the resubmit pass
	nextState uint64
	kind, id  int // a_parse_done: first stage slot
	csum      bool
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
// tuple-space index (index.go).
type fusedSlot struct {
	stage int // the persona stage the slot's rows are installed in
	kind  int
	rows  []*frow
	ix    tupleIndex
}

// seal indexes the slot's rows; Build calls it once the rows are complete.
func (fs *fusedSlot) seal() {
	fs.ix = sealIndex(len(fs.rows), func(i int) *matchKey { return &fs.rows[i].matchKey }, fs.kind == matchStd)
}

// parseState is one parse state's t_parse_ctrl rows, in precedence order,
// sealed like a fused table.
type parseState struct {
	rows []parseRow
	ix   tupleIndex
}

// frow is one decoded virtual entry: its match key (wide for matchED /
// matchMeta, the std pair for matchStd), the micro-op sequence of its
// pre-bound action, its successor, and every persona entry the interpreter
// would have hit applying it (set_match + per-primitive prep/exec rows).
type frow struct {
	matchKey
	ops              []microOp
	nextKind, nextID int
	hits             []*sim.Entry
}

// vnet row kinds.
const (
	vnetDrop = iota
	vnetPhys
	vnetVirt  // virtual link: the walk chains into the target vdev's plan
	vnetMcast // multicast start: the walk expands the precomputed clone sequence
)

type vnetRow struct {
	entry *sim.Entry
	kind  int
	port  int // vnetPhys

	// vnetVirt and vnetMcast: the decoded first target. For multicast this
	// is the device the original (recirculated) copy enters; steps carries
	// the remaining targets in clone order. A route whose target plan is
	// unresolved at link time (target vdev not fused) or whose sequence
	// could not be decoded (bad=true) declines at runtime.
	nextPID int
	nextVIn uint64
	target  *plan
	bad     bool
	orig    *sim.Entry  // vnetMcast: the t_mcast_orig a_mcast_clone row the original pass hits
	steps   []mcastStep // vnetMcast: targets 1..N-1, one per egress-to-egress clone
}

// mcastStep is one decoded t_mcast_clone row: the clone that hits it
// recirculates into (pid, vin) after re-arming the next clone (if any).
type mcastStep struct {
	pid    int
	vin    uint64
	entry  *sim.Entry
	target *plan // linked after all plans are built
}

// csumPlan is the decoded per-vdev a_ipv4_csum row: the bit offset of the
// IPv4 header within the extracted-data field.
type csumPlan struct {
	entry    *sim.Entry
	hoffBits int
}

// Micro-op kinds.
const (
	mopNop = iota
	mopDrop
	mopVPortConst
	mopVPortVIngress
	mopSet  // dst[off,w) = zext(cval)
	mopCopy // dst[off,w) = zext/trunc of src[off,w)
	mopAdd  // dst[off,w) += cval mod 2^w (w <= 64 enforced at build)
)

// microOp is one pre-decoded primitive execution.
type microOp struct {
	kind             int
	dstMeta, srcMeta bool
	dstOff, dstW     int
	srcOff, srcW     int
	cval             uint64
}

// shared holds the persona-static and cross-vdev tables decoded once per
// Build.
type shared struct {
	normBy, resizeBy, wbBy map[int]*sim.Entry
	assign                 []*sim.Entry
	parse                  []*sim.Entry
	virtnet                []*sim.Entry
	csum                   []*sim.Entry
	mcastOrig              map[uint64]*sim.Entry  // t_mcast_orig rows by sequence
	mcastClone             map[uint64]*sim.Entry  // t_mcast_clone rows by sequence
	stageRows              []map[int][]*sim.Entry // 1-based stage → kind code → rows
	preps                  map[uint64]*sim.Entry  // prepKey(stage, prim, pid, mid)
	prepTables             [][]string             // 1-based stage → 1-based primitive → prep table name
	execs                  map[uint64]*sim.Entry  // execKey(stage, prim, opcode)
	sessionOK              func(int) bool         // mirror-session existence (clone spawn condition)
}

func prepKey(stage, prim int, pid, mid uint64) uint64 {
	return uint64(stage)<<56 | uint64(prim)<<48 | pid<<32 | mid
}

func execKey(stage, prim int, code uint64) uint64 {
	return uint64(stage)<<24 | uint64(prim)<<16 | code
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
		gen:   sw.Generation(),
		ew:    ew,
		plans: map[int]*plan{},
		ports: make([]portBind, MaxPorts),
	}
	eng.pool.New = func() any { return newExecState(ew) }
	sh, err := loadShared(sw, cfg)
	if err != nil {
		findings = append(findings, unfusable("", "", 0, "persona introspection failed: %v", err))
		return nil, findings
	}
	sh.sessionOK = func(session int) bool {
		_, ok := sw.MirrorPort(session)
		return ok
	}
	for _, vd := range vdevs {
		p, fs := buildPlan(cfg, sh, vd)
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
	// the first assign row in precedence order that matches it.
	for port := 0; port < MaxPorts; port++ {
		for _, e := range sh.assign {
			if e.Action != persona.ActSetProgram || len(e.Params) != 1 || len(e.Args) != 2 {
				continue
			}
			val, mask, ok := ternaryUint(e.Params[0])
			if !ok || uint64(port)&mask != val {
				continue
			}
			pid := int(e.Args[0].Uint64())
			eng.ports[port] = portBind{
				plan:     eng.plans[pid],
				vingress: e.Args[1].Uint64(),
				assign:   e,
			}
			break
		}
	}
	if len(eng.plans) == 0 {
		return nil, findings
	}
	return eng, findings
}

// Plans reports how many vdevs the engine fused.
func (eng *Engine) Plans() int { return len(eng.plans) }

// Fused reports whether the given PID has a fused plan.
func (eng *Engine) Fused(pid int) bool { return eng.plans[pid] != nil }

// BuiltAgainst returns the switch generation the engine was compiled from.
func (eng *Engine) BuiltAgainst() uint64 { return eng.gen }

func loadShared(sw *sim.Switch, cfg persona.Config) (*shared, error) {
	sh := &shared{
		normBy:   map[int]*sim.Entry{},
		resizeBy: map[int]*sim.Entry{},
		wbBy:     map[int]*sim.Entry{},
		preps:    map[uint64]*sim.Entry{},
		execs:    map[uint64]*sim.Entry{},
	}
	byCount := func(table string, nameFor func(int) string, into map[int]*sim.Entry) error {
		rows, err := sw.TableEntriesOrdered(table)
		if err != nil {
			return err
		}
		for _, e := range rows {
			if len(e.Params) != 1 {
				continue
			}
			n := int(e.Params[0].Value.Uint64())
			if e.Action == nameFor(n) {
				into[n] = e
			}
		}
		return nil
	}
	if err := byCount(persona.TblNorm, persona.NormAction, sh.normBy); err != nil {
		return nil, err
	}
	if err := byCount(persona.TblResize, persona.ResizeAction, sh.resizeBy); err != nil {
		return nil, err
	}
	if err := byCount(persona.TblWriteback, persona.WritebackAction, sh.wbBy); err != nil {
		return nil, err
	}
	var err error
	if sh.assign, err = sw.TableEntriesOrdered(persona.TblAssign); err != nil {
		return nil, err
	}
	if sh.parse, err = sw.TableEntriesOrdered(persona.TblParseCtrl); err != nil {
		return nil, err
	}
	if sh.virtnet, err = sw.TableEntriesOrdered(persona.TblVirtnet); err != nil {
		return nil, err
	}
	if sh.csum, err = sw.TableEntriesOrdered(persona.TblCsum); err != nil {
		return nil, err
	}
	bySeq := func(table string) (map[uint64]*sim.Entry, error) {
		rows, err := sw.TableEntriesOrdered(table)
		if err != nil {
			return nil, err
		}
		out := make(map[uint64]*sim.Entry, len(rows))
		for _, e := range rows {
			if len(e.Params) != 1 {
				continue
			}
			seq := e.Params[0].Value.Uint64()
			if _, dup := out[seq]; !dup { // first row wins, like exact lookup
				out[seq] = e
			}
		}
		return out, nil
	}
	if sh.mcastOrig, err = bySeq(persona.TblMcastOrig); err != nil {
		return nil, err
	}
	if sh.mcastClone, err = bySeq(persona.TblMcastClone); err != nil {
		return nil, err
	}
	sh.stageRows = make([]map[int][]*sim.Entry, cfg.Stages+1)
	sh.prepTables = make([][]string, cfg.Stages+1)
	for i := 1; i <= cfg.Stages; i++ {
		sh.stageRows[i] = map[int][]*sim.Entry{}
		for _, k := range persona.StageKinds {
			rows, err := sw.TableEntriesOrdered(persona.StageTable(i, k.Name))
			if err != nil {
				return nil, err
			}
			sh.stageRows[i][k.Code] = rows
		}
		sh.prepTables[i] = make([]string, cfg.Primitives+1)
		for prim := 1; prim <= cfg.Primitives; prim++ {
			sh.prepTables[i][prim] = persona.PrimTable(i, prim, "prep")
			preps, err := sw.TableEntriesOrdered(sh.prepTables[i][prim])
			if err != nil {
				return nil, err
			}
			for _, e := range preps {
				if len(e.Params) != 2 {
					continue
				}
				pid := e.Params[0].Value.Uint64()
				mid := e.Params[1].Value.Uint64()
				k := prepKey(i, prim, pid, mid)
				if _, dup := sh.preps[k]; !dup {
					sh.preps[k] = e
				}
			}
			execs, err := sw.TableEntriesOrdered(persona.PrimTable(i, prim, "exec"))
			if err != nil {
				return nil, err
			}
			for _, e := range execs {
				if len(e.Params) != 1 {
					continue
				}
				code := e.Params[0].Value.Uint64()
				if e.Action == execName(code) {
					sh.execs[execKey(i, prim, code)] = e
				}
			}
		}
	}
	return sh, nil
}

func execName(code uint64) string {
	for _, op := range persona.Opcodes {
		if uint64(op.Code) == code {
			return "a_exec_" + op.Name
		}
	}
	return ""
}

// buildPlan fuses one vdev. A nil plan means the vdev stays fully
// interpreted; the findings say why. A non-nil plan may still carry
// per-construct runtime fallbacks (virtual links, multicast), reported as
// findings too.
func buildPlan(cfg persona.Config, sh *shared, vd VDev) (*plan, []verify.Finding) {
	var findings []verify.Finding
	fail := func(table string, handle int, format string, args ...any) (*plan, []verify.Finding) {
		return nil, append(findings, unfusable(vd.Name, table, handle, format, args...))
	}
	if vd.PID <= 0 || vd.PID >= meterInstances {
		return fail("", 0, "pid %d outside the policing meter instance range", vd.PID)
	}
	ew := cfg.ExtractedWidth()
	pid := uint64(vd.PID)
	p := &plan{
		pid:          vd.PID,
		name:         vd.Name,
		defaultBytes: cfg.ParseDefault,
		counts:       map[int]bool{},
		parseBy:      map[uint64]*parseState{},
		normBy:       sh.normBy,
		resizeBy:     sh.resizeBy,
		wbBy:         sh.wbBy,
		slots:        map[uint32]*fusedSlot{},
		vnet:         map[uint64]*vnetRow{},
		retained:     map[string]map[int]bool{},
	}
	for _, n := range cfg.ByteCounts() {
		p.counts[n] = true
	}

	for _, e := range sh.parse {
		if len(e.Params) != 3 || e.Params[0].Value.Uint64() != pid {
			continue
		}
		val, mask, ok := ternaryValue(e.Params[2], ew)
		if !ok {
			return fail(persona.TblParseCtrl, e.Handle, "parse row match is not an %d-bit exact/ternary key", ew)
		}
		pr := parseRow{matchKey: matchKey{val: val, mask: mask}, entry: e}
		switch e.Action {
		case persona.ActParseMore:
			if len(e.Args) != 2 {
				return fail(persona.TblParseCtrl, e.Handle, "a_parse_more arity")
			}
			pr.more = true
			pr.numBytes = int(e.Args[0].Uint64())
			pr.nextState = e.Args[1].Uint64()
		case persona.ActParseDone:
			if len(e.Args) != 3 {
				return fail(persona.TblParseCtrl, e.Handle, "a_parse_done arity")
			}
			pr.kind = int(e.Args[0].Uint64())
			pr.id = int(e.Args[1].Uint64())
			pr.csum = e.Args[2].Uint64() == 1
		default:
			return fail(persona.TblParseCtrl, e.Handle, "unexpected parse action %q", e.Action)
		}
		state := e.Params[1].Value.Uint64()
		ps := p.parseBy[state]
		if ps == nil {
			ps = &parseState{}
			p.parseBy[state] = ps
		}
		ps.rows = append(ps.rows, pr)
		p.retain(persona.TblParseCtrl, e.Handle)
	}
	for _, ps := range p.parseBy {
		ps.ix = sealIndex(len(ps.rows), func(i int) *matchKey { return &ps.rows[i].matchKey }, false)
	}

	for _, e := range sh.virtnet {
		if len(e.Params) != 2 || e.Params[0].Value.Uint64() != pid {
			continue
		}
		vp := e.Params[1].Value.Uint64()
		vr := &vnetRow{entry: e}
		switch e.Action {
		case persona.ActVDrop:
			vr.kind = vnetDrop
		case persona.ActPhysFwd:
			if len(e.Args) != 1 {
				return fail(persona.TblVirtnet, e.Handle, "a_phys_fwd arity")
			}
			vr.kind = vnetPhys
			vr.port = int(e.Args[0].Uint64())
		case persona.ActVirtFwd:
			if len(e.Args) != 3 {
				return fail(persona.TblVirtnet, e.Handle, "a_virt_fwd arity")
			}
			vr.kind = vnetVirt
			vr.nextPID = int(e.Args[0].Uint64())
			vr.nextVIn = e.Args[1].Uint64()
		case persona.ActMcastStart:
			if len(e.Args) != 4 {
				return fail(persona.TblVirtnet, e.Handle, "a_mcast_start arity")
			}
			vr.kind = vnetMcast
			vr.nextPID = int(e.Args[0].Uint64())
			vr.nextVIn = e.Args[1].Uint64()
			orig, steps, err := decodeMcast(sh, e.Args[2].Uint64())
			if err != nil {
				vr.bad = true
				findings = append(findings, unfusable(vd.Name, persona.TblVirtnet, e.Handle,
					"vport %d multicast sequence stays interpreted: %v", vp, err))
			} else {
				vr.orig, vr.steps = orig, steps
			}
		default:
			return fail(persona.TblVirtnet, e.Handle, "unexpected virtnet action %q", e.Action)
		}
		if _, dup := p.vnet[vp]; !dup {
			p.vnet[vp] = vr
		}
		if vp == 0 && vr.kind == vnetDrop && p.vdrop0 == nil {
			p.vdrop0 = e
		}
	}
	if p.vdrop0 == nil {
		return fail(persona.TblVirtnet, 0, "no (pid, vport=0) drop row: vdev not fully assigned")
	}

	for _, e := range sh.csum {
		if len(e.Params) != 1 || e.Params[0].Value.Uint64() != pid {
			continue
		}
		p.retain(persona.TblCsum, e.Handle)
		cp, err := decodeCsum(e, ew)
		if err != nil {
			p.csumBad = true
			findings = append(findings, unfusable(vd.Name, persona.TblCsum, e.Handle,
				"checksum row stays interpreted: %v", err))
			continue
		}
		if p.csum == nil && !p.csumBad {
			p.csum = cp
		}
	}

	for i := 1; i <= cfg.Stages; i++ {
		for kind, rows := range sh.stageRows[i] {
			table := persona.StageTable(i, persona.KindName(kind))
			for _, e := range rows {
				if len(e.Params) < 2 || e.Params[0].Value.Uint64() != pid {
					continue
				}
				id := e.Params[1].Value.Uint64()
				key := slotKey(kind, id)
				fs := p.slots[key]
				if fs == nil {
					fs = &fusedSlot{stage: i, kind: fusedKind(kind)}
					p.slots[key] = fs
				} else if fs.stage != i {
					return fail(table, e.Handle, "slot %d installed in stages %d and %d", id, fs.stage, i)
				}
				fr, err := decodeStageRow(cfg, sh, e, kind, i, pid, ew, p.retain)
				if err != nil {
					return fail(table, e.Handle, "%v", err)
				}
				p.retain(table, e.Handle)
				fs.rows = append(fs.rows, fr)
			}
		}
	}
	for _, fs := range p.slots {
		fs.seal()
	}
	return p, findings
}

// decodeMcast expands an a_mcast_start row's clone sequence by walking the
// t_mcast_orig and t_mcast_clone rows the interpreter's egress would hit:
// the original pass hits the orig row (raising clone 1), clone k hits the
// step row keyed by its inherited sequence (raising clone k+1 until the
// last step). Every clone session must have a mirror mapping — without one
// the interpreter counts the clone but never spawns it, a shape the fused
// expansion does not model.
func decodeMcast(sh *shared, seq uint64) (*sim.Entry, []mcastStep, error) {
	orig := sh.mcastOrig[seq]
	if orig == nil || orig.Action != persona.ActMcastClone || len(orig.Args) != 1 {
		return nil, nil, fmt.Errorf("no decodable %s row for sequence %d", persona.ActMcastClone, seq)
	}
	if !sh.sessionOK(int(orig.Args[0].Uint64())) {
		return nil, nil, fmt.Errorf("clone session %d has no mirror mapping", orig.Args[0].Uint64())
	}
	var steps []mcastStep
	seen := map[uint64]bool{seq: true}
	cur := seq
	for {
		e := sh.mcastClone[cur]
		if e == nil {
			return nil, nil, fmt.Errorf("no step row for sequence %d", cur)
		}
		switch e.Action {
		case persona.ActMcastStep:
			if len(e.Args) != 4 {
				return nil, nil, fmt.Errorf("%s arity %d", persona.ActMcastStep, len(e.Args))
			}
			if !sh.sessionOK(int(e.Args[3].Uint64())) {
				return nil, nil, fmt.Errorf("clone session %d has no mirror mapping", e.Args[3].Uint64())
			}
			steps = append(steps, mcastStep{pid: int(e.Args[0].Uint64()), vin: e.Args[1].Uint64(), entry: e})
			next := e.Args[2].Uint64()
			if seen[next] {
				return nil, nil, fmt.Errorf("multicast sequence cycles at %d", next)
			}
			seen[next] = true
			cur = next
		case persona.ActMcastLast:
			if len(e.Args) != 2 {
				return nil, nil, fmt.Errorf("%s arity %d", persona.ActMcastLast, len(e.Args))
			}
			steps = append(steps, mcastStep{pid: int(e.Args[0].Uint64()), vin: e.Args[1].Uint64(), entry: e})
			return orig, steps, nil
		default:
			return nil, nil, fmt.Errorf("unexpected step action %q", e.Action)
		}
	}
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
			switch vr.kind {
			case vnetVirt:
				vr.target = eng.plans[vr.nextPID]
			case vnetMcast:
				if vr.bad {
					continue
				}
				vr.target = eng.plans[vr.nextPID]
				for i := range vr.steps {
					vr.steps[i].target = eng.plans[vr.steps[i].pid]
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
			case vr.kind == vnetVirt && vr.target != nil:
				rc = cost(vr.target)
			case vr.kind == vnetMcast && !vr.bad && vr.target != nil:
				rc = add(len(vr.steps), cost(vr.target)) // one pass per clone
				for i := range vr.steps {
					if t := vr.steps[i].target; t != nil {
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
			for i := range vr.steps {
				if t := vr.steps[i].target; t != nil && eng.plans[t.pid] != t {
					vr.steps[i].target = nil
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
				for i := range vr.steps {
					visit(vr.steps[i].target)
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
	seen := map[uint64]bool{}
	var deepest func(state uint64) int
	deepest = func(state uint64) int {
		ps := p.parseBy[state]
		if seen[state] || ps == nil {
			return 0
		}
		seen[state] = true
		best := 0
		for _, r := range ps.rows {
			if !r.more {
				continue
			}
			if d := 1 + deepest(r.nextState); d > best {
				best = d
			}
		}
		seen[state] = false
		return best
	}
	return 1 + deepest(0)
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

// decodeStageRow inverts one installed a_set_match row back into a fused
// row: match key, successor, and per-primitive micro-ops with the prep and
// exec entries the interpreter would hit.
func decodeStageRow(cfg persona.Config, sh *shared, e *sim.Entry, kind, stage int, pid uint64, ew int, retain func(table string, handle int)) (*frow, error) {
	if e.Action != persona.ActSetMatch {
		return nil, fmt.Errorf("unexpected stage action %q", e.Action)
	}
	if len(e.Args) != 4 {
		return nil, fmt.Errorf("a_set_match arity %d", len(e.Args))
	}
	fr := &frow{
		nextKind: int(e.Args[2].Uint64()),
		nextID:   int(e.Args[3].Uint64()),
		hits:     []*sim.Entry{e},
	}
	var ok bool
	switch kind {
	case persona.NTEDExact, persona.NTEDTernary:
		if len(e.Params) != 3 {
			return nil, fmt.Errorf("ed row arity")
		}
		if fr.val, fr.mask, ok = ternaryValue(e.Params[2], ew); !ok {
			return nil, fmt.Errorf("ed match key is not a %d-bit exact/ternary", ew)
		}
	case persona.NTMetaExact, persona.NTMetaTernary:
		if len(e.Params) != 3 {
			return nil, fmt.Errorf("meta row arity")
		}
		if fr.val, fr.mask, ok = ternaryValue(e.Params[2], persona.MetaWidth); !ok {
			return nil, fmt.Errorf("meta match key is not a %d-bit exact/ternary", persona.MetaWidth)
		}
	case persona.NTStdMeta:
		if len(e.Params) != 4 {
			return nil, fmt.Errorf("stdmeta row arity")
		}
		if fr.vinVal, fr.vinMask, ok = ternaryUint(e.Params[2]); !ok {
			return nil, fmt.Errorf("stdmeta vingress key kind")
		}
		if fr.vpVal, fr.vpMask, ok = ternaryUint(e.Params[3]); !ok {
			return nil, fmt.Errorf("stdmeta vport key kind")
		}
	case persona.NTMatchless:
		if len(e.Params) != 2 {
			return nil, fmt.Errorf("matchless row arity")
		}
	default:
		return nil, fmt.Errorf("unknown stage kind %d", kind)
	}
	mid := e.Args[0].Uint64()
	nprims := int(e.Args[1].Uint64())
	if nprims > cfg.Primitives {
		return nil, fmt.Errorf("row wants %d primitives, persona has %d", nprims, cfg.Primitives)
	}
	for prim := 1; prim <= nprims; prim++ {
		prep := sh.preps[prepKey(stage, prim, pid, mid)]
		if prep == nil {
			return nil, fmt.Errorf("missing prep row for match_id %d primitive %d", mid, prim)
		}
		code, mop, err := decodePrep(prep, ew)
		if err != nil {
			return nil, fmt.Errorf("prep %q: %w", prep.Action, err)
		}
		exec := sh.execs[execKey(stage, prim, code)]
		if exec == nil {
			return nil, fmt.Errorf("missing exec row for opcode %d", code)
		}
		retain(sh.prepTables[stage][prim], prep.Handle)
		fr.hits = append(fr.hits, prep, exec)
		fr.ops = append(fr.ops, mop)
	}
	return fr, nil
}

// decodePrep inverts one installed a_prep_* row into a micro-op, verifying
// every derived shift against the encoding hp4c's prepFor produced. Any
// mismatch means the row wasn't produced by the compiler we understand, so
// the vdev stays interpreted rather than risking divergence.
func decodePrep(e *sim.Entry, ew int) (uint64, microOp, error) {
	var code int
	found := false
	for _, op := range persona.Opcodes {
		if e.Action == "a_prep_"+op.Name {
			code = op.Code
			found = true
			break
		}
	}
	if !found {
		return 0, microOp{}, fmt.Errorf("unknown prep action")
	}
	arity := func(n int) error {
		if len(e.Args) != n {
			return fmt.Errorf("arity %d, want %d", len(e.Args), n)
		}
		return nil
	}
	mop := microOp{}
	switch code {
	case persona.OpNoOp:
		mop.kind = mopNop
		return uint64(code), mop, arity(0)
	case persona.OpDrop:
		mop.kind = mopDrop
		return uint64(code), mop, arity(0)
	case persona.OpModVPortVIngress:
		mop.kind = mopVPortVIngress
		return uint64(code), mop, arity(0)
	case persona.OpModVPortConst:
		if err := arity(1); err != nil {
			return 0, mop, err
		}
		mop.kind = mopVPortConst
		mop.cval = e.Args[0].Uint64()
		return uint64(code), mop, nil
	}

	dstMeta := code == persona.OpModMetaConst || code == persona.OpModMetaED ||
		code == persona.OpModMetaMeta || code == persona.OpAddMetaConst
	srcMeta := code == persona.OpModEDMeta || code == persona.OpModMetaMeta
	dstTotal, srcTotal := ew, ew
	if dstMeta {
		dstTotal = persona.MetaWidth
	}
	if srcMeta {
		srcTotal = persona.MetaWidth
	}
	if len(e.Args) < 2 {
		return 0, mop, fmt.Errorf("missing dmask/dshift")
	}
	off, w, err := decodeDstMask(e.Args[0], e.Args[1].Uint64(), dstTotal, ew)
	if err != nil {
		return 0, mop, err
	}
	mop.dstMeta, mop.srcMeta = dstMeta, srcMeta
	mop.dstOff, mop.dstW = off, w

	switch code {
	case persona.OpModEDConst, persona.OpModMetaConst:
		if err := arity(3); err != nil {
			return 0, mop, err
		}
		mop.kind = mopSet
		mop.cval = e.Args[2].Uint64()
	case persona.OpModEDED, persona.OpModEDMeta, persona.OpModMetaED, persona.OpModMetaMeta:
		if err := arity(4); err != nil {
			return 0, mop, err
		}
		mop.kind = mopCopy
		mop.srcOff = int(e.Args[2].Uint64()) - ew + srcTotal
		mop.srcW = ew - int(e.Args[3].Uint64())
		if mop.srcOff < 0 || mop.srcW <= 0 || mop.srcOff+mop.srcW > srcTotal {
			return 0, mop, fmt.Errorf("source slice [%d,%d) outside %d-bit field", mop.srcOff, mop.srcOff+mop.srcW, srcTotal)
		}
	case persona.OpAddEDConst, persona.OpAddMetaConst:
		if err := arity(5); err != nil {
			return 0, mop, err
		}
		if w > 64 {
			return 0, mop, fmt.Errorf("add over %d-bit destination exceeds the 64-bit fused adder", w)
		}
		if int(e.Args[2].Uint64()) != ew-dstTotal+off || int(e.Args[3].Uint64()) != ew-w {
			return 0, mop, fmt.Errorf("add shift encoding mismatch")
		}
		mop.kind = mopAdd
		mop.cval = e.Args[4].Uint64()
	default:
		return 0, mop, fmt.Errorf("opcode %d not fusable", code)
	}
	return uint64(code), mop, nil
}

// decodeDstMask inverts prepFor's destination encoding: dmask is
// MaskRange(dstTotal, off, w) resized (right-aligned) to ew, dshift is
// dstTotal-off-w. It recovers (off, w) and verifies both encodings agree
// and the mask is one contiguous run.
func decodeDstMask(dmask bitfield.Value, dshift uint64, dstTotal, ew int) (int, int, error) {
	if dmask.Width() != ew {
		return 0, 0, fmt.Errorf("dmask width %d, want %d", dmask.Width(), ew)
	}
	w := dmask.PopCount()
	if w == 0 {
		return 0, 0, fmt.Errorf("empty dmask")
	}
	f := -1
	b := dmask.Bytes()
	for i, by := range b {
		if by != 0 {
			for j := 0; j < 8; j++ {
				if by&(0x80>>j) != 0 {
					f = i*8 + j
					break
				}
			}
			break
		}
	}
	off := f - (ew - dstTotal)
	if off < 0 || off+w > dstTotal {
		return 0, 0, fmt.Errorf("dmask run [%d,%d) outside %d-bit field", off, off+w, dstTotal)
	}
	if !dmask.Equal(bitfield.MaskRange(dstTotal, off, w).Resize(ew)) {
		return 0, 0, fmt.Errorf("dmask is not one contiguous run")
	}
	if int(dshift) != dstTotal-off-w {
		return 0, 0, fmt.Errorf("dshift %d disagrees with dmask run [%d,%d)", dshift, off, off+w)
	}
	return off, w, nil
}

// decodeCsum inverts an a_ipv4_csum row into the header's bit offset,
// verifying all three argument encodings agree.
func decodeCsum(e *sim.Entry, ew int) (*csumPlan, error) {
	if e.Action != "a_ipv4_csum" {
		return nil, fmt.Errorf("unexpected csum action %q", e.Action)
	}
	if len(e.Args) != 3 {
		return nil, fmt.Errorf("a_ipv4_csum arity %d", len(e.Args))
	}
	shift0 := int(e.Args[1].Uint64())
	hoffBits := ew - 16 - shift0
	if hoffBits < 0 || hoffBits%8 != 0 || hoffBits+160 > ew {
		return nil, fmt.Errorf("header offset %d bits out of range", hoffBits)
	}
	if int(e.Args[2].Uint64()) != ew-(hoffBits+80)-16 {
		return nil, fmt.Errorf("cshift disagrees with shift0")
	}
	want := bitfield.MaskRange(ew, hoffBits+80, 16).Not()
	if e.Args[0].Width() != ew || !e.Args[0].Equal(want) {
		return nil, fmt.Errorf("ncmask disagrees with shift0")
	}
	return &csumPlan{entry: e, hoffBits: hoffBits}, nil
}

// ternaryValue normalizes an exact or ternary match param of the given
// width into a premasked (value, mask) pair.
func ternaryValue(p sim.MatchParam, width int) (val, mask bitfield.Value, ok bool) {
	if p.Value.Width() != width {
		return val, mask, false
	}
	switch p.Kind {
	case ast.MatchExact:
		return p.Value, bitfield.Ones(width), true
	case ast.MatchTernary:
		if p.Mask.Width() != width {
			return val, mask, false
		}
		return p.Value.And(p.Mask), p.Mask, true
	}
	return val, mask, false
}

// ternaryUint is ternaryValue for narrow (<=64 bit) keys.
func ternaryUint(p sim.MatchParam) (val, mask uint64, ok bool) {
	w := p.Value.Width()
	if w > 64 {
		return 0, 0, false
	}
	all := uint64(1)<<uint(w) - 1
	switch p.Kind {
	case ast.MatchExact:
		return p.Value.Uint64(), all, true
	case ast.MatchTernary:
		m := p.Mask.Uint64()
		return p.Value.Uint64() & m, m, true
	}
	return 0, 0, false
}
