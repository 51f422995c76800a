package ctl

import (
	"fmt"
	"sort"
	"sync"

	"hyper4/internal/breaker"
	"hyper4/internal/core/dpmu"
	"hyper4/internal/core/verify"
	"hyper4/internal/core/verify/prove"
	pktio "hyper4/internal/runtime"
)

// PortIO is the packet I/O runtime surface the control plane manages:
// attach a transport to a physical port, detach it, list what is attached.
// *runtime.Runtime satisfies it; a Ctl with a nil IO (tests, bench rigs that
// feed the switch directly) rejects port ops as invalid.
type PortIO interface {
	AttachSpec(port int, spec string) error
	Detach(port int) error
	Ports() []pktio.PortInfo
	// PortHealth reports the per-port breaker state (runtime/health.go);
	// querying it also advances time-based breaker transitions, mirroring
	// how the vdev health query drives the DPMU breakers.
	PortHealth() []pktio.PortHealth
}

// Ctl is the control plane over one DPMU. All mutating paths — REPL lines,
// hp4ctl requests, in-process controllers — go through Apply or WriteBatch,
// so authorization, error classification, atomicity and event publication
// behave identically everywhere.
type Ctl struct {
	D *dpmu.DPMU

	// IO is the packet I/O runtime port ops act on; nil when the switch has
	// no I/O runtime. Set once at wiring time, before the Ctl serves traffic.
	IO PortIO

	// wmu serializes writes: a batch's checkpoint-apply-rollback span must
	// not interleave with another writer (readers are unaffected — the DPMU
	// and switch have their own locks, and rollback restores a consistent
	// snapshot). It also guards the request-ID dedup ring below.
	wmu sync.Mutex

	// Request-ID dedup (idempotent retries): a retried WriteBatch carrying
	// the same request ID replays the stored outcome instead of applying the
	// ops twice. The ring keeps the last dedupWindow outcomes.
	dedup     map[string]*writeOutcome
	dedupRing []string

	// journal, when non-nil, makes every applied batch durable before its
	// ack (journal.go). Wired by AttachJournal during boot. Guarded by wmu.
	journal *Journal

	events *hub
}

// dedupWindow bounds the remembered write outcomes. A client retrying from
// further back than this re-applies (retries happen within seconds; the
// window is generous).
const dedupWindow = 128

// writeOutcome is one remembered WriteBatch result, replayed on retry.
type writeOutcome struct {
	results []Result
	err     *Error
}

// New builds a control plane over a DPMU. Breaker transitions surface on the
// event stream as "health" events.
func New(d *dpmu.DPMU) *Ctl {
	c := &Ctl{D: d, dedup: map[string]*writeOutcome{}, events: newHub()}
	d.SetHealthNotify(func(vdev string, state breaker.State) {
		c.events.publish(Event{Kind: "health", VDev: vdev, Msg: string(state)})
	})
	return c
}

// Close shuts the control plane's event stream down: blocked long-polls
// return immediately and future polls return no events. Writes and reads
// keep working (shutdown drains them separately).
func (c *Ctl) Close() { c.events.close() }

// Apply validates and applies one op as owner: a one-op batch, journaled
// when a journal is attached, whose error names no batch position.
func (c *Ctl) Apply(owner string, op *Op) (Result, error) {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	results, err := c.writeBatchLocked(owner, "", []Op{*op})
	if err != nil {
		return Result{}, wrap(err, -1)
	}
	return results[0], nil
}

// WriteBatch applies ops atomically as owner: each op is validated
// structurally up front, the DPMU is checkpointed, and the first failure
// rolls everything back so the switch and the DPMU's bookkeeping are
// bit-identical to the pre-batch state. A batch without port ops is one
// DPMU Update, rollback included, so it is atomic against packets too:
// each packet sees the pre-batch tables or the post-batch ones. The
// returned error carries the failing op's index and code; on success one
// Result per op is returned.
func (c *Ctl) WriteBatch(owner string, ops []Op) ([]Result, error) {
	return c.WriteBatchID(owner, "", ops)
}

// WriteBatchID is WriteBatch with idempotency: a non-empty requestID that
// matches a recently applied batch replays that batch's outcome — results or
// error — without touching the DPMU, so a client retrying after a lost
// response applies its ops exactly once. An empty requestID never dedups.
func (c *Ctl) WriteBatchID(owner, requestID string, ops []Op) ([]Result, error) {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if requestID != "" {
		if prev, ok := c.dedup[requestID]; ok {
			if prev.err != nil {
				return nil, prev.err
			}
			return prev.results, nil
		}
	}
	results, err := c.writeBatchLocked(owner, requestID, ops)
	if requestID != "" {
		out := &writeOutcome{results: results}
		if err != nil {
			out.err = asError(err)
		}
		c.rememberOutcome(requestID, out)
	}
	return results, err
}

func (c *Ctl) writeBatchLocked(owner, requestID string, ops []Op) ([]Result, error) {
	for i := range ops {
		if err := validateOp(&ops[i]); err != nil {
			return nil, wrap(err, i)
		}
	}
	// A lone op needs a checkpoint only if a journal failure may have to
	// undo it: a failing DPMU operation already cleans up its own rows.
	var cp *dpmu.Checkpoint
	if len(ops) > 1 || c.journal != nil {
		cp = c.D.Checkpoint()
	}
	// Transports live outside the DPMU checkpoint, so port attaches are
	// compensated rather than rolled back: a failing batch detaches the
	// ports it attached. A detach consumed by a failing batch is NOT
	// restored (the transport is gone); batches mixing detaches with
	// fallible ops should order the detach last.
	var attached []int
	undoPorts := func() {
		for _, p := range attached {
			_ = c.IO.Detach(p)
		}
	}
	results := make([]Result, len(ops))
	for i := 0; i < len(ops); {
		if isPortOp(ops[i].Kind) {
			res, err := c.applyPortOp(&ops[i])
			if err != nil {
				if cp != nil {
					c.D.Rollback(cp)
				}
				undoPorts()
				return nil, wrap(err, i)
			}
			if ops[i].Kind == OpPortAttach {
				attached = append(attached, ops[i].PhysPort)
			}
			results[i] = res
			i++
			continue
		}
		// Each run of DPMU ops between port ops is one Update: one switch
		// write lock, one generation bump and one plan compile, which runs
		// before the journal's fsync so fused forwarding resumes while the
		// disk catches up. A failure rolls back inside the same Update, so
		// packets never see the failed op's predecessors.
		j, failed := i, -1
		for j < len(ops) && !isPortOp(ops[j].Kind) {
			j++
		}
		err := c.D.Update(func(t *dpmu.Tx) error {
			for k := i; k < j; k++ {
				res, err := c.applyOp(t, owner, &ops[k])
				if err != nil {
					if cp != nil {
						t.Rollback(cp)
					}
					failed = k
					return err
				}
				results[k] = res
			}
			return nil
		})
		if err != nil {
			undoPorts()
			return nil, wrap(err, failed)
		}
		i = j
	}
	// Durability before ack: the batch journals (append + fsync) after it
	// applied and before the caller sees success. A journal failure undoes
	// the batch — an ack must never outrun the log.
	if c.journal != nil {
		if jerr := c.journalAppliedLocked(owner, requestID, ops, results); jerr != nil {
			c.D.Rollback(cp)
			undoPorts()
			return nil, &Error{Code: CodeInternal, Op: -1, Msg: jerr.Error()}
		}
	}
	for i := range ops {
		c.publishOp(&ops[i], results[i])
	}
	return results, nil
}

// validateOp rejects structurally malformed ops before any state changes.
// Program-dependent validation (does the table exist, do the tokens parse
// against its reads) happens at apply time — a batch may load the device an
// op later in the same batch targets — and is covered by rollback.
func validateOp(op *Op) error {
	switch op.Kind {
	case OpLoadVDev:
		if op.VDev == "" || op.Function == "" {
			return invalidf("load_vdev wants a device name and a function")
		}
	case OpUnload, OpAssign, OpMapVPort, OpRateLimit:
		if op.VDev == "" {
			return invalidf("%s wants a device name", op.Kind)
		}
	case OpLink:
		if op.VDev == "" || op.ToVDev == "" {
			return invalidf("link wants two device names")
		}
	case OpMcast:
		if op.VDev == "" || len(op.Targets) == 0 {
			return invalidf("mcast wants a device and at least one target")
		}
	case OpSnapshotSave, OpSnapshotActivate:
		if op.Name == "" {
			return invalidf("%s wants a snapshot name", op.Kind)
		}
	case OpTableAdd, OpSetDefault:
		if op.VDev == "" || op.Table == "" || op.Action == "" {
			return invalidf("%s wants a device, table and action", op.Kind)
		}
	case OpTableModify:
		if op.VDev == "" || op.Table == "" || op.Action == "" || op.Handle <= 0 {
			return invalidf("table_modify wants a device, table, action and handle")
		}
	case OpTableDelete:
		if op.VDev == "" || op.Table == "" || op.Handle <= 0 {
			return invalidf("table_delete wants a device, table and handle")
		}
	case OpHealthReset:
		if op.VDev == "" {
			return invalidf("health_reset wants a device name")
		}
	case OpPortAttach:
		if op.PhysPort < 0 || op.Spec == "" {
			return invalidf("port_attach wants a port number and a transport spec")
		}
	case OpPortDetach:
		if op.PhysPort < 0 {
			return invalidf("port_detach wants a port number")
		}
	case OpClearAssignments, OpMeterTick, OpVerify:
		// No payload (verify's VDev scope is optional).
	default:
		return invalidf("unknown op kind %q", op.Kind)
	}
	return nil
}

// ReadResult is the payload of a Query.
type ReadResult struct {
	VDevs     []string             `json:"vdevs,omitempty"`
	Snapshots []string             `json:"snapshots,omitempty"`
	Active    string               `json:"active,omitempty"`
	Stats     *dpmu.VDevStats      `json:"stats,omitempty"`
	Health    *dpmu.HealthSnapshot `json:"health,omitempty"`
	Findings  []verify.Finding     `json:"findings,omitempty"`
	Fuse      *dpmu.FusionStatus   `json:"fuse,omitempty"`
	Ports     []pktio.PortInfo     `json:"ports,omitempty"`
	// PortHealth carries the per-port breaker snapshots for the
	// "port_health" query (and rides along on "health" when I/O is wired).
	PortHealth []pktio.PortHealth `json:"port_health,omitempty"`
	// Dump is the deterministic control-plane state dump (hits zeroed): the
	// crash-recovery parity artifact. Identical control histories produce
	// byte-identical dumps regardless of traffic carried.
	Dump string `json:"dump,omitempty"`
	// Linted marks a lint result so "clean" (no findings) renders
	// distinguishably from a non-lint result.
	Linted bool `json:"linted,omitempty"`
	// Prove carries the symbolic equivalence prover's verdict for the
	// "prove" query; Findings holds its counterexamples and warnings.
	Prove *ProveSummary `json:"prove,omitempty"`
}

// ProveSummary is the prover's verdict: whether native = persona held over
// every compared region, and how many regions the proof covered (zero means
// the proof was vacuous).
type ProveSummary struct {
	Proven  bool `json:"proven"`
	Regions int  `json:"regions"`
}

// Read answers one read-only query as owner. Per-device stats apply the same
// authorization as writes; listings are public.
func (c *Ctl) Read(owner string, q *Query) (*ReadResult, error) {
	switch q.Kind {
	case "vdevs":
		return &ReadResult{VDevs: c.D.VDevs()}, nil
	case "snapshots":
		return &ReadResult{Snapshots: c.D.Snapshots(), Active: c.D.ActiveSnapshot()}, nil
	case "stats":
		st, err := c.D.StatsForVDev(owner, q.VDev)
		if err != nil {
			return nil, wrap(err, -1)
		}
		return &ReadResult{Stats: &st}, nil
	case "health":
		// Querying advances the breaker state machine (SyncHealth runs
		// inside Health), so polling health is also what drives time-based
		// quarantine → probing → healthy transitions.
		snap := c.D.Health()
		if q.VDev != "" {
			for _, v := range snap.VDevs {
				if v.VDev == q.VDev {
					snap.VDevs = []dpmu.VDevHealth{v}
					return &ReadResult{Health: &snap}, nil
				}
			}
			return nil, wrap(fmt.Errorf("no health record for %q: %w", q.VDev, dpmu.ErrNotFound), -1)
		}
		out := &ReadResult{Health: &snap}
		if c.IO != nil {
			out.PortHealth = c.IO.PortHealth()
		}
		return out, nil
	case "port_health":
		if c.IO == nil {
			return &ReadResult{}, nil
		}
		return &ReadResult{PortHealth: c.IO.PortHealth()}, nil
	case "dump":
		d, err := c.D.DumpControl()
		if err != nil {
			return nil, wrap(err, -1)
		}
		return &ReadResult{Dump: d}, nil
	case "lint":
		// The read-only face of the verifier: the same findings the verify
		// op gates on, never failing, so operators can inspect a live
		// switch without risking a rollback. The fuse report rides along:
		// its informational findings explain which constructs keep a vdev
		// off the fused fast path.
		findings := filterFindings(verify.Check(c.D.VerifySource()), q.VDev)
		findings = append(findings, filterFindings(c.D.FuseReport(), q.VDev)...)
		return &ReadResult{Findings: findings, Linted: true}, nil
	case "prove":
		// The symbolic equivalence prover (DESIGN.md §16): partition the
		// modeled packet space into disjoint regions and compare the native
		// program's effect with the persona emulation region by region.
		// Divergence findings carry concrete counterexamples; when the
		// identity replay harness is wired, witnesses traverse the live
		// switch before a finding reaches error severity.
		res, err := c.D.Prove(owner, q.VDev, prove.Options{})
		if err != nil {
			return nil, wrap(err, -1)
		}
		return &ReadResult{
			Findings: res.Findings,
			Prove:    &ProveSummary{Proven: res.Proven, Regions: res.Regions},
		}, nil
	case "fuse":
		st := c.D.FusionStatus()
		return &ReadResult{Fuse: &st}, nil
	case "ports":
		if c.IO == nil {
			return &ReadResult{}, nil
		}
		return &ReadResult{Ports: c.IO.Ports()}, nil
	}
	return nil, wrap(invalidf("unknown query kind %q", q.Kind), -1)
}

// Stats returns the operator-level view: every device's statistics, sorted
// by device name (the same view the metrics exporter scrapes).
func (c *Ctl) Stats() []dpmu.VDevStats {
	st := c.D.AllStats()
	sort.Slice(st, func(i, j int) bool { return st[i].VDev < st[j].VDev })
	return st
}
