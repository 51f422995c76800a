// Package dpmu implements HyPer4's Data Plane Management Unit (§3.1, §4.5).
// Like the MMU it is named after, the DPMU translates virtual operations —
// table adds and deletes addressed to an emulated program — into physical
// persona table operations, and enforces isolation: it allocates program
// IDs, stamps them into every translated entry (code isolation), checks that
// the requester owns the virtual device it addresses (authorization), and
// enforces per-device entry quotas (memory isolation).
package dpmu

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"hyper4/internal/bitfield"
	"hyper4/internal/core/fuse"
	"hyper4/internal/core/hp4c"
	"hyper4/internal/core/persona"
	"hyper4/internal/core/verify"
	"hyper4/internal/p4/ast"
	"hyper4/internal/sim"
	"hyper4/internal/sim/runtime"
)

// DPMU manages one persona switch.
type DPMU struct {
	SW  *sim.Switch
	cfg persona.Config

	// mu guards the DPMU's own bookkeeping (vdevs, their row sets,
	// snapshots, ID counters) so the metrics exporter can read stats while a
	// management session mutates devices. The persona switch has its own
	// lock, always taken after this one (Update).
	mu sync.RWMutex

	vdevs       map[string]*VDev
	nextPID     int
	nextMatchID int
	nextMcast   int
	nextSession int
	snapshots   map[string][]Assignment
	active      string
	linkSpecs   []linkSpec // logical virtual-link topology (bypass.go)

	// skewLPM, when set, drops the LPM prefix-length priority offset during
	// entry translation. It exists only to plant a realistic compiler-class
	// divergence for the equivalence prover's self-tests (TestProveSmoke):
	// overlapping prefixes then win in installation order, not longest-first.
	skewLPM bool

	// health is the per-vdev circuit-breaker state (health.go). It carries
	// its own leaf mutex because the fault hook feeding it runs on the
	// packet path, where taking d.mu would deadlock.
	health healthTracker
	// resets names the devices Tx.ResetHealth reset in the open Update.
	// Their "healthy" notifications wait for it to commit, so a reset that
	// is rewound is never announced (Update). Guarded by mu.
	resets []string

	// tx is the switch transaction every persona-row write goes through
	// (tx.go); non-nil only inside inTx. Guarded by mu.
	tx *sim.Tx

	// ports is each physical port's t_assign owner, indexed by port, that
	// PIDForPort answers from; republished after every Update so the packet
	// I/O runtime's shard key never waits on mu.
	ports atomic.Pointer[[]portOwner]

	// Fused fast-path cache lifecycle (fusion.go). Guarded by mu.
	fusion       bool
	fusionEngine *fuse.Engine
	fusionGen    uint64 // switch generation the engine was built against
	fusionBuilds uint64
	fuseFindings []verify.Finding
	// compiling is closed when the background compile in flight ends; nil
	// when none is (requestCompileLocked).
	compiling chan struct{}
}

// VDev is one loaded virtual device: a compiled program bound to a program
// ID on the persona.
type VDev struct {
	Name  string
	PID   int
	Owner string
	Comp  *hp4c.Compiled
	// Quota bounds installed virtual entries (0 = unlimited), the memory
	// isolation mechanism of §4.5.
	Quota int

	entries    map[int]*ventry
	nextHandle int
	static     []pentry            // parse/virtnet/csum rows
	defaults   map[string][]pentry // per-table catch-all rows
	// defSpecs retains each default as the caller set it (action + args),
	// control-plane memory like ventry.Spec: the equivalence prover rebuilds
	// a native twin of the device from specs alone.
	defSpecs map[string]EntrySpec
	links    []pentry // virtual network rows
}

// ventry is one virtual entry and the persona rows realizing it. Spec
// retains the entry as the caller installed it — control-plane memory only —
// so the static verifier (internal/core/verify) can re-analyze a device's
// entry set at the virtual level (shadowing, reachability) without
// reverse-translating persona rows. A ventry is also its own checkpoint
// form (checkpoint.go): its Rows and Spec are never mutated in place, only
// replaced, so a copy of the struct is a faithful snapshot.
type ventry struct {
	Handle int       `json:"handle"`
	Table  string    `json:"table"`
	Rows   []pentry  `json:"rows,omitempty"`
	Spec   EntrySpec `json:"spec"`
}

// pentry identifies one persona row. Match marks the a_set_match stage-table
// row (as opposed to prep rows): its per-entry hit counter is what per-vdev
// stats attribution sums over, since a packet that matches a virtual entry
// hits exactly one of its stage rows (the one on its parse path).
type pentry struct {
	Table  string `json:"table"`
	Handle int    `json:"handle"`
	Match  bool   `json:"match,omitempty"`
}

// Assignment binds a physical ingress port (-1 = every port) to a virtual
// device and virtual ingress port.
type Assignment struct {
	PhysPort int
	VDev     string
	VIngress int
}

// New creates a DPMU over a freshly loaded persona switch. It installs the
// persona's base entries.
func New(sw *sim.Switch, p *persona.Persona) (*DPMU, error) {
	if err := runtime.New(sw).ExecAll(p.BaseCommands); err != nil {
		return nil, fmt.Errorf("dpmu: persona base entries: %w", err)
	}
	d := &DPMU{
		SW:          sw,
		cfg:         p.Config,
		vdevs:       map[string]*VDev{},
		nextPID:     0,
		nextMatchID: 0,
		snapshots:   map[string][]Assignment{},
	}
	// Fault containment: attribute packet faults to vdevs via the persona's
	// per-packet program ID and feed them into the circuit breakers.
	d.health.init()
	if err := sw.SetAttributionField(ast.FieldRef{
		Instance: persona.InstMeta, Field: persona.FieldProgram, Index: ast.IndexNone,
	}); err != nil {
		return nil, fmt.Errorf("dpmu: fault attribution: %w", err)
	}
	sw.SetFaultHook(d.onFault)
	return d, nil
}

// Config returns the persona configuration the DPMU manages.
func (d *DPMU) Config() persona.Config { return d.cfg }

// VDevs returns the loaded virtual device names, sorted.
func (d *DPMU) VDevs() []string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.vdevNames()
}

func (d *DPMU) vdevNames() []string {
	out := make([]string, 0, len(d.vdevs))
	for name := range d.vdevs {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// VDev returns a loaded virtual device.
func (d *DPMU) VDev(name string) (*VDev, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.vdev(name)
}

// VDev is DPMU.VDev inside the transaction: it sees devices the tx loaded.
func (t *Tx) VDev(name string) (*VDev, error) { return t.d.vdev(name) }

func (d *DPMU) vdev(name string) (*VDev, error) {
	v, ok := d.vdevs[name]
	if !ok {
		return nil, fmt.Errorf("dpmu: no virtual device %q: %w", name, ErrNotFound)
	}
	return v, nil
}

// Load instantiates a compiled program as a new virtual device owned by
// owner. quota bounds its virtual entries (0 = unlimited).
func (t *Tx) Load(name string, comp *hp4c.Compiled, owner string, quota int) (*VDev, error) {
	d := t.d
	if _, dup := d.vdevs[name]; dup {
		return nil, fmt.Errorf("dpmu: virtual device %q already loaded: %w", name, ErrExists)
	}
	if comp.Cfg != d.cfg {
		return nil, fmt.Errorf("dpmu: program compiled for persona config %+v, switch runs %+v: %w", comp.Cfg, d.cfg, ErrInvalid)
	}
	// Load-time verification: hp4c.Compile refuses to emit inconsistent
	// artifacts, but a Compiled can also arrive deserialized or hand-built;
	// admit only artifacts the static verifier clears.
	if fs := verify.Program(comp); verify.HasErrors(fs) {
		return nil, fmt.Errorf("dpmu: program %s fails verification (%d findings), first: %s: %w", comp.Name, len(fs), fs[0], ErrInvalid)
	}
	v := &VDev{
		Name:     name,
		PID:      d.newID(&d.nextPID),
		Owner:    owner,
		Comp:     comp,
		Quota:    quota,
		entries:  map[int]*ventry{},
		defaults: map[string][]pentry{},
		defSpecs: map[string]EntrySpec{},
	}
	if err := d.installStatic(v); err != nil {
		return nil, err
	}
	keep(d.tx, d.vdevs, name)
	d.vdevs[name] = v
	d.registerHealth(name, v.PID)
	return v, nil
}

// Unload removes a virtual device and every persona row it owns. Live
// traffic of other devices is unaffected — this is the paper's
// modify-the-program-set-at-runtime property.
func (t *Tx) Unload(owner, name string) error {
	d := t.d
	v, err := d.auth(owner, name)
	if err != nil {
		return err
	}
	for _, e := range v.entries {
		d.removeRows(e.Rows)
	}
	for _, rows := range v.defaults {
		d.removeRows(rows)
	}
	d.removeRows(v.links)
	d.removeRows(v.static)
	keep(d.tx, d.vdevs, name)
	delete(d.vdevs, name)
	d.dropLinkSpecsFrom(name)
	d.unregisterHealth(name)
	return nil
}

// auth checks that owner may manage the named device (§4.5: "The DPMU
// monitors requests ... and ensures the program IDs in the entries are
// authorized for the requester").
func (d *DPMU) auth(owner, name string) (*VDev, error) {
	v, ok := d.vdevs[name]
	if !ok {
		return nil, fmt.Errorf("dpmu: no virtual device %q: %w", name, ErrNotFound)
	}
	if v.Owner != "" && owner != v.Owner {
		return nil, fmt.Errorf("dpmu: %q is not authorized for virtual device %q: %w", owner, name, ErrPermission)
	}
	return v, nil
}

func (d *DPMU) removeRows(rows []pentry) {
	for _, r := range rows {
		// Best effort: rows may already be gone during unload cleanup.
		_ = d.tx.TableDelete(r.Table, r.Handle)
	}
}

func (d *DPMU) addRow(dst *[]pentry, table, action string, params []sim.MatchParam, args []bitfield.Value, prio int) error {
	h, err := d.tx.TableAdd(table, action, params, args, prio)
	if errors.Is(err, sim.ErrDuplicateKey) {
		return fmt.Errorf("dpmu: %s: %w: %w", table, sim.ErrDuplicateKey, ErrExists)
	}
	if err != nil {
		return fmt.Errorf("dpmu: %s: %w", table, err)
	}
	*dst = append(*dst, pentry{Table: table, Handle: h})
	return nil
}
