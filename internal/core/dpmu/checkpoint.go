package dpmu

// A Checkpoint is the one form of the DPMU's control-plane state besides the
// live maps. WriteBatch (internal/core/ctl) checkpoints the DPMU, applies its
// ops, and on any failure rolls back so the switch and the DPMU's shadow
// state are bit-identical to the pre-batch state; the journal's snapshots
// are the same Checkpoint marshalled to JSON (persist.go). Checkpoint is the
// only live→state conversion and Rollback the only state→live one.
//
// Every type in a Checkpoint carries its own JSON form: bitfield.Value
// encodes as {"w":width,"b":bytes}, sim's dump types and MatchParam are
// tagged in internal/sim, and the DPMU's row (pentry), entry (ventry),
// EntrySpec and link records are tagged where they are declared. The field
// order and tags are the snapshot format, pinned by testdata/state_golden.json.
//
// Both directions copy every container the live side mutates in place, so a
// checkpoint never aliases live state and may be rolled back to more than
// once. They share what is immutable once installed: compiled programs
// (hp4c output), entry specs, the persona-row lists of entries and
// defaults, and the assignment lists of saved snapshots — all replaced,
// never edited.

import (
	"maps"
	"slices"

	"hyper4/internal/core/hp4c"
	"hyper4/internal/sim"
)

// Checkpoint is the DPMU's full control-plane state: its bookkeeping plus a
// sim.SwitchDump of the persona's table state.
type Checkpoint struct {
	NextPID     int                     `json:"next_pid"`
	NextMatchID int                     `json:"next_match_id"`
	NextMcast   int                     `json:"next_mcast"`
	NextSession int                     `json:"next_session"`
	Active      string                  `json:"active,omitempty"`
	VDevs       []vdevState             `json:"vdevs,omitempty"` // sorted by name
	Snapshots   map[string][]Assignment `json:"snapshots,omitempty"`
	Assigns     []Assignment            `json:"assigns,omitempty"`
	AssignPEs   []pentry                `json:"assign_pes,omitempty"`
	LinkSpecs   []linkSpec              `json:"link_specs,omitempty"`
	Switch      sim.SwitchDump          `json:"switch"`
}

// vdevState is one virtual device in a Checkpoint. A vdev serializes its
// function name; the compiled program beside it is not serialized, and a
// restore recompiles it by name.
type vdevState struct {
	Name       string               `json:"name"`
	PID        int                  `json:"pid"`
	Owner      string               `json:"owner,omitempty"`
	Function   string               `json:"function"`
	Comp       *hp4c.Compiled       `json:"-"`
	Quota      int                  `json:"quota,omitempty"`
	NextHandle int                  `json:"next_handle"`
	Entries    []ventry             `json:"entries,omitempty"` // sorted by handle
	Static     []pentry             `json:"static,omitempty"`
	Defaults   map[string][]pentry  `json:"defaults,omitempty"`
	DefSpecs   map[string]EntrySpec `json:"def_specs,omitempty"`
	Links      []pentry             `json:"links,omitempty"`
	VNet       map[int]pentry       `json:"vnet,omitempty"`
}

// cloneMap is a shallow map copy that is never nil: the live maps are
// written to after a Rollback.
func cloneMap[M ~map[K]V, K comparable, V any](m M) M {
	out := make(M, len(m))
	maps.Copy(out, m)
	return out
}

// Checkpoint captures the DPMU's full control-plane state (its own
// bookkeeping plus the persona switch's table state) for a later Rollback
// or EncodeState.
func (d *DPMU) Checkpoint() *Checkpoint {
	d.mu.RLock()
	defer d.mu.RUnlock()
	cp := &Checkpoint{
		NextPID:     d.nextPID,
		NextMatchID: d.nextMatchID,
		NextMcast:   d.nextMcast,
		NextSession: d.nextSession,
		Active:      d.active,
		VDevs:       make([]vdevState, 0, len(d.vdevs)),
		Snapshots:   cloneMap(d.snapshots),
		Assigns:     slices.Clone(d.assigns),
		AssignPEs:   slices.Clone(d.assignPEs),
		LinkSpecs:   slices.Clone(d.linkSpecs),
		Switch:      *d.SW.Dump(),
	}
	for _, name := range d.vdevNames() {
		v := d.vdevs[name]
		vs := vdevState{
			Name:       v.Name,
			PID:        v.PID,
			Owner:      v.Owner,
			Function:   v.Comp.Name,
			Comp:       v.Comp,
			Quota:      v.Quota,
			NextHandle: v.nextHandle,
			Entries:    make([]ventry, 0, len(v.entries)),
			Static:     slices.Clone(v.static),
			Defaults:   cloneMap(v.defaults),
			DefSpecs:   cloneMap(v.defSpecs),
			Links:      slices.Clone(v.links),
			VNet:       cloneMap(v.vnet),
		}
		// Sort the handles, not the entries: swapping whole ventry values
		// costs several times the copy itself.
		handles := make([]int, 0, len(v.entries))
		for h := range v.entries {
			handles = append(handles, h)
		}
		slices.Sort(handles)
		for _, h := range handles {
			vs.Entries = append(vs.Entries, *v.entries[h])
		}
		cp.VDevs = append(cp.VDevs, vs)
	}
	return cp
}

// Rollback rewinds the DPMU and its persona switch to a Checkpoint. The
// checkpoint itself is left intact.
func (t *Tx) Rollback(cp *Checkpoint) {
	d := t.d
	d.vdevs = make(map[string]*VDev, len(cp.VDevs))
	for _, vs := range cp.VDevs {
		v := &VDev{
			Name:       vs.Name,
			PID:        vs.PID,
			Owner:      vs.Owner,
			Comp:       vs.Comp,
			Quota:      vs.Quota,
			entries:    make(map[int]*ventry, len(vs.Entries)),
			nextHandle: vs.NextHandle,
			static:     slices.Clone(vs.Static),
			defaults:   cloneMap(vs.Defaults),
			defSpecs:   cloneMap(vs.DefSpecs),
			links:      slices.Clone(vs.Links),
			vnet:       cloneMap(vs.VNet),
		}
		for _, e := range vs.Entries {
			v.entries[e.Handle] = &e
		}
		d.vdevs[v.Name] = v
	}
	d.nextPID = cp.NextPID
	d.nextMatchID = cp.NextMatchID
	d.nextMcast = cp.NextMcast
	d.nextSession = cp.NextSession
	d.snapshots = cloneMap(cp.Snapshots)
	d.active = cp.Active
	d.assignPEs = slices.Clone(cp.AssignPEs)
	d.assigns = slices.Clone(cp.Assigns)
	d.linkSpecs = slices.Clone(cp.LinkSpecs)
	d.tx.RestoreDump(&cp.Switch)
	// The vdev set (and its PIDs) may have changed since the checkpoint;
	// reconcile the circuit-breaker records with the restored state.
	d.resyncHealth()
}
