package dpmu

// The DPMU owns the fused fast path's cache lifecycle (DESIGN.md §13):
// every control-plane mutation that can change what a compiled plan would
// do — table writes, loads/unloads, assignment changes, snapshot
// activation, checkpoint rollback, health-driven bypass rewiring — runs in
// an Update (or, for bypass rewiring, a health query), which ends in
// rebuildFusionLocked once its switch transaction has committed: one
// compile per Update, however many ops and rows it wrote. The engine
// records the generation it was built from and declines any packet once
// the live value differs, so a missed rebuild degrades to the interpreter,
// never to divergence.

import (
	"sort"

	"hyper4/internal/core/fuse"
	"hyper4/internal/core/verify"
)

// FusionVDev is one vdev's fusion state in a FusionStatus.
type FusionVDev struct {
	Name  string `json:"name"`
	PID   int    `json:"pid"`
	Fused bool   `json:"fused"`
}

// FusionStatus is the operator-visible state of the fused fast path,
// surfaced through the ctl `fuse` read.
type FusionStatus struct {
	Enabled    bool             `json:"enabled"`
	Plans      int              `json:"plans"`
	Builds     uint64           `json:"builds"`
	Generation uint64           `json:"generation"`
	FastHits   uint64           `json:"fast_hits"` // packets fused since the last rebuild
	VDevs      []FusionVDev     `json:"vdevs,omitempty"`
	Findings   []verify.Finding `json:"findings,omitempty"`
}

// SetFusion enables or disables the fused fast path. Enabling compiles
// plans for every loaded vdev immediately; disabling uninstalls the engine
// so every packet takes the interpreted pipeline again.
func (d *DPMU) SetFusion(on bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.fusion = on
	if !on {
		d.SW.SetFastPath(nil)
		d.fusionEngine = nil
		d.fusionBuilt = false
		d.fuseFindings = nil
		return
	}
	d.fusionBuilt = false // force a rebuild even at an unchanged generation
	d.rebuildFusionLocked()
}

// FusionEnabled reports whether the fused fast path is on.
func (d *DPMU) FusionEnabled() bool {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.fusion
}

// rebuildFusionLocked recompiles the fused engine if the switch's write
// generation moved since the last build. Callers hold d.mu and no switch
// transaction (fuse.Build reads the tables under the switch's read lock);
// every Update ends here, so the check must stay cheap when nothing
// changed (one atomic load and a compare).
func (d *DPMU) rebuildFusionLocked() {
	if !d.fusion {
		return
	}
	gen := d.SW.Generation()
	if d.fusionBuilt && d.fusionGen == gen {
		return
	}
	eng, findings := fuse.Build(d.SW, d.cfg, d.fuseVDevsLocked())
	d.fusionEngine = eng
	d.fuseFindings = findings
	d.fusionGen = gen
	d.fusionBuilt = true
	d.fusionBuilds++
	if eng == nil {
		d.SW.SetFastPath(nil)
		return
	}
	d.SW.SetFastPath(eng)
}

func (d *DPMU) fuseVDevsLocked() []fuse.VDev {
	vds := make([]fuse.VDev, 0, len(d.vdevs))
	for _, name := range d.vdevNames() {
		vds = append(vds, fuse.VDev{Name: name, PID: d.vdevs[name].PID})
	}
	return vds
}

// FusionStatus reports the fast path's current state.
func (d *DPMU) FusionStatus() FusionStatus {
	d.mu.RLock()
	defer d.mu.RUnlock()
	st := FusionStatus{
		Enabled:    d.fusion,
		Builds:     d.fusionBuilds,
		Generation: d.fusionGen,
		Findings:   append([]verify.Finding(nil), d.fuseFindings...),
	}
	if d.fusionEngine != nil {
		st.FastHits = d.fusionEngine.Hits()
	}
	for _, name := range d.vdevNames() {
		v := d.vdevs[name]
		fused := d.fusionEngine != nil && d.fusionEngine.Fused(v.PID)
		if fused {
			st.Plans++
		}
		st.VDevs = append(st.VDevs, FusionVDev{Name: name, PID: v.PID, Fused: fused})
	}
	return st
}

// FuseReport runs the fuser's analysis without installing anything,
// returning the informational findings that explain which constructs keep
// each vdev (or parts of it) off the fast path. It works whether or not
// fusion is enabled, so lint surfaces can always answer "why is this
// tenant slow".
func (d *DPMU) FuseReport() []verify.Finding {
	d.mu.RLock()
	defer d.mu.RUnlock()
	_, findings := fuse.Build(d.SW, d.cfg, d.fuseVDevsLocked())
	sort.SliceStable(findings, func(i, j int) bool {
		if findings[i].VDev != findings[j].VDev {
			return findings[i].VDev < findings[j].VDev
		}
		return findings[i].Table < findings[j].Table
	})
	return findings
}
