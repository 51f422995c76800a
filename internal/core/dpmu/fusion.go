package dpmu

// The DPMU owns the fused fast path's cache lifecycle (DESIGN.md §13):
// every control-plane mutation that can change what a compiled plan would
// do — table writes, loads/unloads, assignment changes, snapshot
// activation, checkpoint rollback, health-driven bypass rewiring — runs in
// an Update (or, for bypass rewiring, a health query), which requests a
// compile once its switch transaction has committed. The compile runs in
// the background and coalesces: requests that arrive while one is pending
// share it, so a burst of Updates costs at most one compile each and often
// fewer. The engine records the generation it was built from and declines
// any packet once the live value differs, so a stale or missing plan
// degrades to the interpreter, never to divergence.

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
// plans for every loaded vdev before it returns; disabling uninstalls the
// engine so every packet takes the interpreted pipeline again.
func (d *DPMU) SetFusion(on bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.fusion = on
	if !on {
		d.SW.SetFastPath(nil)
		d.fusionEngine = nil
		d.fuseFindings = nil
		return
	}
	d.rebuildFusionLocked()
}

// FusionEnabled reports whether the fused fast path is on.
func (d *DPMU) FusionEnabled() bool {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.fusion
}

// fusionCurrentLocked reports whether no compile is needed: fusion is off,
// or the plan was built against the live switch generation (SetFusion(true)
// always builds one). Callers hold d.mu; every Update asks, so it stays one
// atomic load and a compare.
func (d *DPMU) fusionCurrentLocked() bool {
	return !d.fusion || d.fusionGen == d.SW.Generation()
}

// requestCompileLocked starts a background compile unless the plan is
// current or one is already in flight; the one in flight takes d.mu after
// the caller releases it, so it compiles the caller's writes too. Callers
// hold d.mu.
func (d *DPMU) requestCompileLocked() {
	if d.compiling != nil || d.fusionCurrentLocked() {
		return
	}
	done := make(chan struct{})
	d.compiling = done
	go func() {
		d.mu.Lock()
		defer d.mu.Unlock()
		// Writes through the DPMU wait for d.mu, but a raw switch write
		// may land during fuse.Build; compile again until the plan holds.
		for !d.fusionCurrentLocked() {
			d.rebuildFusionLocked()
		}
		d.compiling = nil
		close(done)
	}()
}

// Settle blocks until no compile is in flight, so the plan then matches
// every write that returned before the call (unless a later write raced
// it). Callers must not hold d.mu.
func (d *DPMU) Settle() {
	d.mu.RLock()
	done := d.compiling
	d.mu.RUnlock()
	if done != nil {
		<-done
	}
}

// rebuildFusionLocked compiles the fused engine against the live switch
// generation. Callers hold d.mu and no switch transaction (fuse.Build reads
// the tables under the switch's read lock).
func (d *DPMU) rebuildFusionLocked() {
	gen := d.SW.Generation()
	eng, findings := fuse.Build(d.SW, d.cfg, d.fuseVDevsLocked())
	d.fusionEngine = eng
	d.fuseFindings = findings
	d.fusionGen = gen
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

// FusionStatus reports the fast path's state once any compile in flight
// has finished, so it describes the plan for every write already acked.
func (d *DPMU) FusionStatus() FusionStatus {
	d.Settle()
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
