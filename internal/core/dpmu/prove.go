package dpmu

import (
	"fmt"
	"sort"

	"hyper4/internal/core/persona/rows"
	"hyper4/internal/core/verify/prove"
	"hyper4/internal/sim"
)

// SetTranslationSkew plants (or clears) a deliberate translation bug — the
// DPMU stops compensating LPM priorities with prefix length — so the
// equivalence prover's smoke tests exercise a realistic divergence. Only
// entries installed while the skew is on are affected.
func (d *DPMU) SetTranslationSkew(on bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.skewLPM = on
}

// Prove runs the symbolic equivalence prover for one virtual device: it
// rebuilds the device's native program in a twin simulator from the retained
// entry specs, models both the twin and the live persona rows symbolically,
// and compares them over the whole packet space restricted to the identity
// ingress window (ports 8..15).
//
// When the identity harness is live — ports 8..15 assigned one-to-one to this
// device and virtual ports 1..15 mapped to their physical namesakes — witness
// packets are replayed through both concrete machines, so divergences are
// only reported at error severity when a real packet reproduces them.
// Without the harness, divergences degrade to warnings. Replayed witnesses
// traverse the live switch and show up in its counters.
func (d *DPMU) Prove(owner, vdev string, opts prove.Options) (*prove.Result, error) {
	d.mu.RLock()
	v, err := d.auth(owner, vdev)
	if err != nil {
		d.mu.RUnlock()
		return nil, err
	}
	comp := v.Comp
	pid := v.PID
	handles := make([]int, 0, len(v.entries))
	for h := range v.entries {
		handles = append(handles, h)
	}
	sort.Ints(handles)
	specs := make([]EntrySpec, 0, len(handles))
	for _, h := range handles {
		specs = append(specs, v.entries[h].Spec)
	}
	defTables := make([]string, 0, len(v.defSpecs))
	for t := range v.defSpecs {
		defTables = append(defTables, t)
	}
	sort.Strings(defTables)
	defSpecs := make([]EntrySpec, 0, len(defTables))
	for _, t := range defTables {
		defSpecs = append(defSpecs, v.defSpecs[t])
	}
	identity := d.identityHarnessLocked(v)
	d.mu.RUnlock()

	twin, err := sim.New("native:"+vdev, comp.Prog)
	if err != nil {
		return nil, fmt.Errorf("dpmu: prove: native twin: %w", err)
	}
	for _, s := range specs {
		if _, err := twin.TableAdd(s.Table, s.Action, s.Params, s.Args, s.Priority); err != nil {
			return nil, fmt.Errorf("dpmu: prove: twin entry %s/%s: %w", s.Table, s.Action, err)
		}
	}
	for _, s := range defSpecs {
		if err := twin.TableSetDefault(s.Table, s.Action, s.Args); err != nil {
			return nil, fmt.Errorf("dpmu: prove: twin default %s/%s: %w", s.Table, s.Action, err)
		}
	}

	L := prove.ModelBytes(d.cfg, comp.MaxBytes)
	restrict := prove.IdentityPortRegion(L)
	opts.Restrict = &restrict
	if opts.VDev == "" {
		opts.VDev = vdev
	}
	opts.ReplayNative = func(frame []byte, port int) ([]sim.Output, error) {
		out, _, err := twin.Process(frame, port)
		return out, err
	}
	if identity {
		sw := d.SW
		opts.ReplayPersona = func(frame []byte, port int) ([]sim.Output, error) {
			out, _, err := sw.Process(frame, port)
			return out, err
		}
	}
	return prove.Equivalence(comp.Prog, d.cfg, twin, d.SW, pid, L, opts)
}

// identityHarnessLocked reports whether the identity proof harness is live
// for device v: t_assign gives it every physical port in 8..15 at the
// matching virtual ingress, and t_virtnet routes each of its virtual ports
// 1..15 to its physical namesake.
func (d *DPMU) identityHarnessLocked(v *VDev) bool {
	for p := 8; p < 16; p++ {
		if o := d.portOwner(p); o.pid != v.PID || o.vin != uint64(p) {
			return false
		}
	}
	t, err := rows.Load(d.SW, d.cfg)
	if err != nil {
		return false
	}
	// (pid, vport) is an exact key: the switch holds at most one route per
	// virtual port.
	phys := 0
	for _, r := range t.VDev(v.PID).Routes {
		if r.Err == nil && r.Kind == rows.RoutePhys && r.VPort >= 1 && r.VPort < 16 && uint64(r.Port) == r.VPort {
			phys++
		}
	}
	return phys == 15
}
