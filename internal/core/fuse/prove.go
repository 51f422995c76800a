// Fuse plan validation: ProvePlans rebuilds each fused vdev's symbolic
// persona machine twice — once from the full live tables, once from only the
// rows the plan retained — and requires the two machines equivalent over the
// whole modeled packet space. A plan that silently skipped, reordered, or
// misattributed a row produces a divergent region; the finding names it. The
// check costs a symbolic proof per plan, so Build never runs it; dpmu's
// TestFusePlanProof calls it on every builtin's engine.
package fuse

import (
	"fmt"
	"sort"

	"hyper4/internal/bitfield"
	"hyper4/internal/core/persona"
	"hyper4/internal/core/verify"
	"hyper4/internal/core/verify/prove"
	"hyper4/internal/sim"
)

// filteredSource restricts the named tables of a TableSource to retained
// handles; unfiltered tables pass through.
type filteredSource struct {
	src  prove.TableSource
	keep map[string]map[int]bool
}

func (f filteredSource) TableEntriesOrdered(name string) ([]*sim.Entry, error) {
	rows, err := f.src.TableEntriesOrdered(name)
	if err != nil || f.keep[name] == nil {
		return rows, err
	}
	out := make([]*sim.Entry, 0, len(rows))
	for _, e := range rows {
		if f.keep[name][e.Handle] {
			out = append(out, e)
		}
	}
	return out, nil
}

func (f filteredSource) TableDefault(name string) (string, []bitfield.Value, error) {
	return f.src.TableDefault(name)
}

// ProvePlans proves every plan of the engine against the live tables of the
// switch it was built from. Divergences surface as prove-diverge warnings
// (there is no second concrete machine to replay against, so they never
// reach error severity here); inconclusive regions surface as
// prove-inconclusive.
func (eng *Engine) ProvePlans(sw *sim.Switch, cfg persona.Config) []verify.Finding {
	var out []verify.Finding
	pids := make([]int, 0, len(eng.plans))
	for pid := range eng.plans {
		pids = append(pids, pid)
	}
	sort.Ints(pids)
	for _, pid := range pids {
		p := eng.plans[pid]
		L := p.defaultBytes
		for _, ps := range p.parseBy {
			for _, pr := range ps.rows {
				if pr.more && pr.numBytes > L {
					L = pr.numBytes
				}
			}
		}
		L += 8
		warn := func(format string, args ...any) {
			out = append(out, verify.Finding{
				Code: verify.CodeProveInconclusive, Severity: verify.SevWarn,
				VDev: p.name, Detail: fmt.Sprintf(format, args...),
			})
		}
		live, err := prove.BuildPersona(cfg, sw, pid, L)
		if err != nil {
			warn("plan proof: live persona model failed: %v", err)
			continue
		}
		fused, err := prove.BuildPersona(cfg, filteredSource{src: sw, keep: p.retained}, pid, L)
		if err != nil {
			warn("plan proof: fused-plan model failed: %v", err)
			continue
		}
		res, err := prove.Compare(live, fused, prove.Options{VDev: p.name, MaxFindings: 8})
		if err != nil {
			warn("plan proof: %v", err)
			continue
		}
		for _, f := range res.Findings {
			f.Detail = "fused plan vs live tables: " + f.Detail
			out = append(out, f)
		}
	}
	return out
}
