package ctl

import (
	"fmt"
	"strings"

	"hyper4/internal/core/dpmu"
	"hyper4/internal/core/verify"
)

// The control plane's verification surface:
//
//	verify [vdev]   — an Op: runs the static verifier over the CURRENT
//	                  state, mid-batch. Error findings fail the op, which
//	                  rolls the whole batch back — so appending "verify" to
//	                  an hp4ctl -batch script turns the batch into a
//	                  dry-run-admission write: either the resulting
//	                  configuration verifies clean, or none of it applies.
//	lint [vdev]     — a Query: the same findings, read-only, never gating.
//
// Both run on a snapshot. lint's is copied out under read locks, so it
// never delays a packet. verify's is copied inside the batch's write
// (Tx.VerifySource), so it sees the batch's earlier ops, and packets wait
// for it like for any other op of the batch.

// applyVerify executes the verify op against the DPMU's current state.
func (c *Ctl) applyVerify(t *dpmu.Tx, op *Op) (Result, error) {
	findings := filterFindings(verify.Check(t.VerifySource()), op.VDev)
	errs, warns := 0, 0
	for _, f := range findings {
		if f.Severity == verify.SevError {
			errs++
		} else {
			warns++
		}
	}
	if errs > 0 {
		return Result{}, &Error{Code: CodeAborted, Op: -1, Msg: findingsMsg(findings, errs)}
	}
	msg := "verify: clean"
	if warns > 0 {
		msg = fmt.Sprintf("verify: %d warning(s)", warns)
	}
	return Result{Msg: msg}, nil
}

// filterFindings scopes findings to one device. Global findings (topology,
// untraceable rows — no VDev) always stay: a vnet cycle concerns every
// device on it.
func filterFindings(fs []verify.Finding, vdev string) []verify.Finding {
	if vdev == "" {
		return fs
	}
	out := fs[:0:0]
	for _, f := range fs {
		if f.VDev == "" || f.VDev == vdev {
			out = append(out, f)
		}
	}
	return out
}

// findingsMsg renders a bounded, deterministic failure message.
func findingsMsg(fs []verify.Finding, errs int) string {
	const maxShown = 8
	var b strings.Builder
	fmt.Fprintf(&b, "verify: %d error finding(s)", errs)
	shown := 0
	for _, f := range fs {
		if shown == maxShown {
			fmt.Fprintf(&b, "; and %d more", len(fs)-shown)
			break
		}
		b.WriteString("; ")
		b.WriteString(f.String())
		shown++
	}
	return b.String()
}
