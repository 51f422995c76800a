package sim

// TableApply records one table application.
type TableApply struct {
	Table  string
	Egress bool // applied in the egress pipeline
	Hit    bool
}

// Trace records the work one packet incurred across all of its pipeline
// passes. The paper's evaluation is computed from these fields:
//
//   - Table 1 counts Applies (match-action stages incurred);
//   - Table 4 uses TernaryMatches / TernaryBitsTotal / TernaryBitsActive;
//   - §6.4's discussion uses Resubmits and Recirculates.
type Trace struct {
	Passes       int
	Extracts     int
	Applies      int // number of match-action stages executed
	Primitives   int // primitive invocations
	ApplyLog     []TableApply
	Hits, Misses int

	TernaryMatches    int // applied tables with ternary reads that hit
	TernaryBitsTotal  int // summed widths of ternary-match reads (incl. wildcards)
	TernaryBitsActive int // summed popcounts of matched entries' masks

	Resubmits    int
	Recirculates int
	ClonesI2E    int
	ClonesE2E    int

	Outputs []Output
}

// tracedPacket is an interpreted packet's trace with inline ApplyLog
// backing: a packet of up to len(log) applies costs one allocation for its
// trace. The fused path logs no applies: Process allocates it a bare
// Trace, and ProcessSeq keeps it inline in the packet's Result.
type tracedPacket struct {
	tr  Trace
	log [8]TableApply
}

func newTrace() *Trace {
	p := &tracedPacket{}
	p.tr.ApplyLog = p.log[:0]
	return &p.tr
}

// recordApply notes one table application and its match result.
func (tr *Trace) recordApply(name string, t *table, entry *Entry, egress bool) {
	tr.Applies++
	tr.ApplyLog = append(tr.ApplyLog, TableApply{Table: name, Egress: egress, Hit: entry != nil})
	if entry == nil {
		tr.Misses++
		return
	}
	tr.Hits++
	if t.ternaryWidth > 0 {
		tr.TernaryMatches++
		tr.TernaryBitsTotal += t.ternaryWidth
		tr.TernaryBitsActive += entry.activeMaskBits()
	}
}
