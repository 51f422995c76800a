package ctl

import (
	"fmt"
	"testing"
)

// The batch scope: a ctl write compiles the fused plans once, however many
// ops it carries and however it ends, and leaves an engine built against
// the switch's live generation so the next packet is fused again.

func fusionBuilds(c *Ctl) uint64 { return c.D.FusionStatus().Builds }

// dmacAdds is n table_add ops on the configured l2 device, none of which
// the test traffic addresses.
func dmacAdds(n int) []Op {
	ops := make([]Op, n)
	for i := range ops {
		ops[i] = Op{Kind: OpTableAdd, VDev: "l2", Table: "dmac", Action: "forward",
			Match: []string{fmt.Sprintf("02:01:00:00:00:%02x", i)}, Args: []string{"2"}}
	}
	return ops
}

// requireFusedAgain checks the engine matches the live generation and the
// next packet takes the fast path.
func requireFusedAgain(t *testing.T, c *Ctl) {
	t.Helper()
	if st := c.D.FusionStatus(); st.Generation != c.D.SW.Generation() {
		t.Fatalf("engine built against generation %d, switch is at %d", st.Generation, c.D.SW.Generation())
	}
	hits := c.D.FusionStatus().FastHits
	outs, _, err := c.D.SW.Process(tcpFrame(80), 1)
	if err != nil || len(outs) != 1 || outs[0].Port != 2 {
		t.Fatalf("forwarding after the batch: %+v %v", outs, err)
	}
	if c.D.FusionStatus().FastHits != hits+1 {
		t.Fatal("the packet after the batch was not fused")
	}
}

func TestBatchRebuildsFusionOnce(t *testing.T) {
	c := configuredCtl(t, 0)
	c.D.SetFusion(true)
	before := fusionBuilds(c)
	mustBatch(t, c, "op", dmacAdds(16))
	if got := fusionBuilds(c) - before; got != 1 {
		t.Fatalf("16-op batch compiled %d times, want 1", got)
	}
	requireFusedAgain(t, c)
}

// A 16-op batch of 8 adds and 8 deletes writes 32 persona rows under one
// switch write lock: the generation, which every row used to move, moves
// once.
func TestBatchBumpsGenerationOnce(t *testing.T) {
	c := configuredCtl(t, 0)
	c.D.SetFusion(true)
	res := mustBatch(t, c, "op", dmacAdds(8))
	ops := dmacAdds(16)[8:]
	for _, r := range res {
		ops = append(ops, Op{Kind: OpTableDelete, VDev: "l2", Table: "dmac", Handle: r.Handle})
	}
	gen := c.D.SW.Generation()
	mustBatch(t, c, "op", ops)
	if got := c.D.SW.Generation() - gen; got != 1 {
		t.Fatalf("16-op batch moved the generation by %d, want 1", got)
	}
	requireFusedAgain(t, c)
}

func TestFailedBatchRebuildsFusionOnce(t *testing.T) {
	for _, k := range []int{0, 7, 15} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			c := configuredCtl(t, 0)
			c.D.SetFusion(true)
			before := fusionBuilds(c)
			ops := dmacAdds(16)
			ops[k].Action = "ghost"
			if _, err := c.WriteBatch("op", ops); err == nil {
				t.Fatal("batch should fail")
			}
			if got := fusionBuilds(c) - before; got > 1 {
				t.Fatalf("batch failing at op %d compiled %d times, want at most 1", k, got)
			}
			requireFusedAgain(t, c)
		})
	}
}

// A journal append failure rolls back after the batch's Update committed —
// its compile deliberately precedes the fsync — so it may compile twice:
// once at the commit, once for the rollback.
func TestJournalFailureRebuildsFusion(t *testing.T) {
	c, _ := journaledCtl(t, t.TempDir(), 1000)
	mustBatch(t, c, "op", []Op{
		{Kind: OpLoadVDev, VDev: "l2", Function: "l2_switch"},
		{Kind: OpTableAdd, VDev: "l2", Table: "dmac", Action: "forward", Match: []string{"00:00:00:00:00:02"}, Args: []string{"2"}},
		{Kind: OpAssign, VDev: "l2", PhysPort: 1, VIngress: 1},
		{Kind: OpMapVPort, VDev: "l2", VPort: 2, PhysPort: 2},
	})
	c.D.SetFusion(true)
	before := fusionBuilds(c)
	c.journal.wal.Close() // the append's write fails
	if _, err := c.WriteBatch("op", dmacAdds(16)); err == nil {
		t.Fatal("acked a batch the journal could not append")
	}
	if got := fusionBuilds(c) - before; got > 2 {
		t.Fatalf("journal-failed batch compiled %d times, want at most 2", got)
	}
	requireFusedAgain(t, c)
}

func TestJournalReplayRebuildsFusionOnce(t *testing.T) {
	dir := t.TempDir()
	live, _ := journaledCtl(t, dir, 1000)
	mustBatch(t, live, "op", []Op{
		{Kind: OpLoadVDev, VDev: "l2", Function: "l2_switch"},
		{Kind: OpTableAdd, VDev: "l2", Table: "dmac", Action: "forward", Match: []string{"00:00:00:00:00:02"}, Args: []string{"2"}},
		{Kind: OpAssign, VDev: "l2", PhysPort: 1, VIngress: 1},
		{Kind: OpMapVPort, VDev: "l2", VPort: 2, PhysPort: 2},
	})
	const batches = 5
	for i := 0; i < batches; i++ {
		mustBatch(t, live, "op", dmacAdds(16)[i:i+1])
	}
	if err := live.journal.Close(); err != nil {
		t.Fatal(err)
	}

	c := newPersonaCtl(t)
	c.D.SetFusion(true)
	before := fusionBuilds(c)
	j, err := OpenJournal(dir, 1000)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := c.AttachJournal(j)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Replayed != batches+1 {
		t.Fatalf("replayed %d batches, want %d", sum.Replayed, batches+1)
	}
	if got := fusionBuilds(c) - before; got != 1 {
		t.Fatalf("replaying %d batches compiled %d times, want 1", batches+1, got)
	}
	requireFusedAgain(t, c)
}

// A DPMU mutator called directly, with no batch around it, still rebuilds.
func TestDirectDPMUCallRebuildsFusion(t *testing.T) {
	c := configuredCtl(t, 0)
	c.D.SetFusion(true)
	before := fusionBuilds(c)
	if err := c.D.MapVPort("op", "l2", 3, 3); err != nil {
		t.Fatal(err)
	}
	if got := fusionBuilds(c) - before; got != 1 {
		t.Fatalf("direct DPMU call compiled %d times, want 1", got)
	}
	requireFusedAgain(t, c)
}
