package ctl

import (
	"fmt"
	"testing"

	"hyper4/internal/pkt"
)

// The batch scope: a ctl write requests one fused-plan compile, however
// many ops it carries and however it ends, and once that compile settles
// the engine is built against the switch's live generation, so the next
// packet is fused again. The compile runs after the ack, so every check
// below waits for it first (FusionStatus waits through Settle).

func fusionBuilds(c *Ctl) uint64 { return c.D.FusionStatus().Builds }

// dmacAdds is n table_add ops on the configured l2 device, none of which
// the test traffic addresses.
func dmacAdds(n int) []Op {
	ops := make([]Op, n)
	for i := range ops {
		ops[i] = Op{Kind: OpTableAdd, VDev: "l2", Table: "dmac", Action: "forward",
			Match: []string{fmt.Sprintf("02:01:00:00:%02x:%02x", i>>8, i&0xff)}, Args: []string{"2"}}
	}
	return ops
}

// requireFusedAgain waits for the compile the last write requested, then
// checks the engine matches the live generation and the next packet takes
// the fast path.
func requireFusedAgain(t *testing.T, c *Ctl) {
	t.Helper()
	c.D.Settle()
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

// A clear_assignments with none installed changes no row: the switch
// generation stays put, and so does the plan compiled against it.
func TestEmptyClearAssignmentsKeepsGeneration(t *testing.T) {
	c := configuredCtl(t, 0)
	c.D.SetFusion(true)
	clear := []Op{{Kind: OpClearAssignments}}
	mustBatch(t, c, "op", clear)
	gen := c.D.FusionStatus().Generation
	if gen != c.D.SW.Generation() {
		t.Fatalf("engine built against generation %d, switch is at %d", gen, c.D.SW.Generation())
	}
	mustBatch(t, c, "op", clear)
	if got := c.D.FusionStatus().Generation; got != gen || c.D.SW.Generation() != gen {
		t.Fatalf("an empty clear_assignments moved the generation %d -> engine %d, switch %d", gen, got, c.D.SW.Generation())
	}
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

// A journal append failure rolls back after the batch's Update committed,
// so it may compile twice: once for the commit, once for the rollback (or
// once, when the rollback's request finds the commit's still pending).
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

// Eight batches written back to back, each acked before its compile lands,
// settle to one plan at the switch's generation after at most eight
// compiles, and that plan forwards exactly as an interpreted twin does.
func TestBackToBackBatchesSettleToOnePlan(t *testing.T) {
	live, twin := configuredCtl(t, 0), configuredCtl(t, 0)
	live.D.SetFusion(true)
	before := fusionBuilds(live)
	station := func(i int) string { return fmt.Sprintf("02:02:00:00:00:%02x", i) }
	const batches = 8
	for i := 0; i < batches; i++ {
		ops := []Op{{Kind: OpTableAdd, VDev: "l2", Table: "dmac", Action: "forward", Match: []string{station(i)}, Args: []string{"2"}}}
		mustBatch(t, live, "op", ops)
		mustBatch(t, twin, "op", ops)
	}
	live.D.Settle()
	st := live.D.FusionStatus()
	if st.Generation != live.D.SW.Generation() {
		t.Fatalf("settled engine built against generation %d, switch is at %d", st.Generation, live.D.SW.Generation())
	}
	if got := st.Builds - before; got < 1 || got > batches {
		t.Fatalf("%d back-to-back batches compiled %d times, want 1..%d", batches, got, batches)
	}
	if st.Plans != 1 {
		t.Fatalf("settled engine has %d plans, want 1", st.Plans)
	}
	// Every station the batches added, one nobody added, and the
	// configured one.
	var frames [][]byte
	for i := 0; i <= batches; i++ {
		frames = append(frames, pkt.Pad(pkt.Serialize(
			&pkt.Ethernet{Dst: pkt.MustMAC(station(i)), Src: mac1, EtherType: pkt.EtherTypeIPv4},
			&pkt.IPv4{TTL: 64, Protocol: pkt.IPProtoUDP, Src: ip1, Dst: ip2},
			&pkt.UDP{SrcPort: 1000, DstPort: 2000},
			pkt.Payload("data"),
		)))
	}
	frames = append(frames, tcpFrame(80))
	for i, f := range frames {
		fused, _, ferr := live.D.SW.Process(f, 1)
		interp, _, ierr := twin.D.SW.Process(f, 1)
		if got, want := outputKey(fused, ferr), outputKey(interp, ierr); got != want {
			t.Errorf("frame %d: fused %s, interpreted %s", i, got, want)
		}
	}
	if hits := live.D.FusionStatus().FastHits; hits != uint64(len(frames)) {
		t.Fatalf("settled plan fused %d of %d frames", hits, len(frames))
	}
}

// A batch whose journal append fails is rolled back after its commit; the
// plan still settles at the generation the rollback left, without the
// rolled-back device.
func TestJournalFailureSettlesAtRolledBackGeneration(t *testing.T) {
	c, _ := journaledCtl(t, t.TempDir(), 1000)
	cli := NewCLI(c, "op")
	if _, err := cli.Exec("load l2 l2_switch"); err != nil {
		t.Fatal(err)
	}
	c.D.SetFusion(true)
	gen := c.D.SW.Generation()
	c.journal.wal.Close() // the append's write and the undo's truncate fail
	if _, err := cli.Exec("load fw firewall"); err == nil {
		t.Fatal("acked a batch the journal could not append")
	}
	c.D.Settle()
	st := c.D.FusionStatus()
	if live := c.D.SW.Generation(); live <= gen || st.Generation != live {
		t.Fatalf("plan at generation %d, switch at %d (was %d before the batch)", st.Generation, live, gen)
	}
	if len(st.VDevs) != 1 || st.VDevs[0].Name != "l2" || !st.VDevs[0].Fused {
		t.Fatalf("settled plan covers %+v, want only l2, fused", st.VDevs)
	}
}
