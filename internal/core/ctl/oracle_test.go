package ctl

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"hyper4/internal/pkt"
	"hyper4/internal/sim"
)

// The pre/post oracle: a write batch is atomic against packets. Twin
// switches hold the state before the batch and after it; a third applies
// the batch again and again under saturating ProcessSeq traffic, and every
// output it produces must equal one twin's output for the same input. A
// packet that saw some of a batch's persona rows but not all of them — a
// moved station deleted but not yet re-added, a deny-all rule without its
// exception, ops 0..k−1 of a batch failing at op k — matches neither.

// oracleCase is one scenario. setup builds the pre-state; each round
// applies fwd and then back, so the live switch alternates between the
// pre- and the post-state. back is nil for a batch that must fail, whose
// post-state is the pre-state.
type oracleCase struct {
	setup     []Op
	fwd, back func(t *testing.T, c *Ctl) []Op
	inputs    []sim.Input
}

// outputKey renders a packet's outcome for comparison.
func outputKey(outs []sim.Output, err error) string {
	if err != nil {
		return "error"
	}
	var b strings.Builder
	for _, o := range outs {
		fmt.Fprintf(&b, "%d:%x;", o.Port, o.Data)
	}
	return b.String()
}

func oracleKeys(c *Ctl, in []sim.Input) []string {
	keys := make([]string, len(in))
	for i, p := range in {
		outs, _, err := c.D.SW.Process(p.Data, p.Port)
		keys[i] = outputKey(outs, err)
	}
	return keys
}

// parseOps parses ctl script lines into ops.
func parseOps(t *testing.T, lines ...string) []Op {
	t.Helper()
	ops := make([]Op, len(lines))
	for i, l := range lines {
		op, _, err := ParseLine(l)
		if err != nil || op == nil {
			t.Fatalf("%q: %v", l, err)
		}
		ops[i] = *op
	}
	return ops
}

// handlesOf lists the virtual handles installed in one table of a device.
func handlesOf(c *Ctl, vdev, table string) []int {
	var hs []int
	for _, dev := range c.D.VerifySource().Devices {
		for _, e := range dev.Entries {
			if dev.Name == vdev && e.Table == table {
				hs = append(hs, e.Handle)
			}
		}
	}
	return hs
}

func tcpFrom(src, dst uint16) []byte {
	return pkt.Pad(pkt.Serialize(
		&pkt.Ethernet{Dst: mac2, Src: mac1, EtherType: pkt.EtherTypeIPv4},
		&pkt.IPv4{TTL: 64, Protocol: pkt.IPProtoTCP, Src: ip1, Dst: ip2},
		&pkt.TCP{SrcPort: src, DstPort: dst},
		pkt.Payload("data"),
	))
}

func runOracle(t *testing.T, tc oracleCase, rounds int) {
	newCtl := func() *Ctl {
		c := newPersonaCtl(t)
		mustBatch(t, c, "op", tc.setup)
		return c
	}
	pre, post, live := newCtl(), newCtl(), newCtl()
	live.D.SetFusion(true)
	if tc.back != nil {
		mustBatch(t, post, "op", tc.fwd(t, post))
	}
	preKeys, postKeys := oracleKeys(pre, tc.inputs), oracleKeys(post, tc.inputs)
	if tc.back != nil && strings.Join(preKeys, "|") == strings.Join(postKeys, "|") {
		t.Fatal("the batch changes no output; the oracle would be vacuous")
	}

	// Each burst carries every input several times over.
	burst := make([]sim.Input, 0, 64)
	for len(burst)+len(tc.inputs) <= cap(burst) {
		burst = append(burst, tc.inputs...)
	}
	var stop atomic.Bool
	var violations, packets atomic.Int64
	var first atomic.Value
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results := make([]sim.Result, len(burst))
			for !stop.Load() {
				if err := live.D.SW.ProcessSeq(burst, results); err != nil {
					first.CompareAndSwap(nil, err.Error())
					violations.Add(1)
					return
				}
				for i := range results {
					j := i % len(tc.inputs)
					if k := outputKey(results[i].Outputs, results[i].Err); k != preKeys[j] && k != postKeys[j] {
						violations.Add(1)
						first.CompareAndSwap(nil, fmt.Sprintf("input %d: got %q, pre %q, post %q", j, k, preKeys[j], postKeys[j]))
					}
				}
				packets.Add(int64(len(results)))
			}
		}()
	}
	halt := func() {
		stop.Store(true)
		wg.Wait()
	}
	defer halt()
	for r := 0; r < rounds && !t.Failed(); r++ {
		_, err := live.WriteBatch("op", tc.fwd(t, live))
		switch {
		case tc.back == nil && err == nil:
			t.Error("the failing batch succeeded")
		case tc.back != nil && err != nil:
			t.Errorf("round %d: %v", r, err)
		case tc.back != nil:
			if _, err := live.WriteBatch("op", tc.back(t, live)); err != nil {
				t.Errorf("round %d, back: %v", r, err)
			}
		}
	}
	halt()
	if n := violations.Load(); n > 0 {
		t.Fatalf("%d of %d outputs matched neither the pre- nor the post-batch state; first: %v", n, packets.Load(), first.Load())
	}
	if packets.Load() == 0 {
		t.Fatal("no traffic ran during the batches")
	}
}

// l2Setup is configuredCtl's device with a third virtual port mapped, so
// the station at 00:00:00:00:00:02 can move from port 2 to port 3.
func l2Setup() []Op {
	return []Op{
		{Kind: OpLoadVDev, VDev: "l2", Function: "l2_switch"},
		{Kind: OpTableAdd, VDev: "l2", Table: "smac", Action: "_nop", Match: []string{"00:00:00:00:00:01"}},
		{Kind: OpTableAdd, VDev: "l2", Table: "dmac", Action: "forward", Match: []string{"00:00:00:00:00:02"}, Args: []string{"2"}},
		{Kind: OpAssign, VDev: "l2", PhysPort: 1, VIngress: 1},
		{Kind: OpMapVPort, VDev: "l2", VPort: 2, PhysPort: 2},
		{Kind: OpMapVPort, VDev: "l2", VPort: 3, PhysPort: 3},
	}
}

// moveStation deletes the station's dmac entry and re-adds it on port.
func moveStation(port int) func(t *testing.T, c *Ctl) []Op {
	return func(t *testing.T, c *Ctl) []Op {
		hs := handlesOf(c, "l2", "dmac")
		if len(hs) != 1 {
			t.Fatalf("dmac handles %v, want one station", hs)
		}
		return parseOps(t,
			fmt.Sprintf("l2 table_delete dmac %d", hs[0]),
			fmt.Sprintf("l2 table_add dmac forward 00:00:00:00:00:02 => %d", port))
	}
}

func TestBatchAtomicAgainstPackets(t *testing.T) {
	const rounds = 50
	l2Inputs := []sim.Input{{Data: tcpFrame(80), Port: 1}}

	t.Run("l2_station_move", func(t *testing.T) {
		runOracle(t, oracleCase{
			setup:  l2Setup(),
			fwd:    moveStation(3),
			back:   moveStation(2),
			inputs: l2Inputs,
		}, rounds)
	})

	// Deny all TCP, except 44444 → 5201: the deny lands first, so a packet
	// between the two ops would drop traffic both states forward.
	t.Run("firewall_rule_insert", func(t *testing.T) {
		runOracle(t, oracleCase{
			setup: []Op{
				{Kind: OpLoadVDev, VDev: "fw", Function: "firewall"},
				{Kind: OpTableAdd, VDev: "fw", Table: "dmac", Action: "forward", Match: []string{"00:00:00:00:00:02"}, Args: []string{"2"}},
				{Kind: OpAssign, VDev: "fw", PhysPort: 1, VIngress: 1},
				{Kind: OpMapVPort, VDev: "fw", VPort: 2, PhysPort: 2},
			},
			fwd: func(t *testing.T, c *Ctl) []Op {
				return parseOps(t,
					"fw table_add tcp_filter _drop 0&&&0 0&&&0 => 5",
					"fw table_add tcp_filter _nop 44444&&&0xffff 5201&&&0xffff => 1")
			},
			back: func(t *testing.T, c *Ctl) []Op {
				var lines []string
				for _, h := range handlesOf(c, "fw", "tcp_filter") {
					lines = append(lines, fmt.Sprintf("fw table_delete tcp_filter %d", h))
				}
				return parseOps(t, lines...)
			},
			inputs: []sim.Input{
				{Data: tcpFrom(44444, 5201), Port: 1},
				{Data: tcpFrom(44444, 80), Port: 1},
				{Data: tcpFrom(55555, 5201), Port: 1},
			},
		}, rounds)
	})

	// Ops 0 and 1 apply, op 2 names an action dmac lacks: the rollback at
	// op 2 must land in the same transaction as ops 0 and 1.
	t.Run("batch_failing_at_op_k", func(t *testing.T) {
		runOracle(t, oracleCase{
			setup: l2Setup(),
			fwd: func(t *testing.T, c *Ctl) []Op {
				ops := moveStation(3)(t, c)
				return append(ops, parseOps(t, "l2 table_add dmac ghost 00:00:00:00:00:09 =>")...)
			},
			inputs: l2Inputs,
		}, rounds)
	})
}
