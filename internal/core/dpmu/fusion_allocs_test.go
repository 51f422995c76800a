//go:build !race

// sync.Pool drops a quarter of its Puts under the race detector, so
// allocation counts only mean something without it.

package dpmu

import (
	"testing"

	"hyper4/internal/sim"
)

// TestFusedSteadyStateAllocs guards what fusion bought over the interpreter's
// per-stage allocation (400 per l2 packet, 3000+ across the chain): a fused
// l2 packet costs at most 8 allocations (3 today), and a fused packet
// crossing the whole arp→fw→router chain costs no more than the l2 packet.
// Link hops deparse into pooled buffers, so a packet's allocations do not
// grow with the virtual links it crosses; a return to allocating per hop or
// per match-action stage fails the comparison. Through ProcessSeq, the
// runtime's path, a fused chain packet costs at most 2: its trace lives in
// the results slot.
func TestFusedSteadyStateAllocs(t *testing.T) {
	cases := []struct {
		name  string
		load  func(*testing.T, *DPMU)
		frame []byte
	}{
		{"l2", func(t *testing.T, d *DPMU) { loadL2(t, d, "l2", "op") }, l2Frame()},
		{"composed", loadComposition, ping()},
	}
	allocs := map[string]float64{}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := newPersonaDPMU(t)
			tc.load(t, d)
			d.SetFusion(true)
			// Warm the pools, and pin the measured path: forwarded, not an
			// early drop, and on the fast path.
			out, _, err := d.SW.Process(tc.frame, 1)
			if err != nil || len(out) != 1 || out[0].Port != 2 {
				t.Fatalf("warm-up packet: out=%+v err=%v", out, err)
			}
			if d.FusionStatus().FastHits == 0 {
				t.Fatal("warm-up packet did not take the fast path")
			}
			allocs[tc.name] = testing.AllocsPerRun(200, func() {
				if _, _, err := d.SW.Process(tc.frame, 1); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("fused %s: %.1f allocs/packet", tc.name, allocs[tc.name])
		})
	}
	// The runtime's path: a 64-frame ProcessSeq burst through the chain,
	// whose fused packets keep their traces inline in the results slots.
	// What is left per packet is its output bytes and its Outputs slice.
	t.Run("composed_seq", func(t *testing.T) {
		d := newPersonaDPMU(t)
		loadComposition(t, d)
		d.SetFusion(true)
		in := make([]sim.Input, 64)
		for i := range in {
			in[i] = sim.Input{Data: ping(), Port: 1}
		}
		results := make([]sim.Result, len(in))
		if err := d.SW.ProcessSeq(in, results); err != nil {
			t.Fatal(err)
		}
		if out := results[0].Outputs; len(out) != 1 || out[0].Port != 2 || d.FusionStatus().FastHits != uint64(len(in)) {
			t.Fatalf("warm-up burst: out=%+v fast hits=%d", out, d.FusionStatus().FastHits)
		}
		perPkt := testing.AllocsPerRun(50, func() {
			if err := d.SW.ProcessSeq(in, results); err != nil {
				t.Fatal(err)
			}
		}) / float64(len(in))
		t.Logf("fused composed via ProcessSeq: %.2f allocs/packet", perPkt)
		if perPkt > 2 {
			t.Errorf("fused composed chain through ProcessSeq allocates %.2f/packet, want <= 2", perPkt)
		}
	})
	l2, okL := allocs["l2"]
	composed, okC := allocs["composed"]
	if okL && l2 > 8 {
		t.Errorf("fused l2 allocates %.1f/packet, want <= 8", l2)
	}
	// Compared only when both subtests ran (-run may select one).
	if okL && okC && composed > l2 {
		t.Errorf("fused composed chain allocates %.1f/packet, more than l2's %.1f: link hops allocate again", composed, l2)
	}
}
