//go:build !race

// sync.Pool drops a quarter of its Puts under the race detector, so
// allocation counts only mean something without it.

package dpmu

import "testing"

// TestFusedSteadyStateAllocs guards what fusion bought over the interpreter's
// per-stage allocation (400 per l2 packet, 3000+ across the chain): a fused
// l2 packet and a fused packet crossing the whole arp→fw→router chain cost 3
// and 5 allocations today, and a return to allocating per match-action stage
// would blow straight through the bound.
func TestFusedSteadyStateAllocs(t *testing.T) {
	cases := []struct {
		name  string
		load  func(*testing.T, *DPMU)
		frame []byte
	}{
		{"l2", func(t *testing.T, d *DPMU) { loadL2(t, d, "l2", "op") }, l2Frame()},
		{"composed", loadComposition, ping()},
	}
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
			avg := testing.AllocsPerRun(200, func() {
				if _, _, err := d.SW.Process(tc.frame, 1); err != nil {
					t.Fatal(err)
				}
			})
			if avg > 8 {
				t.Errorf("fused %s allocates %.1f/packet, want <= 8", tc.name, avg)
			}
			t.Logf("fused %s: %.1f allocs/packet", tc.name, avg)
		})
	}
}
