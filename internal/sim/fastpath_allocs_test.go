//go:build !race

// sync.Pool drops a quarter of its Puts under the race detector, so
// allocation counts only mean something without it.

package sim

import (
	"testing"

	"hyper4/internal/bitfield"
	"hyper4/internal/pkt"
)

// TestProcessSteadyStateAllocs guards the zero-alloc fast path: steady-state
// exact-match processing allocates the trace, the output bytes and the
// output slice, and nothing per field or per lookup (the seed needed 39).
func TestProcessSteadyStateAllocs(t *testing.T) {
	sw := load(t, l2Src)
	mac := pkt.MustMAC("00:00:00:00:00:02")
	if _, err := sw.TableAdd("dmac", "forward",
		[]MatchParam{Exact(bitfield.FromBytes(48, mac[:]))}, Args(9, 3), 0); err != nil {
		t.Fatal(err)
	}
	frame := ethFrame("00:00:00:00:00:02", "00:00:00:00:00:01", 0x1234, "hi")
	// Warm the pool.
	if _, _, err := sw.Process(frame, 1); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(200, func() {
		if _, _, err := sw.Process(frame, 1); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 5 {
		t.Errorf("Process allocates %.1f/op, want <= 5", avg)
	}
}
