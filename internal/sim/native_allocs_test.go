//go:build !race

// sync.Pool drops a quarter of its Puts under the race detector, so
// allocation counts only mean something without it.

package sim_test

import "testing"

// TestProcessNativeAllocs guards the compiled interpreter's allocation
// budget on the native composed program: a packet costs its trace, its
// output bytes and the output slices, not per-field or per-lookup garbage.
func TestProcessNativeAllocs(t *testing.T) {
	sw := nativeComposed(t)
	frames := nativeFrames()
	forwarded := 0
	for _, f := range frames {
		out, _, err := sw.Process(f, 1)
		if err != nil {
			t.Fatal(err)
		}
		forwarded += len(out)
	}
	// Two thirds of the mix (TCP and UDP to open ports) reach h2.
	if forwarded != 6 {
		t.Fatalf("forwarded %d of %d frames, want 6", forwarded, len(frames))
	}
	i := 0
	avg := testing.AllocsPerRun(300, func() {
		if _, _, err := sw.Process(frames[i%len(frames)], 1); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if avg > 8 {
		t.Errorf("Process allocates %.1f/pkt on the composed program, want <= 8", avg)
	}
}
