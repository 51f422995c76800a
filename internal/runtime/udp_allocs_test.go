//go:build !race

// The race detector instruments allocation, so allocation counts only mean
// something without it.

package runtime

import (
	goruntime "runtime"
	"testing"
)

// TestUDPRecvSteadyStateAllocs holds a warmed reply-mode Recv to what the
// slab buys: one 64 KiB allocation per slab, not a buffer and a peer
// address per datagram (3 allocations per frame before).
func TestUDPRecvSteadyStateAllocs(t *testing.T) {
	tr, addr := replyTransport(t)
	client := udpClient(t)
	frame := make([]byte, 60)
	var f Frame
	recv := func() {
		if _, err := client.WriteToUDP(frame, addr); err != nil {
			t.Fatal(err)
		}
		if err := tr.Recv(&f); err != nil {
			t.Fatal(err)
		}
	}
	recv() // learn the peer, cut the first slab

	const n = 5000
	var m0, m1 goruntime.MemStats
	goruntime.GC()
	goruntime.ReadMemStats(&m0)
	for range n {
		recv()
	}
	goruntime.ReadMemStats(&m1)
	if per := float64(m1.Mallocs-m0.Mallocs) / n; per > 0.05 {
		t.Fatalf("reply-mode Recv: %.3f allocs/frame, want <= 0.05", per)
	}
}
