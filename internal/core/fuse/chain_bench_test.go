package fuse_test

import (
	"fmt"
	"os"
	"testing"

	"hyper4/internal/core/ctl"
	"hyper4/internal/core/dpmu"
	"hyper4/internal/pkt"
	"hyper4/internal/sim"
)

// composedChain loads the paper's Example 1 C (the arp_proxy → firewall →
// router composition of examples/scripts) with fusion on, and returns it
// with a 60/576/1514-byte UDP mix that crosses both virtual links and
// leaves on port 2.
func composedChain(b *testing.B) (*dpmu.DPMU, [][]byte) {
	d := newDPMU(b)
	script, err := os.ReadFile("../../../examples/scripts/composition.txt")
	if err != nil {
		b.Fatal(err)
	}
	if err := ctl.NewCLI(ctl.New(d), "op").ExecAll(string(script)); err != nil {
		b.Fatal(err)
	}
	d.SetFusion(true)
	var frames [][]byte
	for _, size := range []int{60, 576, 1514} {
		frames = append(frames, pkt.Serialize(
			&pkt.Ethernet{Dst: pkt.MustMAC("00:00:00:00:00:02"), Src: pkt.MustMAC("00:00:00:00:00:01"), EtherType: pkt.EtherTypeIPv4},
			&pkt.IPv4{TTL: 64, Protocol: pkt.IPProtoUDP, Src: pkt.MustIP4("10.0.0.1"), Dst: pkt.MustIP4("10.0.0.2")},
			&pkt.UDP{SrcPort: 4000, DstPort: 5000},
			pkt.Payload(make([]byte, size-14-20-8))))
	}
	return d, frames
}

// BenchmarkRunFastComposed is one fused packet through the composed chain:
// two virtual-link hops, then out a physical port, calling the engine's
// RunFast directly (a one-packet burst). Its allocs/op are what a packet
// costs the fused layer.
func BenchmarkRunFastComposed(b *testing.B) {
	d, frames := composedChain(b)
	fast := d.SW.FastPath()
	if fast == nil {
		b.Fatal("no fast path installed")
	}
	for _, f := range frames {
		res, ok := fast.RunFast(d.SW, f, 1)
		if !ok || len(res.Outputs) != 1 || res.Outputs[0].Port != 2 || res.Recirculates != 2 {
			b.Fatalf("%d-byte warm-up: ok=%v %+v", len(f), ok, res)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := fast.RunFast(d.SW, frames[i%len(frames)], 1); !ok {
			b.Fatal("the fast path declined")
		}
	}
}

// BenchmarkProcessSeqComposed is the composed chain through the switch's
// batch entry point, the way the packet I/O runtime drives it: bursts of
// 64 frames (one lock, one clock pair and one flush per burst) and of one
// frame (the path a lightly loaded worker takes), beside a plain Process
// call per packet and a Process call the fast path declines. One op is one
// packet.
func BenchmarkProcessSeqComposed(b *testing.B) {
	d, frames := composedChain(b)
	// The inputs cycle through the mix; each burst takes the next window.
	in := make([]sim.Input, 64*len(frames))
	for i := range in {
		in[i] = sim.Input{Data: frames[i%len(frames)], Port: 1}
	}
	results := make([]sim.Result, len(in))
	if err := d.SW.ProcessSeq(in, results); err != nil {
		b.Fatal(err)
	}
	for i, r := range results {
		if len(r.Outputs) != 1 || r.Outputs[0].Port != 2 || r.Trace.Recirculates != 2 {
			b.Fatalf("warm-up packet %d: %+v", i, r)
		}
	}
	run := func(b *testing.B, burst int) {
		b.ReportAllocs()
		off := 0
		for n := 0; n < b.N; n += burst {
			k := min(burst, b.N-n)
			if err := d.SW.ProcessSeq(in[off:off+k], results[:k]); err != nil {
				b.Fatal(err)
			}
			if off += burst; off == len(in) {
				off = 0
			}
		}
	}
	for _, burst := range []int{64, 1} {
		b.Run(fmt.Sprintf("burst=%d", burst), func(b *testing.B) { run(b, burst) })
	}
	b.Run("process", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := d.SW.Process(frames[i%len(frames)], 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	// A packet on a port no plan serves: the fast path declines it on its
	// first checks and the interpreter runs it (one pass, a t_assign miss).
	// This is the dearest case, relative to the packet, for the burst the
	// switch opens and flushes around a decline.
	const unplanned = 77
	hits := d.FusionStatus().FastHits
	if _, _, err := d.SW.Process(frames[0], unplanned); err != nil {
		b.Fatal(err)
	}
	if d.FusionStatus().FastHits != hits {
		b.Fatalf("the fast path took a packet on port %d", unplanned)
	}
	b.Run("declined", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := d.SW.Process(frames[i%len(frames)], unplanned); err != nil {
				b.Fatal(err)
			}
		}
	})
}
