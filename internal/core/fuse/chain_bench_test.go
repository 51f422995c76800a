package fuse_test

import (
	"os"
	"testing"

	"hyper4/internal/core/ctl"
	"hyper4/internal/pkt"
)

// BenchmarkRunFastComposed is one fused packet through the paper's Example
// 1 C (the arp_proxy → firewall → router composition of examples/scripts):
// two virtual-link hops, then out a physical port, over a 60/576/1514-byte
// UDP mix, calling the engine's RunFast directly. Its allocs/op are what a
// packet costs the fused layer.
func BenchmarkRunFastComposed(b *testing.B) {
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
