package sim_test

import (
	"reflect"
	"sync"
	"testing"

	"hyper4/internal/core/persona"
	"hyper4/internal/functions"
	"hyper4/internal/p4/hlir"
	"hyper4/internal/pkt"
	"hyper4/internal/sim"
)

var (
	h1MAC = pkt.MustMAC("00:00:00:00:00:01")
	h2MAC = pkt.MustMAC("00:00:00:00:00:02")
	s2MAC = pkt.MustMAC("aa:aa:aa:aa:aa:02")
	h1IP  = pkt.MustIP4("10.0.0.1")
	h2IP  = pkt.MustIP4("10.0.0.2")
)

const blockedPort = 9999

// nativeComposed builds Example 1 C's native switch — the composed
// arp_proxy → firewall → router program — with the proxy, the TCP block and
// both hosts' routes installed.
func nativeComposed(tb testing.TB) *sim.Switch {
	tb.Helper()
	sw, err := functions.NewSwitch("native", functions.Composed)
	if err != nil {
		tb.Fatal(err)
	}
	c, err := functions.NewComposedController(sw)
	if err != nil {
		tb.Fatal(err)
	}
	must := func(err error) {
		if err != nil {
			tb.Fatal(err)
		}
	}
	must(c.AddProxiedHost(h2IP, h2MAC))
	must(c.BlockTCPDstPort(blockedPort))
	for _, h := range []struct {
		ip   pkt.IP4
		mac  pkt.MAC
		port int
	}{{h1IP, h1MAC, 1}, {h2IP, h2MAC, 2}} {
		must(c.AddRoute(h.ip, 32, h.ip, h.port))
		must(c.AddNextHop(h.ip, h.mac))
		must(c.AddPortMAC(h.port, s2MAC))
	}
	return sw
}

// nativeFrames is Example 1 C's traffic mix from h1 toward h2: TCP, UDP and
// TCP to the blocked port, each padded to 60, 576 and 1514 bytes.
func nativeFrames() [][]byte {
	var out [][]byte
	for _, size := range []int{60, 576, 1514} {
		for _, l4 := range []pkt.Layer{
			&pkt.TCP{SrcPort: 4000, DstPort: 5201},
			&pkt.UDP{SrcPort: 4000, DstPort: 53},
			&pkt.TCP{SrcPort: 4000, DstPort: blockedPort},
		} {
			proto := uint8(pkt.IPProtoTCP)
			if _, ok := l4.(*pkt.UDP); ok {
				proto = pkt.IPProtoUDP
			}
			layers := []pkt.Layer{
				&pkt.Ethernet{Dst: s2MAC, Src: h1MAC, EtherType: pkt.EtherTypeIPv4},
				&pkt.IPv4{TTL: 64, Protocol: proto, Src: h1IP, Dst: h2IP},
				l4,
			}
			pad := make(pkt.Payload, size-len(pkt.Serialize(layers...)))
			out = append(out, pkt.Serialize(append(layers, pad)...))
		}
	}
	return out
}

// TestProcessNativeConcurrentFirstUse runs a fresh switch's first packets
// from several goroutines at once, so they race to compile the same action
// bodies, and holds every output to a serially run twin's.
func TestProcessNativeConcurrentFirstUse(t *testing.T) {
	frames := nativeFrames()
	serial := nativeComposed(t)
	want := make([][]sim.Output, len(frames))
	for i, f := range frames {
		out, _, err := serial.Process(f, 1)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = out
	}
	sw := nativeComposed(t)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, f := range frames {
				out, _, err := sw.Process(f, 1)
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(out, want[i]) {
					t.Errorf("frame %d: %+v, serial twin %+v", i, out, want[i])
				}
			}
		}()
	}
	wg.Wait()
}

// BenchmarkProcessNative is direct sw.Process over the composed program's
// traffic mix: the interpreter with nothing around it.
func BenchmarkProcessNative(b *testing.B) {
	sw := nativeComposed(b)
	frames := nativeFrames()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := sw.Process(frames[i%len(frames)], 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNew measures switch construction, compilation included, on the
// reference persona (the largest program the repo ships) and on the native
// composed program.
func BenchmarkNew(b *testing.B) {
	per, err := persona.Generate(persona.Reference)
	if err != nil {
		b.Fatal(err)
	}
	composed, err := functions.Load(functions.Composed)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		prog *hlir.Program
	}{{"persona", per.Program}, {"composed", composed}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sim.New("s", c.prog); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
