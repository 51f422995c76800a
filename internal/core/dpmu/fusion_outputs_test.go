package dpmu

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"

	"hyper4/internal/pkt"
	"hyper4/internal/sim"
)

// maxPayload bounds the test traffic's payloads; frame 0 of each corpus
// carries the largest, so the pooled buffers it grows fit every later frame.
const maxPayload = 1400

func payloadFor(rng *rand.Rand, i int) []byte {
	n := maxPayload
	if i > 0 {
		n = rng.Intn(maxPayload)
	}
	b := make([]byte, n)
	rng.Read(b)
	return b
}

// chainFrames is forwarded traffic for the composed chain in both
// directions, with payloads of random length and contents so that no two
// packets deparse to the same bytes.
func chainFrames(rng *rand.Rand, n int) [][]byte {
	frames := make([][]byte, n)
	for i := range frames {
		src, dst, smac, dmac := ip1, ip2, mac1, mac2
		if rng.Intn(2) == 0 {
			src, dst, smac, dmac = ip2, ip1, mac2, mac1
		}
		frames[i] = pkt.Pad(pkt.Serialize(
			&pkt.Ethernet{Dst: dmac, Src: smac, EtherType: pkt.EtherTypeIPv4},
			&pkt.IPv4{TTL: 64, ID: uint16(i), Protocol: pkt.IPProtoUDP, Src: src, Dst: dst},
			&pkt.UDP{SrcPort: uint16(1024 + rng.Intn(60000)), DstPort: 53},
			pkt.Payload(payloadFor(rng, i))))
	}
	return frames
}

// mcastFrames is fan-out traffic for loadMulticastPair's source switch.
func mcastFrames(rng *rand.Rand, n int) [][]byte {
	frames := make([][]byte, n)
	for i := range frames {
		frames[i] = pkt.Pad(pkt.Serialize(&pkt.Ethernet{Dst: mac2, Src: mac1, EtherType: 0x0800}, pkt.Payload(payloadFor(rng, i))))
	}
	return frames
}

// newTwin is a fresh fused persona switch loaded by load.
func newTwin(t *testing.T, load func(*testing.T, *DPMU)) *DPMU {
	d := newPersonaDPMU(t)
	load(t, d)
	d.SetFusion(true)
	return d
}

// TestFusedOutputsOwnTheirBytes pins the ownership rule of the fused
// executor's pooled link-hop buffers: a walk that crosses a virtual link
// deparses into scratch the next packet reuses, so only bytes leaving on a
// physical port may become an output, and they must be the caller's to
// keep. On the composed chain (two hops to a physical port) and on the
// multicast fixture (one shared hop buffer per fan-out), the outputs of
// packets 1–8 must stay byte-identical while 256 more packets run through
// the buffers packet 0 grew to the largest size (several packets are kept
// because the race detector makes sync.Pool drop some puts); and 4
// goroutines sharing one fused switch must produce, packet for packet, the
// outputs and entry hits of a serial twin.
func TestFusedOutputsOwnTheirBytes(t *testing.T) {
	cases := []struct {
		name   string
		load   func(*testing.T, *DPMU)
		frames func(*rand.Rand, int) [][]byte
		port   func(i int) int
		outs   int
	}{
		{"composed", loadComposition, chainFrames, func(i int) int { return 1 + i%2 }, 1},
		{"multicast", loadMulticastPair, mcastFrames, func(int) int { return 1 }, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := newTwin(t, tc.load)
			const keep = 8
			frames := tc.frames(rand.New(rand.NewSource(5)), 1+keep+256)

			var kept, was [][]sim.Output
			for i, f := range frames {
				out, _, err := d.SW.Process(f, tc.port(i))
				if err != nil || len(out) != tc.outs {
					t.Fatalf("packet %d: out=%s err=%v, want %d outputs", i, renderOutputs(out), err, tc.outs)
				}
				if i >= 1 && i <= keep {
					kept = append(kept, out)
					c := make([]sim.Output, len(out))
					for j, o := range out {
						c[j] = sim.Output{Port: o.Port, Data: bytes.Clone(o.Data)}
					}
					was = append(was, c)
				}
			}
			if got := d.FusionStatus().FastHits; got != uint64(len(frames)) {
				t.Fatalf("%d of %d packets took the fast path, want all", got, len(frames))
			}
			for i := range kept {
				if !sameOutputs(kept[i], was[i]) {
					t.Fatalf("packet %d's outputs changed under later packets:\nnow:  %s\nwere: %s", 1+i, renderOutputs(kept[i]), renderOutputs(was[i]))
				}
			}

			serial, conc := newTwin(t, tc.load), newTwin(t, tc.load)
			frames = tc.frames(rand.New(rand.NewSource(6)), 400)
			wantOut := make([][]sim.Output, len(frames))
			for i, f := range frames {
				out, _, err := serial.SW.Process(f, tc.port(i))
				if err != nil {
					t.Fatal(err)
				}
				wantOut[i] = out
			}
			gotOut := make([][]sim.Output, len(frames))
			errs := make([]error, 4)
			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := g; i < len(frames); i += 4 {
						out, _, err := conc.SW.Process(frames[i], tc.port(i))
						if err != nil {
							errs[g] = err
							return
						}
						gotOut[i] = out
					}
				}(g)
			}
			wg.Wait()
			for g, err := range errs {
				if err != nil {
					t.Fatalf("goroutine %d: %v", g, err)
				}
			}
			for i := range frames {
				if !sameOutputs(gotOut[i], wantOut[i]) {
					t.Fatalf("packet %d: concurrent %s, serial %s", i, renderOutputs(gotOut[i]), renderOutputs(wantOut[i]))
				}
			}
			if s, c := serial.FusionStatus().FastHits, conc.FusionStatus().FastHits; s != uint64(len(frames)) || c != s {
				t.Fatalf("fast hits: serial %d, concurrent %d, want %d each", s, c, len(frames))
			}
			compareEntryHits(t, serial.SW, conc.SW)
		})
	}
}
