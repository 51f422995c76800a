package dpmu

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"hyper4/internal/bitfield"
	"hyper4/internal/core/fuse"
	"hyper4/internal/core/persona"
	"hyper4/internal/functions"
	"hyper4/internal/pkt"
	"hyper4/internal/sim"
)

// burstScenario is one of the fused differentials' set-ups, replayed
// through ProcessSeq: twin builds one populated DPMU (called twice, for the
// interpreted and the fused twin), traffic is its corpus, and pids are the
// vdevs whose CounterVDev cells must agree.
type burstScenario struct {
	name    string
	twin    func(*testing.T) *DPMU
	traffic func() []sim.Input
	pids    []int
}

// portless puts every frame on one ingress port.
func portless(port int, frames ...[]byte) []sim.Input {
	in := make([]sim.Input, len(frames))
	for i, f := range frames {
		in[i] = sim.Input{Data: f, Port: port}
	}
	return in
}

// withTwin builds a persona DPMU populated by load.
func withTwin(load func(*testing.T, *DPMU)) func(*testing.T) *DPMU {
	return func(t *testing.T) *DPMU {
		d := newPersonaDPMU(t)
		load(t, d)
		return d
	}
}

// burstScenarios are the traffic and set-ups of TestFusedDifferential,
// TestFusedComposedDifferential, TestFusedMulticastDifferential,
// TestFusedPolicingDifferential, TestFusedNormMissDeclines and
// TestFusedLargeTableDifferential, with the same seeds.
func burstScenarios() []burstScenario {
	var scs []burstScenario
	for _, fn := range functions.Names() {
		scs = append(scs, burstScenario{
			name: fn,
			twin: func(t *testing.T) *DPMU { _, d := differentialPair(t, fn); return d },
			traffic: func() []sim.Input {
				rng := rand.New(rand.NewSource(777))
				var in []sim.Input
				for i := 0; i < 300; i++ {
					frame := randomFrame(rng)
					if rng.Intn(8) == 0 && len(frame) > 1 {
						frame = frame[:1+rng.Intn(len(frame)-1)]
					}
					in = append(in, sim.Input{Data: frame, Port: 1 + rng.Intn(3)})
				}
				return in
			},
			pids: []int{1},
		})
	}
	return append(scs,
		burstScenario{
			name: "composed",
			twin: withTwin(loadComposition),
			traffic: func() []sim.Input {
				frames := [][]byte{ping(), tcp5201(), l2Frame()}
				rng := rand.New(rand.NewSource(4242))
				for i := 0; i < 200; i++ {
					frames = append(frames, randomFrame(rng))
				}
				in := portless(1, frames...)
				for i := range in {
					in[i].Port = 1 + i%2
				}
				return in
			},
			pids: []int{1, 2, 3},
		},
		burstScenario{
			name: "multicast",
			twin: withTwin(loadMulticastPair),
			traffic: func() []sim.Input {
				frames := [][]byte{
					pkt.Pad(pkt.Serialize(&pkt.Ethernet{Dst: mac2, Src: mac1, EtherType: 0x0800}, pkt.Payload("mc"))),
					l2Frame(),
				}
				rng := rand.New(rand.NewSource(99))
				for i := 0; i < 100; i++ {
					frames = append(frames, randomFrame(rng))
				}
				return portless(1, frames...)
			},
			pids: []int{1, 2, 3},
		},
		burstScenario{
			name: "policing",
			twin: withTwin(func(t *testing.T, d *DPMU) {
				loadL2(t, d, "l2", "op")
				if err := d.SetRateLimit("op", "l2", 3, 3); err != nil {
					t.Fatal(err)
				}
			}),
			traffic: func() []sim.Input {
				frames := make([][]byte, 10)
				for i := range frames {
					frames[i] = l2Frame()
				}
				return portless(1, frames...)
			},
			pids: []int{1},
		},
		burstScenario{
			name: "norm_miss",
			twin: func(t *testing.T) *DPMU {
				_, d := differentialPair(t, functions.Firewall)
				rows, err := d.SW.TableEntriesOrdered(persona.TblNorm)
				if err != nil {
					t.Fatal(err)
				}
				for _, e := range rows {
					if len(e.Params) == 1 && int(e.Params[0].Value.Uint64()) != persona.Reference.ParseDefault {
						if err := d.SW.TableDelete(persona.TblNorm, e.Handle); err != nil {
							t.Fatal(err)
						}
					}
				}
				return d
			},
			traffic: func() []sim.Input {
				rng := rand.New(rand.NewSource(31))
				frames := [][]byte{tcpFrame(80)}
				for i := 0; i < 50; i++ {
					frames = append(frames, randomFrame(rng))
				}
				return portless(1, frames...)
			},
			pids: []int{1},
		},
		burstScenario{
			name: "large_tables",
			twin: withTwin(loadLargeTables),
			traffic: func() []sim.Input {
				rng := rand.New(rand.NewSource(512))
				in := make([]sim.Input, 400)
				for i := range in {
					in[i].Data, in[i].Port = largeTableFrame(rng)
				}
				return in
			},
			pids: []int{1, 2},
		},
	)
}

// driveBursts is the burst differentials' one oracle. It builds an
// interpreted and a fused twin, runs in through the interpreted one packet
// by packet with Process and through the fused one with ProcessSeq, in
// bursts of size packets, and requires packet by packet the same outputs
// and pass accounting, and at the end the same entry hits, the same
// CounterVDev cells of pids, the same stats and pass counters, and one
// latency sample per packet. It returns the fused twin.
func driveBursts(t *testing.T, twin func(*testing.T) *DPMU, in []sim.Input, size int, pids []int) *DPMU {
	t.Helper()
	dI, dF := twin(t), twin(t)
	dF.SetFusion(true)
	results := make([]sim.Result, size)
	for lo := 0; lo < len(in); lo += size {
		burst := in[lo:min(lo+size, len(in))]
		_ = dF.SW.ProcessSeq(burst, results) // per-packet errors are compared below
		for j, p := range burst {
			i, r := lo+j, results[j]
			iOut, iTr, iErr := dI.SW.Process(p.Data, p.Port)
			if (iErr == nil) != (r.Err == nil) {
				t.Fatalf("packet %d (port %d): interpreted err %v, burst err %v", i, p.Port, iErr, r.Err)
			}
			if iErr != nil {
				continue
			}
			if !sameOutputs(iOut, r.Outputs) {
				t.Fatalf("packet %d (port %d) diverged:\ninterpreted: %s\nburst:       %s\nframe: %x",
					i, p.Port, renderOutputs(iOut), renderOutputs(r.Outputs), p.Data)
			}
			if iTr.Passes != r.Trace.Passes || iTr.Resubmits != r.Trace.Resubmits ||
				iTr.Recirculates != r.Trace.Recirculates || iTr.ClonesE2E != r.Trace.ClonesE2E {
				t.Fatalf("packet %d pass accounting diverged:\ninterpreted passes=%d resubmits=%d recircs=%d clones=%d\nburst       passes=%d resubmits=%d recircs=%d clones=%d",
					i, iTr.Passes, iTr.Resubmits, iTr.Recirculates, iTr.ClonesE2E,
					r.Trace.Passes, r.Trace.Resubmits, r.Trace.Recirculates, r.Trace.ClonesE2E)
			}
		}
	}
	if dF.FusionStatus().FastHits == 0 {
		t.Fatal("the fused twin never took the fast path; the differential was vacuous")
	}
	compareEntryHits(t, dI.SW, dF.SW)
	for _, pid := range pids {
		ip, ib, err := dI.SW.CounterRead(persona.CounterVDev, pid)
		if err != nil {
			t.Fatal(err)
		}
		fp, fb, err := dF.SW.CounterRead(persona.CounterVDev, pid)
		if err != nil {
			t.Fatal(err)
		}
		if ip != fp || ib != fb {
			t.Errorf("vdev %d counter diverged: interpreted (%d pkts, %d bytes), burst (%d pkts, %d bytes)", pid, ip, ib, fp, fb)
		}
	}
	// TableApplies counts interpreter table applications, which a fused
	// packet does not perform; every other stat must agree.
	si, sf := dI.SW.Stats(), dF.SW.Stats()
	si.TableApplies, sf.TableApplies = 0, 0
	if si != sf {
		t.Errorf("stats diverged: interpreted %+v, burst %+v", si, sf)
	}
	mi, mf := dI.SW.Metrics(), dF.SW.Metrics()
	if mi.Passes != mf.Passes {
		t.Errorf("pass counters diverged: interpreted %+v, burst %+v", mi.Passes, mf.Passes)
	}
	if mi.Latency.Count != int64(len(in)) || mf.Latency.Count != int64(len(in)) {
		t.Errorf("latency samples: interpreted %d, burst %d, want one per packet (%d)",
			mi.Latency.Count, mf.Latency.Count, len(in))
	}
	return dF
}

// TestFusedBurstDifferential replays the fused differentials' traffic
// through ProcessSeq, in the runtime's 64-frame bursts and in ragged
// 7-frame ones, against the per-packet interpreted twin: a burst's deferred
// hits, counter cells, stats and pass counters must land exactly where the
// per-packet path puts them.
func TestFusedBurstDifferential(t *testing.T) {
	for _, sc := range burstScenarios() {
		for _, size := range []int{64, 7} {
			t.Run(fmt.Sprintf("%s/burst=%d", sc.name, size), func(t *testing.T) {
				driveBursts(t, sc.twin, sc.traffic(), size, sc.pids)
			})
		}
	}
}

// TestFusedBurstDeclineSplitsBurst runs one burst of the form [fused,
// declined, fused] — the middle frame arrives on a port no vdev is
// assigned, so the fused plan declines it — through the composed chain:
// the burst is flushed before the declined frame runs interpreted, and the
// fused frames on either side of it are served by the fast path.
func TestFusedBurstDeclineSplitsBurst(t *testing.T) {
	const unplanned = 77
	in := []sim.Input{{Data: ping(), Port: 1}, {Data: ping(), Port: unplanned}, {Data: ping(), Port: 1}}
	dF := driveBursts(t, withTwin(loadComposition), in, len(in), []int{1, 2, 3})
	if got := dF.FusionStatus().FastHits; got != 2 {
		t.Errorf("fast path served %d of the burst's packets, want 2 (the declined one runs interpreted)", got)
	}
	if ta := dF.SW.Metrics().Tables[persona.TblAssign]; ta.Hits+ta.Misses != 1 {
		t.Errorf("interpreted t_assign applies = %d, want 1: only the declined frame runs interpreted", ta.Hits+ta.Misses)
	}
}

// TestFusedBurstInvalidationUnderTraffic is the burst twin of
// TestFusedInvalidationUnderTraffic: ProcessSeq workers drive bursts while
// the control plane writes and deletes entries, each write rebuilding the
// engine (and declining the bursts that catch the old one). Run under
// -race (make race) it checks the burst lock discipline; at
// quiescence every packet must be accounted for exactly once — served by
// one of the engines or by the interpreter — and every packet must have
// hit its port's t_assign row.
func TestFusedBurstInvalidationUnderTraffic(t *testing.T) {
	d := newPersonaDPMU(t)
	loadL2(t, d, "l2", "alice")
	d.SetFusion(true)
	engines := map[*fuse.Engine]bool{}
	noteEngine := func() {
		d.mu.RLock()
		if d.fusionEngine != nil {
			engines[d.fusionEngine] = true
		}
		d.mu.RUnlock()
	}
	noteEngine()

	const workers, bursts, size = 3, 40, 16
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			in := make([]sim.Input, size)
			results := make([]sim.Result, size)
			for b := 0; b < bursts; b++ {
				for i := range in {
					in[i] = sim.Input{Data: randomFrame(rng), Port: 1 + rng.Intn(2)}
				}
				if err := d.SW.ProcessSeq(in, results); err != nil {
					t.Errorf("worker %d burst %d: %v", g, b, err)
					return
				}
			}
		}(g)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()

	churnMAC := pkt.MustMAC("02:00:00:00:00:99")
	spec := EntrySpec{
		Table:  "dmac",
		Action: "forward",
		Params: []sim.MatchParam{sim.Exact(bitfield.FromBytes(48, churnMAC[:]))},
		Args:   sim.Args(9, 2),
	}
	for writing := true; writing; {
		select {
		case <-done:
			writing = false
			continue
		default:
		}
		h, err := d.TableAdd("alice", "l2", spec)
		if err != nil {
			t.Fatal(err)
		}
		noteEngine()
		if err := d.TableDelete("alice", "l2", "dmac", h); err != nil {
			t.Fatal(err)
		}
		noteEngine()
	}

	sent := int64(workers * bursts * size)
	var fused uint64
	for e := range engines {
		fused += e.Hits()
	}
	ta := d.SW.Metrics().Tables[persona.TblAssign]
	interpreted := ta.Hits + ta.Misses
	if int64(fused)+interpreted != sent {
		t.Errorf("fused %d + interpreted %d = %d packets, sent %d", fused, interpreted, int64(fused)+interpreted, sent)
	}
	if fused == 0 {
		t.Error("no burst took the fast path")
	}
	assign, err := d.SW.TableEntriesOrdered(persona.TblAssign)
	if err != nil {
		t.Fatal(err)
	}
	var assignHits int64
	for _, e := range assign {
		assignHits += e.Hits()
	}
	if assignHits != sent {
		t.Errorf("t_assign rows hit %d times, sent %d packets", assignHits, sent)
	}
	if st := d.SW.Stats(); int64(st.PacketsIn) != sent {
		t.Errorf("PacketsIn = %d, sent %d", st.PacketsIn, sent)
	}
	if n := d.SW.Metrics().Latency.Count; n != sent {
		t.Errorf("latency samples = %d, sent %d", n, sent)
	}
}
