package dpmu

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"hyper4/internal/bitfield"
	"hyper4/internal/breaker"
	"hyper4/internal/chaos"
	"hyper4/internal/core/persona"
	"hyper4/internal/core/verify"
	"hyper4/internal/functions"
	"hyper4/internal/pkt"
	"hyper4/internal/sim"
)

// TestFusedDifferential is the fused fast path's fidelity harness: two
// identically populated emulated switches — one interpreted, one fused —
// process the same randomized corpus, and must agree on every output byte,
// every pass count, every per-entry hit counter, and the per-vdev traffic
// counters. The fused twin must also demonstrably take the fast path
// (FastHits > 0), so a handler that silently declines everything can't
// pass vacuously.
func TestFusedDifferential(t *testing.T) {
	for _, fn := range functions.Names() {
		t.Run(fn, func(t *testing.T) {
			_, dI := differentialPair(t, fn)
			_, dF := differentialPair(t, fn)
			dF.SetFusion(true)

			rng := rand.New(rand.NewSource(777))
			for i := 0; i < 300; i++ {
				frame := randomFrame(rng)
				if rng.Intn(8) == 0 && len(frame) > 1 {
					// Truncated frames exercise short-extract zero fill.
					frame = frame[:1+rng.Intn(len(frame)-1)]
				}
				port := 1 + rng.Intn(3) // port 3 has no egress mapping
				iOut, iTr, err := dI.SW.Process(frame, port)
				if err != nil {
					t.Fatalf("packet %d interpreted: %v", i, err)
				}
				fOut, fTr, err := dF.SW.Process(frame, port)
				if err != nil {
					t.Fatalf("packet %d fused: %v", i, err)
				}
				if !sameOutputs(iOut, fOut) {
					t.Fatalf("packet %d (port %d) diverged:\ninterpreted: %s\nfused:       %s\nframe: %x",
						i, port, renderOutputs(iOut), renderOutputs(fOut), frame)
				}
				if iTr.Passes != fTr.Passes || iTr.Resubmits != fTr.Resubmits {
					t.Fatalf("packet %d pass accounting diverged: interpreted passes=%d resubmits=%d, fused passes=%d resubmits=%d",
						i, iTr.Passes, iTr.Resubmits, fTr.Passes, fTr.Resubmits)
				}
			}

			if hits := dF.FusionStatus().FastHits; hits == 0 {
				t.Fatal("fused switch never took the fast path; differential was vacuous")
			} else {
				t.Logf("fast path handled %d packets", hits)
			}

			// Hit conservation: both switches ran the same operation
			// sequence, so handles correspond; every installed entry must
			// have identical hit counts.
			compareEntryHits(t, dI.SW, dF.SW)

			// Stats and per-vdev counters conserve too.
			si, sf := dI.SW.Stats(), dF.SW.Stats()
			if si.PacketsIn != sf.PacketsIn || si.PacketsOut != sf.PacketsOut ||
				si.PacketsDropped != sf.PacketsDropped || si.Resubmits != sf.Resubmits {
				t.Errorf("stats diverged: interpreted %+v, fused %+v", si, sf)
			}
			ip, ib, err := dI.SW.CounterRead(persona.CounterVDev, 1)
			if err != nil {
				t.Fatal(err)
			}
			fp, fb, err := dF.SW.CounterRead(persona.CounterVDev, 1)
			if err != nil {
				t.Fatal(err)
			}
			if ip != fp || ib != fb {
				t.Errorf("vdev counter diverged: interpreted (%d pkts, %d bytes), fused (%d pkts, %d bytes)", ip, ib, fp, fb)
			}
		})
	}
}

// compareEntryHits walks every table of both switches and requires each
// entry's hit counter to match, handle by handle.
func compareEntryHits(t *testing.T, a, b *sim.Switch) {
	t.Helper()
	for _, name := range a.TableNames() {
		ae, err := a.TableEntriesOrdered(name)
		if err != nil {
			t.Fatal(err)
		}
		be, err := b.TableEntriesOrdered(name)
		if err != nil {
			t.Fatal(err)
		}
		if len(ae) != len(be) {
			t.Fatalf("table %s: %d vs %d entries", name, len(ae), len(be))
		}
		hits := map[int]int64{}
		for _, e := range ae {
			hits[e.Handle] = e.Hits()
		}
		for _, e := range be {
			if want, ok := hits[e.Handle]; !ok || want != e.Hits() {
				t.Errorf("table %s handle %d: interpreted %d hits, fused %d hits", name, e.Handle, want, e.Hits())
			}
		}
	}
}

// compareCounters requires the two switches to agree on the CounterVDev
// cells of pids and on Stats() but for TableApplies, which counts
// interpreter table applications a fused packet does not perform.
func compareCounters(t *testing.T, a, b *sim.Switch, pids ...int) {
	t.Helper()
	for _, pid := range pids {
		ap, ab, err := a.CounterRead(persona.CounterVDev, pid)
		if err != nil {
			t.Fatal(err)
		}
		bp, bb, err := b.CounterRead(persona.CounterVDev, pid)
		if err != nil {
			t.Fatal(err)
		}
		if ap != bp || ab != bb {
			t.Errorf("vdev %d counter diverged: interpreted (%d pkts, %d bytes), fused (%d pkts, %d bytes)", pid, ap, ab, bp, bb)
		}
	}
	sa, sb := a.Stats(), b.Stats()
	sa.TableApplies, sb.TableApplies = 0, 0
	if sa != sb {
		t.Errorf("stats diverged: interpreted %+v, fused %+v", sa, sb)
	}
}

// TestFusedComposedDifferential runs the chained arp→fw→router composition
// through twin switches, one interpreted and one fused. Cross-plan chaining
// means the fused twin must walk the whole virtual chain in one fast-path
// call: every output byte, every pass-type count (resubmits AND
// recirculations), every entry hit, and every per-vdev counter must match
// the interpreter, and the fast path must demonstrably fire.
func TestFusedComposedDifferential(t *testing.T) {
	dI := newPersonaDPMU(t)
	loadComposition(t, dI)
	dF := newPersonaDPMU(t)
	loadComposition(t, dF)
	dF.SetFusion(true)

	frames := [][]byte{ping(), tcp5201(), l2Frame()}
	rng := rand.New(rand.NewSource(4242))
	for i := 0; i < 200; i++ {
		frames = append(frames, randomFrame(rng))
	}
	for i, frame := range frames {
		port := 1 + i%2
		iOut, iTr, err := dI.SW.Process(frame, port)
		if err != nil {
			t.Fatalf("frame %d interpreted: %v", i, err)
		}
		fOut, fTr, err := dF.SW.Process(frame, port)
		if err != nil {
			t.Fatalf("frame %d fused: %v", i, err)
		}
		if !sameOutputs(iOut, fOut) {
			t.Fatalf("frame %d (port %d) diverged:\ninterpreted: %s\nfused:       %s\nframe: %x",
				i, port, renderOutputs(iOut), renderOutputs(fOut), frame)
		}
		if iTr.Passes != fTr.Passes || iTr.Resubmits != fTr.Resubmits ||
			iTr.Recirculates != fTr.Recirculates || iTr.ClonesE2E != fTr.ClonesE2E {
			t.Fatalf("frame %d pass accounting diverged:\ninterpreted passes=%d resubmits=%d recircs=%d clones=%d\nfused       passes=%d resubmits=%d recircs=%d clones=%d",
				i, iTr.Passes, iTr.Resubmits, iTr.Recirculates, iTr.ClonesE2E,
				fTr.Passes, fTr.Resubmits, fTr.Recirculates, fTr.ClonesE2E)
		}
	}

	if hits := dF.FusionStatus().FastHits; hits == 0 {
		t.Fatal("composed chain never took the fast path; differential was vacuous")
	} else {
		t.Logf("fast path handled %d composed packets", hits)
	}
	compareEntryHits(t, dI.SW, dF.SW)
	compareCounters(t, dI.SW, dF.SW, 1, 2, 3)

	// Virtual links are no longer a fallback: the fuse report must not
	// blame them, and every vdev in the chain must hold a plan.
	for _, f := range dF.FuseReport() {
		if f.Code == verify.CodeUnfusable {
			t.Errorf("composed chain still reports %s: %+v", verify.CodeUnfusable, f)
		}
	}
	if st := dF.FusionStatus(); st.Plans != 3 {
		t.Errorf("plans = %d, want 3 (%+v)", st.Plans, st)
	}
}

// loadMulticastPair wires an L2 source whose virtual port 10 fans out to
// two target L2 switches delivering on physical ports 5 and 6 — the §4.6
// multicast scenario.
func loadMulticastPair(t *testing.T, d *DPMU) {
	t.Helper()
	const owner = "op"
	comp := compileFn(t, functions.L2Switch)
	for _, name := range []string{"src", "tgt_a", "tgt_b"} {
		if _, err := d.Load(name, comp, owner, 0); err != nil {
			t.Fatal(err)
		}
	}
	src := functions.NewL2ControllerFunc(d.Installer(owner, "src"))
	if err := src.AddHost(mac2, 10); err != nil {
		t.Fatal(err)
	}
	ca := functions.NewL2ControllerFunc(d.Installer(owner, "tgt_a"))
	if err := ca.AddHost(mac2, 5); err != nil {
		t.Fatal(err)
	}
	cb := functions.NewL2ControllerFunc(d.Installer(owner, "tgt_b"))
	if err := cb.AddHost(mac2, 6); err != nil {
		t.Fatal(err)
	}
	if err := d.AssignPort(owner, Assignment{PhysPort: 1, VDev: "src", VIngress: 1}); err != nil {
		t.Fatal(err)
	}
	for _, tgt := range []string{"tgt_a", "tgt_b"} {
		for _, port := range []int{5, 6} {
			if err := d.MapVPort(owner, tgt, port, port); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := d.MulticastGroup(owner, "src", 10, []VPortRef{
		{VDev: "tgt_a", VIngress: 1},
		{VDev: "tgt_b", VIngress: 1},
	}); err != nil {
		t.Fatal(err)
	}
}

// TestFusedMulticastDifferential checks multicast against the interpreter
// on a fused switch. Fused plans carry unicast only, so every fan-out frame
// must decline to the interpreter (FastHits unchanged) while every other
// frame on the same switch still fuses; outputs, pass accounting, entry
// hits, Stats() and per-vdev counters must match the interpreted twin, and
// the fuse read must list the multicast route as one unfusable finding.
func TestFusedMulticastDifferential(t *testing.T) {
	dI := newPersonaDPMU(t)
	loadMulticastPair(t, dI)
	dF := newPersonaDPMU(t)
	loadMulticastPair(t, dF)
	dF.SetFusion(true)

	frames := [][]byte{
		pkt.Pad(pkt.Serialize(&pkt.Ethernet{Dst: mac2, Src: mac1, EtherType: 0x0800}, pkt.Payload("mc"))),
		l2Frame(),
	}
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 100; i++ {
		frames = append(frames, randomFrame(rng))
	}
	fanouts, fused := 0, 0
	for i, frame := range frames {
		iOut, iTr, err := dI.SW.Process(frame, 1)
		if err != nil {
			t.Fatalf("frame %d interpreted: %v", i, err)
		}
		hits := dF.FusionStatus().FastHits
		fOut, fTr, err := dF.SW.Process(frame, 1)
		if err != nil {
			t.Fatalf("frame %d fused: %v", i, err)
		}
		if !sameOutputs(iOut, fOut) {
			t.Fatalf("frame %d diverged:\ninterpreted: %s\nfused:       %s",
				i, renderOutputs(iOut), renderOutputs(fOut))
		}
		if iTr.Passes != fTr.Passes || iTr.Resubmits != fTr.Resubmits ||
			iTr.Recirculates != fTr.Recirculates || iTr.ClonesE2E != fTr.ClonesE2E {
			t.Fatalf("frame %d pass accounting diverged: interpreted passes=%d resubmits=%d recircs=%d clones=%d, fused passes=%d resubmits=%d recircs=%d clones=%d",
				i, iTr.Passes, iTr.Resubmits, iTr.Recirculates, iTr.ClonesE2E, fTr.Passes, fTr.Resubmits, fTr.Recirculates, fTr.ClonesE2E)
		}
		took := dF.FusionStatus().FastHits - hits
		if iTr.ClonesE2E > 0 {
			fanouts++
			if took != 0 {
				t.Fatalf("fan-out frame %d took the fast path", i)
			}
			continue
		}
		if took != 1 {
			t.Fatalf("frame %d (no fan-out) declined to the interpreter", i)
		}
		fused++
	}
	if fanouts == 0 || fused == 0 {
		t.Fatalf("%d fan-out and %d fused frames; the differential needs both", fanouts, fused)
	}
	t.Logf("%d fan-out frames declined, %d frames fused", fanouts, fused)

	// The known-good fan-out frame delivers to both targets.
	out, tr, err := dF.SW.Process(frames[0], 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := dI.SW.Process(frames[0], 1); err != nil {
		t.Fatal(err)
	}
	ports := map[int]bool{}
	for _, o := range out {
		ports[o.Port] = true
	}
	if len(out) != 2 || !ports[5] || !ports[6] {
		t.Fatalf("fan-out: %s, want ports 5 and 6", renderOutputs(out))
	}
	if tr.ClonesE2E != 1 || tr.Recirculates != 2 {
		t.Errorf("fan-out: clones=%d recircs=%d, want 1 and 2", tr.ClonesE2E, tr.Recirculates)
	}
	compareEntryHits(t, dI.SW, dF.SW)
	compareCounters(t, dI.SW, dF.SW, 1, 2, 3)

	var mcast []verify.Finding
	for _, f := range dF.FuseReport() {
		if f.Code == verify.CodeUnfusable {
			mcast = append(mcast, f)
		}
	}
	if len(mcast) != 1 || mcast[0].Severity != verify.SevInfo || mcast[0].VDev != "src" || mcast[0].Table != persona.TblVirtnet {
		t.Errorf("fuse read: %+v, want one unfusable info finding on src's %s route", mcast, persona.TblVirtnet)
	}
	if st := dF.FusionStatus(); st.Plans != 3 {
		t.Errorf("plans = %d, want 3: a multicast route must not cost its vdev its plan", st.Plans)
	}
}

// TestFusedPolicingDifferential checks the red-meter truncation path in the
// fused commit phase: with a vdev rate-limited, the fused and interpreted
// twins must agree packet by packet on delivery, drops, and meter-driven
// hit suppression — the red verdict lands mid-commit, after the journal is
// built.
func TestFusedPolicingDifferential(t *testing.T) {
	dI := newPersonaDPMU(t)
	loadL2(t, dI, "l2", "op")
	dF := newPersonaDPMU(t)
	loadL2(t, dF, "l2", "op")
	dF.SetFusion(true)
	for _, d := range []*DPMU{dI, dF} {
		if err := d.SetRateLimit("op", "l2", 3, 3); err != nil {
			t.Fatal(err)
		}
	}

	frame := l2Frame()
	for i := 0; i < 10; i++ {
		iOut, _, err := dI.SW.Process(frame, 1)
		if err != nil {
			t.Fatalf("packet %d interpreted: %v", i, err)
		}
		fOut, _, err := dF.SW.Process(frame, 1)
		if err != nil {
			t.Fatalf("packet %d fused: %v", i, err)
		}
		if !sameOutputs(iOut, fOut) {
			t.Fatalf("packet %d diverged under policing: interpreted %s, fused %s",
				i, renderOutputs(iOut), renderOutputs(fOut))
		}
		want := 1
		if i >= 3 {
			want = 0 // over budget: the meter goes red and the pass is cut short
		}
		if len(fOut) != want {
			t.Fatalf("packet %d: %d outputs, want %d", i, len(fOut), want)
		}
	}
	if dF.FusionStatus().FastHits == 0 {
		t.Fatal("policed vdev never took the fast path")
	}
	compareEntryHits(t, dI.SW, dF.SW)
}

// TestFusedChainPolicingDifferential rate-limits the firewall in the middle
// of the composed arp→fw→router chain. The firewall resubmits to parse, so
// its meter goes red on the first, second or third of its passes, after the
// ARP proxy's passes of the same packet: red verdicts land on later passes
// of multi-pass fused packets, and commit must stop there. The meter window
// restarts every few packets so the verdict keeps moving. Fused and
// interpreted twins must agree packet by packet on outputs and pass
// accounting, and in the end on entry hits, stats and per-vdev counters;
// an unpoliced twin shows that some packets were cut short after their
// first pass, so the test is not vacuous.
func TestFusedChainPolicingDifferential(t *testing.T) {
	dI, dF, dU := newPersonaDPMU(t), newPersonaDPMU(t), newPersonaDPMU(t)
	for _, d := range []*DPMU{dI, dF, dU} {
		loadComposition(t, d)
	}
	dF.SetFusion(true)
	for _, d := range []*DPMU{dI, dF} {
		if err := d.SetRateLimit("op", "fw", 4, 4); err != nil {
			t.Fatal(err)
		}
	}

	frames := chainFrames(rand.New(rand.NewSource(8)), 60)
	for i := 0; i < len(frames); i += 7 {
		frames[i] = tcp5201()
		frames[i+1] = ping()
	}
	cutLate := 0
	for i, frame := range frames {
		if i%3 == 0 {
			for _, d := range []*DPMU{dI, dF} {
				if err := d.TickMeters(); err != nil {
					t.Fatal(err)
				}
			}
		}
		port := 1 + i%2
		iOut, iTr, err := dI.SW.Process(frame, port)
		if err != nil {
			t.Fatalf("packet %d interpreted: %v", i, err)
		}
		fOut, fTr, err := dF.SW.Process(frame, port)
		if err != nil {
			t.Fatalf("packet %d fused: %v", i, err)
		}
		_, uTr, err := dU.SW.Process(frame, port)
		if err != nil {
			t.Fatalf("packet %d unpoliced: %v", i, err)
		}
		if !sameOutputs(iOut, fOut) {
			t.Fatalf("packet %d diverged under chain policing:\ninterpreted: %s\nfused:       %s",
				i, renderOutputs(iOut), renderOutputs(fOut))
		}
		if iTr.Passes != fTr.Passes || iTr.Resubmits != fTr.Resubmits || iTr.Recirculates != fTr.Recirculates {
			t.Fatalf("packet %d pass accounting diverged: interpreted passes=%d resubmits=%d recircs=%d, fused passes=%d resubmits=%d recircs=%d",
				i, iTr.Passes, iTr.Resubmits, iTr.Recirculates, fTr.Passes, fTr.Resubmits, fTr.Recirculates)
		}
		if fTr.Passes > 1 && fTr.Passes < uTr.Passes {
			cutLate++
		}
	}
	if cutLate == 0 {
		t.Fatal("no red verdict landed on a later pass; the differential was vacuous")
	}
	if got := dF.FusionStatus().FastHits; got != uint64(len(frames)) {
		t.Fatalf("%d of %d policed chain packets took the fast path, want all", got, len(frames))
	}
	t.Logf("%d packets cut short after their first pass", cutLate)
	compareEntryHits(t, dI.SW, dF.SW)
	compareCounters(t, dI.SW, dF.SW, 1, 2, 3)
}

// TestFusedNormMissDeclines pins the t_norm fallback semantics: the
// persona parser lands in a requested parse state only when its t_norm row
// exists — a supported byte count whose row was deleted MISSES t_norm in
// the interpreter. A plan built against that state must decline such
// packets rather than silently normalize at the default width.
func TestFusedNormMissDeclines(t *testing.T) {
	_, dI := differentialPair(t, functions.Firewall)
	_, dF := differentialPair(t, functions.Firewall)
	dF.SetFusion(true)

	frame := tcpFrame(80) // multi-pass parse: ether → ipv4 → tcp
	if _, _, err := dF.SW.Process(frame, 1); err != nil {
		t.Fatal(err)
	}
	if dF.FusionStatus().FastHits == 0 {
		t.Fatal("firewall not on fast path before the t_norm surgery")
	}
	if _, _, err := dI.SW.Process(frame, 1); err != nil {
		t.Fatal(err)
	}

	// Delete every t_norm row except the default byte count's, on both
	// switches, then rebuild the fused plans against the mutilated table.
	for _, sw := range []*sim.Switch{dI.SW, dF.SW} {
		rows, err := sw.TableEntriesOrdered(persona.TblNorm)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range rows {
			if len(e.Params) == 1 && int(e.Params[0].Value.Uint64()) != persona.Reference.ParseDefault {
				if err := sw.TableDelete(persona.TblNorm, e.Handle); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	dF.SetFusion(false)
	dF.SetFusion(true)

	hits := dF.FusionStatus().FastHits
	rng := rand.New(rand.NewSource(31))
	frames := [][]byte{frame}
	for i := 0; i < 50; i++ {
		frames = append(frames, randomFrame(rng))
	}
	for i, f := range frames {
		iOut, iTr, err := dI.SW.Process(f, 1)
		if err != nil {
			t.Fatalf("frame %d interpreted: %v", i, err)
		}
		fOut, fTr, err := dF.SW.Process(f, 1)
		if err != nil {
			t.Fatalf("frame %d fused: %v", i, err)
		}
		if !sameOutputs(iOut, fOut) {
			t.Fatalf("frame %d diverged after t_norm deletion:\ninterpreted: %s\nfused:       %s\nframe: %x",
				i, renderOutputs(iOut), renderOutputs(fOut), f)
		}
		if iTr.Passes != fTr.Passes {
			t.Fatalf("frame %d passes diverged: interpreted %d, fused %d", i, iTr.Passes, fTr.Passes)
		}
	}
	compareEntryHits(t, dI.SW, dF.SW)
	// The deep-parse frame must have declined (its requested byte count
	// has no t_norm row), so the fast path only served the shallow frames.
	if got := dF.FusionStatus().FastHits; got == hits {
		t.Log("no frame took the fast path after t_norm surgery (all parsed deep)")
	}
}

// TestFusedChainDepthRefusal builds a two-device virtual-link cycle. The
// interpreter bounds such loops with the pass limit and faults the packet;
// the fused engine must refuse the plans at build time (a fused walk cannot
// fault mid-flight) and report why, while the interpreted fault semantics
// stay exactly as without fusion.
func TestFusedChainDepthRefusal(t *testing.T) {
	build := func(t *testing.T, d *DPMU) {
		const owner = "op"
		comp := compileFn(t, functions.L2Switch)
		for _, name := range []string{"a", "b"} {
			if _, err := d.Load(name, comp, owner, 0); err != nil {
				t.Fatal(err)
			}
			c := functions.NewL2ControllerFunc(d.Installer(owner, name))
			if err := c.AddHost(mac2, 10); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.AssignPort(owner, Assignment{PhysPort: 1, VDev: "a", VIngress: 1}); err != nil {
			t.Fatal(err)
		}
		if err := d.LinkVPorts(owner, "a", 10, "b", 1); err != nil {
			t.Fatal(err)
		}
		if err := d.LinkVPorts(owner, "b", 10, "a", 1); err != nil {
			t.Fatal(err)
		}
	}
	dI := newPersonaDPMU(t)
	build(t, dI)
	dF := newPersonaDPMU(t)
	build(t, dF)
	dF.SetFusion(true)

	// Both plans sit on the cycle, so both are refused.
	if st := dF.FusionStatus(); st.Plans != 0 {
		t.Fatalf("cyclic chain still fused: %d plans (%+v)", st.Plans, st)
	}
	var sawDepth bool
	for _, f := range dF.FuseReport() {
		if f.Code == verify.CodeFuseChainDepth {
			sawDepth = true
			if f.Severity != verify.SevInfo {
				t.Errorf("%s severity = %v, want info", f.Code, f.Severity)
			}
		}
	}
	if !sawDepth {
		t.Fatalf("cyclic chain produced no %s finding: %+v", verify.CodeFuseChainDepth, dF.FuseReport())
	}

	// The looping packet faults identically on both switches: fusion must
	// not change the containment story.
	frame := l2Frame()
	_, _, errI := dI.SW.Process(frame, 1)
	_, _, errF := dF.SW.Process(frame, 1)
	if errI == nil || errF == nil {
		t.Fatalf("looping packet should fault on both: interpreted=%v fused=%v", errI, errF)
	}
	if dF.FusionStatus().FastHits != 0 {
		t.Error("fast path served a packet on a refused chain")
	}
}

// TestFusedChainMemberUnload checks the invalidation edge where a plan in
// the middle of a fused chain disappears: the survivors must rebuild, and
// packets that would cross the dangling link must fall back to the
// interpreter instead of being served by a stale target.
func TestFusedChainMemberUnload(t *testing.T) {
	d := newPersonaDPMU(t)
	loadComposition(t, d) // arp(1) → fw(2) → r(3)
	d.SetFusion(true)

	if out, _, err := d.SW.Process(ping(), 1); err != nil || len(out) != 1 || out[0].Port != 2 {
		t.Fatalf("pre-unload ping: out=%v err=%v", out, err)
	}
	if d.FusionStatus().FastHits == 0 {
		t.Fatal("composed chain not on fast path before unload")
	}
	genBefore := d.FusionStatus().Generation

	if err := d.Unload("op", "fw"); err != nil {
		t.Fatal(err)
	}
	st := d.FusionStatus()
	if st.Generation <= genBefore {
		t.Fatalf("unloading a chain member did not invalidate: generation %d -> %d", genBefore, st.Generation)
	}
	if st.Plans != 2 {
		t.Fatalf("plans after unload = %d, want 2 (%+v)", st.Plans, st)
	}

	// The arp→fw link now dangles (fw's tables are gone). The packet must
	// not fault and must not be forwarded by a stale firewall plan.
	hits := st.FastHits
	out, _, err := d.SW.Process(ping(), 1)
	if err != nil {
		t.Fatalf("post-unload ping: %v", err)
	}
	if len(out) != 0 {
		t.Fatalf("packet crossed an unloaded chain member: %s", renderOutputs(out))
	}
	if got := d.FusionStatus().FastHits; got != hits {
		t.Errorf("fast path served a walk across an unloaded plan: hits %d -> %d", hits, got)
	}
}

// TestFusedMidChainMutation checks that a table write in the middle of a
// fused chain invalidates the whole linked plan: the next packet must see
// the new firewall rule, through the fast path.
func TestFusedMidChainMutation(t *testing.T) {
	d := newPersonaDPMU(t)
	loadComposition(t, d)
	d.SetFusion(true)

	if out, _, err := d.SW.Process(tcpFrame(9999), 1); err != nil || len(out) != 1 {
		t.Fatalf("pre-mutation tcp/9999: out=%v err=%v", out, err)
	}
	genBefore := d.FusionStatus().Generation

	fc := functions.NewFirewallControllerFunc(d.Installer("op", "fw"))
	if err := fc.BlockTCPDstPort(9999); err != nil {
		t.Fatal(err)
	}
	if gen := d.FusionStatus().Generation; gen <= genBefore {
		t.Fatalf("mid-chain table write did not invalidate: generation %d -> %d", genBefore, gen)
	}

	hits := d.FusionStatus().FastHits
	if out, _, err := d.SW.Process(tcpFrame(9999), 1); err != nil || len(out) != 0 {
		t.Fatalf("post-mutation tcp/9999 should drop: out=%v err=%v", out, err)
	}
	if out, _, err := d.SW.Process(ping(), 1); err != nil || len(out) != 1 || out[0].Port != 2 {
		t.Fatalf("post-mutation ping: out=%v err=%v", out, err)
	}
	if got := d.FusionStatus().FastHits; got <= hits {
		t.Error("rebuilt chain not on fast path after mid-chain mutation")
	}
}

// TestFusedRollbackRestoresPlan checks the checkpoint/rollback invalidation
// edge: a batch that mutates tables recompiles the plan, and rolling the
// batch back recompiles it again against the restored state — the fast path
// must serve pre-batch behavior afterwards, not the rolled-back entries.
func TestFusedRollbackRestoresPlan(t *testing.T) {
	d := newPersonaDPMU(t)
	loadL2(t, d, "l2", "alice")
	d.SetFusion(true)

	frame := l2Frame() // mac1 → mac2, forwards out port 2
	mustForward := func(step string, wantPort int) {
		t.Helper()
		out, _, err := d.SW.Process(frame, 1)
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		if len(out) != 1 || out[0].Port != wantPort {
			t.Fatalf("%s: outputs %s, want port %d", step, renderOutputs(out), wantPort)
		}
	}
	mustForward("pre-checkpoint", 2)
	genBefore := d.FusionStatus().Generation

	cp := d.Checkpoint()
	// The batch: repoint mac2 to port 1 with a second dmac entry. The l2
	// program's dmac table is exact-match, so the new row must replace the
	// old one; find and delete the original through the virtual handles.
	v, err := d.VDev("l2")
	if err != nil {
		t.Fatal(err)
	}
	var dmacHandle int
	var dmacParams []sim.MatchParam
	for h, e := range v.entries {
		if e.Table == "dmac" && e.Spec.Action == "forward" && e.Spec.Args[0].Uint64() == 2 {
			dmacHandle, dmacParams = h, e.Spec.Params
		}
	}
	if dmacParams == nil {
		t.Fatal("no dmac forward-to-2 entry found")
	}
	if err := d.TableDelete("alice", "l2", "dmac", dmacHandle); err != nil {
		t.Fatal(err)
	}
	if _, err := d.TableAdd("alice", "l2", EntrySpec{
		Table:  "dmac",
		Action: "forward",
		Params: dmacParams,
		Args:   sim.Args(9, 1),
	}); err != nil {
		t.Fatal(err)
	}
	mustForward("mid-batch (fused plan must track the write)", 1)

	d.Rollback(cp)
	mustForward("post-rollback (fused plan must serve restored state)", 2)

	st := d.FusionStatus()
	if st.Generation <= genBefore {
		t.Errorf("generation did not advance across batch+rollback: %d -> %d", genBefore, st.Generation)
	}
	if st.FastHits == 0 {
		t.Error("fast path idle after rollback; plan was not rebuilt")
	}
}

// TestFusedUnloadFreesPlan checks that unloading a vdev removes its plan
// and port bindings while other vdevs keep their fast path.
func TestFusedUnloadFreesPlan(t *testing.T) {
	d := newPersonaDPMU(t)
	loadL2(t, d, "l2", "alice")

	// A second L2 vdev on ports 3/4.
	if _, err := d.Load("l2b", compileFn(t, functions.L2Switch), "bob", 0); err != nil {
		t.Fatal(err)
	}
	c := functions.NewL2ControllerFunc(d.Installer("bob", "l2b"))
	if err := c.AddHost(mac1, 3); err != nil {
		t.Fatal(err)
	}
	if err := c.AddHost(mac2, 4); err != nil {
		t.Fatal(err)
	}
	for _, port := range []int{3, 4} {
		if err := d.AssignPort("bob", Assignment{PhysPort: port, VDev: "l2b", VIngress: port}); err != nil {
			t.Fatal(err)
		}
		if err := d.MapVPort("bob", "l2b", port, port); err != nil {
			t.Fatal(err)
		}
	}
	d.SetFusion(true)
	if st := d.FusionStatus(); st.Plans != 2 {
		t.Fatalf("plans = %d, want 2 (%+v)", st.Plans, st)
	}

	frame := l2Frame()
	out, _, err := d.SW.Process(frame, 3)
	if err != nil || len(out) != 1 || out[0].Port != 4 {
		t.Fatalf("l2b pre-unload: out=%s err=%v", renderOutputs(out), err)
	}

	if err := d.Unload("bob", "l2b"); err != nil {
		t.Fatal(err)
	}
	st := d.FusionStatus()
	if st.Plans != 1 {
		t.Fatalf("plans after unload = %d, want 1 (%+v)", st.Plans, st)
	}
	hitsBefore := st.FastHits

	// Port 3 traffic now has no assignment: the packet must not be served
	// by a stale plan.
	out, _, err = d.SW.Process(frame, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Fatalf("unloaded vdev still forwarding: %s", renderOutputs(out))
	}
	// The surviving vdev keeps its fast path.
	out, _, err = d.SW.Process(frame, 1)
	if err != nil || len(out) != 1 || out[0].Port != 2 {
		t.Fatalf("l2 post-unload: out=%s err=%v", renderOutputs(out), err)
	}
	if got := d.FusionStatus().FastHits; got <= hitsBefore {
		t.Errorf("surviving vdev not on fast path: hits %d -> %d", hitsBefore, got)
	}
}

// TestFusedQuarantineHandoff checks the containment interaction: a
// quarantined vdev's packets must leave the fast path (the interpreter
// owns quarantine accounting), and recovery puts them back on it.
func TestFusedQuarantineHandoff(t *testing.T) {
	d := newPersonaDPMU(t)
	clock := newFakeClock()
	d.SetHealthClock(clock.now)
	d.SetHealthConfig(testHealthConfig(PolicyDrop))
	loadL2(t, d, "l2", "alice")
	d.SetFusion(true)

	frame := l2Frame()
	if out, _, err := d.SW.Process(frame, 1); err != nil || len(out) != 1 {
		t.Fatalf("pre-fault: out=%v err=%v", out, err)
	}
	if d.FusionStatus().FastHits == 0 {
		t.Fatal("healthy vdev not on fast path")
	}

	// Trip the breaker. While an injector is armed the switch bypasses the
	// fast path entirely, so the faults land in the interpreter.
	d.SW.SetInjector(chaos.New(chaos.Spec{Seed: 1, Attr: 1, PanicEvery: 1, PanicFirst: 3}))
	for i := 0; i < 3; i++ {
		if _, _, err := d.SW.Process(frame, 1); err == nil {
			t.Fatalf("packet %d should fault", i)
		}
	}
	d.SW.SetInjector(nil)
	if got := stateOf(t, d.Health(), "l2"); got.State != breaker.Quarantined {
		t.Fatalf("after trip: %+v", got)
	}

	// Quarantined: dropped by containment, not served by the plan.
	hits := d.FusionStatus().FastHits
	if out, _, err := d.SW.Process(frame, 1); err != nil || len(out) != 0 {
		t.Fatalf("quarantined packet: out=%v err=%v", out, err)
	}
	if got := d.FusionStatus().FastHits; got != hits {
		t.Fatalf("fast path served a quarantined vdev: hits %d -> %d", hits, got)
	}

	// Recover: probes run interpreted; once healthy the fast path resumes.
	clock.advance(150 * time.Millisecond)
	for i := 0; i < 5 && stateOf(t, d.Health(), "l2").State == breaker.Probing; i++ {
		if out, _, err := d.SW.Process(frame, 1); err != nil || len(out) != 1 {
			t.Fatalf("probe %d: out=%v err=%v", i, out, err)
		}
	}
	if got := stateOf(t, d.Health(), "l2"); got.State != breaker.Healthy {
		t.Fatalf("after probes: %+v", got)
	}
	hits = d.FusionStatus().FastHits
	if out, _, err := d.SW.Process(frame, 1); err != nil || len(out) != 1 {
		t.Fatalf("post-recovery: out=%v err=%v", out, err)
	}
	if got := d.FusionStatus().FastHits; got <= hits {
		t.Errorf("fast path did not resume after recovery: hits %d -> %d", hits, got)
	}
}

// TestFusedBypassRewireInvalidates replays the health-driven bypass rewire
// scenario with fusion on: the rewire rewrites virtnet rows, so every plan
// built before it must be invalidated, and forwarding must match the
// interpreted semantics at each stage.
func TestFusedBypassRewireInvalidates(t *testing.T) {
	d := newPersonaDPMU(t)
	clock := newFakeClock()
	d.SetHealthClock(clock.now)
	d.SetHealthConfig(testHealthConfig(PolicyBypass))
	loadComposition(t, d) // arp(1) → fw(2) → r(3)
	d.SetFusion(true)

	if out, _, err := d.SW.Process(tcp5201(), 1); err != nil || len(out) != 0 {
		t.Fatalf("blocked flow pre-fault: out=%v err=%v", out, err)
	}
	if out, _, err := d.SW.Process(ping(), 1); err != nil || len(out) != 1 || out[0].Port != 2 {
		t.Fatalf("ping pre-fault: out=%v err=%v", out, err)
	}
	genBefore := d.FusionStatus().Generation

	// Trip the firewall; the bypass policy rewires the chain around it.
	d.SW.SetInjector(chaos.New(chaos.Spec{Seed: 1, Attr: 2, PanicEvery: 1, PanicFirst: 3}))
	for i := 0; i < 3; i++ {
		if _, _, err := d.SW.Process(ping(), 1); err == nil {
			t.Fatalf("packet %d should fault in fw", i)
		}
	}
	d.SW.SetInjector(nil)
	if got := stateOf(t, d.Health(), "fw"); got.State != breaker.Quarantined || !got.Bypassed {
		t.Fatalf("fw after trip: %+v", got)
	}
	if gen := d.FusionStatus().Generation; gen <= genBefore {
		t.Fatalf("bypass rewire did not invalidate plans: generation %d -> %d", genBefore, gen)
	}

	// Chain forwards around the dead firewall, enforcement suspended.
	if out, _, err := d.SW.Process(ping(), 1); err != nil || len(out) != 1 || out[0].Port != 2 {
		t.Fatalf("ping under bypass: out=%v err=%v", out, err)
	}
	if out, _, err := d.SW.Process(tcp5201(), 1); err != nil || len(out) != 1 {
		t.Fatalf("bypassed flow: out=%v err=%v", out, err)
	}

	// Recovery restores the chain and enforcement.
	clock.advance(150 * time.Millisecond)
	for i := 0; i < 5 && stateOf(t, d.Health(), "fw").State == breaker.Probing; i++ {
		if out, _, err := d.SW.Process(ping(), 1); err != nil || len(out) != 1 {
			t.Fatalf("probe ping %d: out=%v err=%v", i, out, err)
		}
	}
	if got := stateOf(t, d.Health(), "fw"); got.State != breaker.Healthy {
		t.Fatalf("fw after probes: %+v", got)
	}
	if out, _, err := d.SW.Process(tcp5201(), 1); err != nil || len(out) != 0 {
		t.Fatalf("blocked flow post-recovery: out=%v err=%v", out, err)
	}
}

// TestFusedInvalidationUnderTraffic hammers the switch with packets while
// the control plane mutates tables, checkpoints, rolls back, and toggles
// fusion. Run under -race (make race), this is the
// plan-lifetime safety net: no packet may fault, and the final state must
// still forward correctly on the fast path.
func TestFusedInvalidationUnderTraffic(t *testing.T) {
	d := newPersonaDPMU(t)
	loadL2(t, d, "l2", "alice")
	d.SetFusion(true)

	stop := make(chan struct{})
	errs := make(chan error, 4)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				frame := randomFrame(rng)
				if _, _, err := d.SW.Process(frame, 1+rng.Intn(2)); err != nil {
					errs <- fmt.Errorf("traffic goroutine %d: %w", g, err)
					return
				}
			}
		}(g)
	}

	churnMAC := pkt.MustMAC("02:00:00:00:00:99")
	spec := EntrySpec{
		Table:  "dmac",
		Action: "forward",
		Params: []sim.MatchParam{sim.Exact(bitfield.FromBytes(48, churnMAC[:]))},
		Args:   sim.Args(9, 2),
	}
	for i := 0; i < 40; i++ {
		cp := d.Checkpoint()
		h, err := d.TableAdd("alice", "l2", spec)
		if err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			if err := d.TableDelete("alice", "l2", "dmac", h); err != nil {
				t.Fatal(err)
			}
		} else {
			d.Rollback(cp)
		}
		if i%10 == 5 {
			d.SetFusion(false)
			d.SetFusion(true)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}

	hits := d.FusionStatus().FastHits
	if out, _, err := d.SW.Process(l2Frame(), 1); err != nil || len(out) != 1 || out[0].Port != 2 {
		t.Fatalf("post-churn forward: out=%v err=%v", out, err)
	}
	if got := d.FusionStatus().FastHits; got <= hits {
		t.Error("fast path dead after churn")
	}
}

// largeHost is l2 station i of loadLargeTables.
func largeHost(i int) pkt.MAC { return pkt.MAC{0x02, 0, 0, 0, byte(i >> 8), byte(i)} }

// loadLargeTables loads a 256-station l2 switch (512 entries) behind ports
// 1-2 and a firewall behind ports 3-4 whose tcp/udp/ip filters overlap
// masks at several priorities, some rows shadowing others — the shapes a
// mask-grouped lookup must order exactly as the interpreter does.
func loadLargeTables(t *testing.T, d *DPMU) {
	t.Helper()
	const owner = "op"
	if _, err := d.Load("l2", compileFn(t, functions.L2Switch), owner, 0); err != nil {
		t.Fatal(err)
	}
	l2 := functions.NewL2ControllerFunc(d.Installer(owner, "l2"))
	for i := 0; i < 256; i++ {
		if err := l2.AddHost(largeHost(i), 1+i%2); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.Load("fw", compileFn(t, functions.Firewall), owner, 0); err != nil {
		t.Fatal(err)
	}
	fw := functions.NewFirewallControllerFunc(d.Installer(owner, "fw"))
	for _, h := range []pkt.MAC{mac1, mac2} {
		if err := fw.AddHost(h, int(h[5])); err != nil {
			t.Fatal(err)
		}
	}
	add := d.Installer(owner, "fw")
	tern := func(w int, v, m uint64) sim.MatchParam { return sim.TernaryUint(w, v, m) }
	rules := []struct {
		table, action string
		params        []sim.MatchParam
		prio          int
	}{
		{"tcp_filter", "_drop", []sim.MatchParam{tern(16, 0, 0), tern(16, 5201, 0xffff)}, 1},
		{"tcp_filter", "_nop", []sim.MatchParam{tern(16, 0, 0), tern(16, 0x1400, 0xff00)}, 3},
		{"tcp_filter", "_drop", []sim.MatchParam{tern(16, 0, 0), tern(16, 0x1450, 0xfff0)}, 2},
		// Shares 5201's mask but ranks below the 0x145x row: a packet to
		// 0x1455 hits this group first, yet the later group's row wins.
		{"tcp_filter", "_nop", []sim.MatchParam{tern(16, 0, 0), tern(16, 0x1455, 0xffff)}, 5},
		{"tcp_filter", "_drop", []sim.MatchParam{tern(16, 44444, 0xffff), tern(16, 0, 0)}, 4},
		{"tcp_filter", "_nop", []sim.MatchParam{tern(16, 44444, 0xffff), tern(16, 80, 0xffff)}, 0},
		{"udp_filter", "_drop", []sim.MatchParam{tern(16, 0, 0), tern(16, 53, 0xffff)}, 2},
		{"udp_filter", "_nop", []sim.MatchParam{tern(16, 0, 0), tern(16, 0, 0xffc0)}, 1},
		{"udp_filter", "_drop", []sim.MatchParam{tern(16, 0, 0), tern(16, 0, 0)}, 5},
		{"ip_filter", "_drop", []sim.MatchParam{tern(32, 0x0a000042, 0xffffffff), tern(32, 0, 0)}, 2},
		{"ip_filter", "_nop", []sim.MatchParam{tern(32, 0x0a000000, 0xffffff00), tern(32, 0x0a000002, 0xffffffff)}, 1},
		{"ip_filter", "_drop", []sim.MatchParam{tern(32, 0x0a000000, 0xffff0000), tern(32, 0x0a000002, 0xffffffff)}, 3},
	}
	for _, r := range rules {
		if err := add(r.table, r.action, r.params, nil, r.prio); err != nil {
			t.Fatalf("%s %s: %v", r.table, r.action, err)
		}
	}
	for _, as := range []Assignment{
		{PhysPort: 1, VDev: "l2", VIngress: 1}, {PhysPort: 2, VDev: "l2", VIngress: 2},
		{PhysPort: 3, VDev: "fw", VIngress: 1}, {PhysPort: 4, VDev: "fw", VIngress: 2},
	} {
		if err := d.AssignPort(owner, as); err != nil {
			t.Fatal(err)
		}
		if err := d.MapVPort(owner, as.VDev, as.VIngress, as.PhysPort); err != nil {
			t.Fatal(err)
		}
	}
}

// largeTableFrame is a frame for one of loadLargeTables' ports: l2 frames
// to known and unknown stations, firewall frames over a small pool of
// addresses and ports straddling every rule's mask.
func largeTableFrame(rng *rand.Rand) ([]byte, int) {
	if port := 1 + rng.Intn(4); port <= 2 {
		dst := largeHost(rng.Intn(300))
		return pkt.Pad(pkt.Serialize(
			&pkt.Ethernet{Dst: dst, Src: largeHost(rng.Intn(256)), EtherType: 0x88b5},
			pkt.Payload("station"))), port
	}
	ips := []pkt.IP4{ip1, ip2, pkt.MustIP4("10.0.0.66"), pkt.MustIP4("10.0.1.7"), pkt.MustIP4("192.168.0.1")}
	ports := []uint16{53, 80, 5201, 0x1401, 0x1455, 0x14ff, 0x30, 44444, 9999}
	pick := func() uint16 { return ports[rng.Intn(len(ports))] }
	ip := &pkt.IPv4{TTL: 64, Src: ips[rng.Intn(len(ips))], Dst: ips[rng.Intn(len(ips))]}
	eth := &pkt.Ethernet{Dst: []pkt.MAC{mac1, mac2}[rng.Intn(2)], Src: mac1, EtherType: pkt.EtherTypeIPv4}
	var l4 pkt.Layer
	switch rng.Intn(3) {
	case 0:
		ip.Protocol = pkt.IPProtoTCP
		l4 = &pkt.TCP{SrcPort: pick(), DstPort: pick()}
	case 1:
		ip.Protocol = pkt.IPProtoUDP
		l4 = &pkt.UDP{SrcPort: pick(), DstPort: pick()}
	default:
		ip.Protocol = pkt.IPProtoICMP
		l4 = &pkt.ICMP{Type: pkt.ICMPEchoRequest, ID: 1, Seq: 1}
	}
	return pkt.Pad(pkt.Serialize(eth, ip, l4)), 3 + rng.Intn(2)
}

// TestFusedLargeTableDifferential runs the fused/interpreted twins over
// tables large enough that a lookup's cost could depend on them — a
// 512-entry l2 switch beside a firewall of overlapping mixed-mask rules —
// and requires identical bytes, ports, entry hits and vdev counters.
func TestFusedLargeTableDifferential(t *testing.T) {
	dI := newPersonaDPMU(t)
	loadLargeTables(t, dI)
	dF := newPersonaDPMU(t)
	loadLargeTables(t, dF)
	dF.SetFusion(true)
	if st := dF.FusionStatus(); st.Plans != 2 {
		t.Fatalf("plans = %d, want 2 (%+v)", st.Plans, st.Findings)
	}

	rng := rand.New(rand.NewSource(512))
	for i := 0; i < 400; i++ {
		frame, port := largeTableFrame(rng)
		iOut, iTr, err := dI.SW.Process(frame, port)
		if err != nil {
			t.Fatalf("packet %d interpreted: %v", i, err)
		}
		fOut, fTr, err := dF.SW.Process(frame, port)
		if err != nil {
			t.Fatalf("packet %d fused: %v", i, err)
		}
		if !sameOutputs(iOut, fOut) || iTr.Passes != fTr.Passes {
			t.Fatalf("packet %d (port %d) diverged:\ninterpreted: %s (%d passes)\nfused:       %s (%d passes)\nframe: %x",
				i, port, renderOutputs(iOut), iTr.Passes, renderOutputs(fOut), fTr.Passes, frame)
		}
	}
	if hits := dF.FusionStatus().FastHits; hits < 300 {
		t.Fatalf("fast path took %d of 400 packets; the differential is mostly interpreted", hits)
	}
	compareEntryHits(t, dI.SW, dF.SW)
	for pid := 1; pid <= 2; pid++ {
		ip, ib, err := dI.SW.CounterRead(persona.CounterVDev, pid)
		if err != nil {
			t.Fatal(err)
		}
		fp, fb, err := dF.SW.CounterRead(persona.CounterVDev, pid)
		if err != nil {
			t.Fatal(err)
		}
		if ip != fp || ib != fb {
			t.Errorf("vdev %d counter diverged: interpreted (%d pkts, %d bytes), fused (%d pkts, %d bytes)", pid, ip, ib, fp, fb)
		}
	}
}
