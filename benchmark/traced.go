package main

import (
	"fmt"
	"time"

	"hyper4/internal/core/ctl"
)

// tracedRun is the second kind of run: one set-up cut into spans, direct
// calls into each layer, a short untraced saturate, and then one round of
// the data and control phases with both transports and the processor wrapped.
type tracedRun struct {
	w     *workload
	opt   options
	p     *prelude
	o     *outcome
	r     *rig
	spans []span
}

func (t *tracedRun) set(name string, v float64) { t.o.set(perLayer, name, v) }

func runTraced(w *workload, opt options) (*outcome, error) {
	p, err := prepare(w, opt)
	if err != nil {
		return nil, err
	}
	defer p.twins.close()
	t := &tracedRun{w: w, opt: opt, p: p, o: &outcome{result: result{Metrics: map[string]metric{}}}}
	t.o.notef("env %+v", p.env)
	for _, d := range perLayer { // a layer the workload does not use reads 0
		t.set(d.name, 0)
	}
	if t.r, err = setUp(w, p.bufs, p.expect, p.twins.pers, opt.tmp); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer t.r.close()
	if err := p.checkMeasured(t.r); err != nil {
		return nil, err
	}
	t.setUpSpans()
	if err := t.directCalls(); err != nil {
		return nil, err
	}
	if err := t.wire(); err != nil {
		return nil, err
	}
	path, err := writeTrace(opt.out, traceFile{Workload: w.name, Env: p.env, Spans: t.spans})
	if err != nil {
		return nil, err
	}
	t.o.notef("%d spans in %s", len(t.spans), path)
	return t.o, nil
}

// setUpSpans reports the measured set-up's own contiguous spans, and what
// the twin's direct calls add: on a persona switch parse, compile and load
// happen inside ctl.populate, where they cannot be told apart from outside.
func (t *tracedRun) setUpSpans() {
	own := t.r.spans
	t.spans = append([]span{{Name: "setup", Start: own[0].Start, End: own[len(own)-1].End, Frame: -1}}, own...)
	t.spans = append(t.spans, t.p.twins.spans...)
	sum := spanMs(own, "p4.parse") + spanMs(own, "sim.new")
	for _, name := range []string{"persona.gen", "dpmu.new", "ctl.journal_open", "ctl.populate", "fuse.enable", "runtime.attach", "runtime.first_frame"} {
		t.set(name+"_ms", spanMs(own, name))
		sum += spanMs(own, name)
	}
	t.o.notef("set-up %.3f ms; its spans sum to %.3f ms", t.r.setupS*1e3, sum)
	if t.w.native {
		t.set("p4.parse_ms", spanMs(own, "p4.parse"))
		return
	}
	twin := t.p.twins
	t.set("p4.parse_ms", spanMs(twin.spans, "p4.parse"))
	t.set("hp4c.compile_ms", spanMs(twin.spans, "hp4c.compile"))
	t.set("dpmu.load_ms", spanMs(twin.spans, "dpmu.load"))
	t.set("dpmu.entries", float64(twin.entries))
}

// directCalls times calls into each layer while no traffic runs.
func (t *tracedRun) directCalls() error {
	pool, sw := t.p.pool, t.r.sw
	each := t.opt.share(200)
	proc, err := processCost(sw, pool, each)
	if err != nil {
		return err
	}
	fast, err := runFastCost(sw, pool, each)
	if err != nil {
		return err
	}
	interp, err := processCost(t.p.twins.interp, pool, each)
	if err != nil {
		return err
	}
	passes, lookups, err := passCounts(sw, pool)
	if err != nil {
		return err
	}
	t.set("sim.process_ns_per_pkt", proc.ns)
	t.set("sim.process_allocs_per_pkt", proc.allocs)
	t.set("sim.process_bytes_per_pkt", proc.bytes)
	t.set("fuse.runfast_ns_per_pkt", fast.ns)
	t.set("fuse.runfast_allocs_per_pkt", fast.allocs)
	if fast.ns > 0 {
		t.set("sim.dispatch_ns_per_pkt", proc.ns-fast.ns)
	}
	t.set("sim.persona_interp_ns_per_pkt", interp.ns)
	t.set("sim.passes_per_pkt", passes)
	t.set("sim.lookups_per_pkt", lookups)
	t.o.notef("direct calls: 5 rounds of %v over the %d-frame pool each", each, poolSize)

	lines := t.w.populationLines(true)
	start := time.Now()
	for i := 0; i < 20; i++ {
		if _, err := parseLines(lines); err != nil {
			return err
		}
	}
	t.set("ctl.parse_us_per_op", float64(time.Since(start))/1e3/float64(20*len(lines)))
	if t.w.native {
		return nil
	}

	// The write path's pieces, on the fused twin: a checkpoint, the batches
	// the control phase issues (closed loop, through a journal-less ctl), and
	// one table_add alone (token parse, dpmu.TableAdd, fusion rebuild).
	twin := t.p.twins
	var checkpoints, batches, adds []float64
	for i := 0; i < 20; i++ {
		start := time.Now()
		twin.fusedD.Checkpoint()
		checkpoints = append(checkpoints, float64(time.Since(start))/1e3)
	}
	var prev []installed
	for i := 0; i < 50; i++ {
		start := time.Now()
		if prev, err = twin.fusedCtl.write("", t.w.churnEntries(i), prev); err != nil {
			return fmt.Errorf("journal-less twin, batch %d: %w", i, err)
		}
		batches = append(batches, float64(time.Since(start))/1e6)
	}
	e := t.w.churnEntries(1 << 20)[0]
	add, _, err := ctl.ParseLine(e.vdev + " " + e.line)
	if err != nil {
		return err
	}
	for i := 0; i < 20; i++ {
		start := time.Now()
		res, err := twin.fusedCtl.cp.Apply(owner, add)
		adds = append(adds, float64(time.Since(start))/1e3)
		if err != nil {
			return err
		}
		del := ctl.Op{Kind: ctl.OpTableDelete, VDev: add.VDev, Table: add.Table, Handle: res.Handle}
		if _, err := twin.fusedCtl.cp.Apply(owner, &del); err != nil {
			return err
		}
	}
	t.set("dpmu.checkpoint_us", median(checkpoints))
	t.set("ctl.write_nojournal_p50_ms", median(batches))
	t.set("dpmu.table_add_us", median(adds))
	start = time.Now()
	t.r.d.FuseReport()
	t.set("fuse.build_ms", float64(time.Since(start))/1e6)
	return nil
}

// wire measures through the runtime: the null runtime, the untraced rate on
// the measured rig, then the traced rig — same switch, fresh wires and
// runtime, all wrapped.
func (t *tracedRun) wire() error {
	w, r, o := t.w, t.r, t.o
	// Set-up, direct calls and the untraced saturate take about half of the
	// run; the traced round gets the rest.
	ph := plan(w, t.opt.seconds*0.55, 1)
	saturate := time.Duration(ph.segments) * ph.segment
	null, err := nullRuntimeCost(w, t.p.bufs, t.p.pool, saturate/4)
	if err != nil {
		return fmt.Errorf("null runtime: %w", err)
	}
	t.set("runtime.null_ns_per_pkt", null.ns)
	t.set("runtime.null_allocs_per_pkt", null.allocs)

	ctrl := &controller{cp: r.cp, w: w, withWAL: true}
	plainWarm, err := r.gen.run(window, ph.warm, 0, false)
	if err != nil {
		return err
	}
	plain, err := r.saturate(ctrl, saturate/3, ph.segment)
	if err != nil {
		return err
	}
	o.Attempted += plainWarm.sent + plain.sent
	o.Failed += plainWarm.lost + plain.lost + r.gen.wrong.Load()

	r.detach()
	tr := newTracer()
	if err := r.attach(t.p.bufs, t.p.expect, tr); err != nil {
		return err
	}
	warm, err := r.gen.run(window, ph.warm, 0, false)
	if err != nil {
		return err
	}
	var depths []float64
	sampleRings := func() func() { // port 1's ingress ring, every 10 ms
		stop, done := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(done)
			tick := time.NewTicker(10 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					for _, pm := range r.rt.Metrics().Ports {
						if pm.Port == 1 {
							depths = append(depths, float64(pm.RxDepth[0]))
						}
					}
				}
			}
		}()
		return func() { close(stop); <-done }
	}
	ping, sat, err := measure(r, ph, tr, ctrl, nil, sampleRings)
	if err != nil {
		return err
	}
	cr := ctrl.res
	tally(o, r, cr, warm, ping, sat)
	t.spans = append(t.spans, tr.spans...)

	pp, loaded := tr.phase["pingpong"], tr.phase["saturate"]
	segSum := 0.0
	for i, name := range []string{"runtime.rx_wire_ns", "runtime.ring_rx_wait_ns", "sim.process_span_ns", "runtime.ring_tx_wait_ns", "runtime.tx_send_ns", "runtime.tx_wire_ns"} {
		t.set(name, median(pp.segNs[i]))
		segSum += median(pp.segNs[i])
	}
	t.set("runtime.unloaded_lat_p50_us", median(pp.wireUs))
	t.set("runtime.loaded_lat_p50_us", median(loaded.wireUs))
	t.set("runtime.lat_p99_us", quantile(loaded.wireUs, 0.99))
	t.set("runtime.rx_ring_depth_p50", median(depths))
	t.set("runtime.drops", float64(r.rt.Metrics().Drops()))
	t.set("trace_overhead_ratio", median(sat.segRates)/median(plain.segRates))
	if n := tr.pkts.Load(); n > 0 {
		t.set("fuse.fast_hit_ratio", float64(tr.fast.Load())/float64(n))
	}
	o.notef("pingpong: %d traced frames; per frame the six segments sum to the wire latency (worst difference %.0f ns); segment medians sum to %.0f ns against a median wire latency of %.0f ns",
		len(pp.wireUs), pp.worstSumErr, segSum, 1e3*median(pp.wireUs))
	o.notef("saturate: %d traced frames (1 in 17), %d ring-depth samples; traced %.0f pkt/s against %.0f pkt/s untraced on the same rig",
		len(loaded.wireUs), len(depths), median(sat.segRates), median(plain.segRates))
	if tr.gaps > 0 {
		o.notef("%d traced frames had stamps out of order and were left out", tr.gaps)
	}

	t.set("ctl.write_p99_ms", quantile(cr.writeMs, 0.99))
	t.set("ctl.sched_late_p50_ms", median(cr.lateMs))
	t.set("ctl.wal_bytes_per_batch", median(cr.walBytes))
	if nj := o.Metrics["ctl.write_nojournal_p50_ms"].Value; nj > 0 {
		t.set("ctl.journal_p50_ms", median(cr.writeMs)-nj)
	}
	o.notef("control: %d batches, write p50 %.3f ms", len(cr.writeMs), median(cr.writeMs))
	_, replayed, err := r.cp.recover()
	if err != nil {
		return err
	}
	t.set("ctl.replay_batches", float64(replayed))
	if r.d != nil {
		st := r.d.FusionStatus()
		t.set("fuse.builds", float64(st.Builds))
		t.set("fuse.plans", float64(st.Plans))
	}
	faults := r.sw.Metrics().Faults.Total()
	t.set("sim.faults", float64(faults))
	o.Failed += faults
	t.set("fail_ratio", float64(o.Failed)/float64(o.Attempted))
	o.Correct = o.Failed == 0 && pp.worstSumErr == 0
	return nil
}
