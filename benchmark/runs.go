package main

import (
	"fmt"
	"math/rand"
	"os"
	goruntime "runtime"
	"sort"
	"time"

	"hyper4/internal/sim"
)

// prelude is what both kinds of run do before anything is timed: build the
// frame pool from the seed, build the reference switches, and refuse to go on
// unless native, interpreted persona and fused persona agree on every frame.
type prelude struct {
	env    environment
	pool   [][]byte
	bufs   [][]byte // the sender's copies of the pool, see senderBuffers
	expect [][]byte
	twins  *twins
}

func prepare(w *workload, opt options) (*prelude, error) {
	p := &prelude{pool: w.makePool(rand.New(rand.NewSource(opt.seed)))}
	p.bufs = senderBuffers(p.pool)
	journals := opt.tmp // where os.MkdirTemp puts the journal directories
	if journals == "" {
		journals = os.TempDir()
	}
	p.env = readEnvironment(journals, opt.seed)
	var err error
	if p.twins, err = buildTwins(w); err != nil {
		return nil, err
	}
	p.expect, err = agree(p.pool,
		[]string{"native", "interpreted persona", "fused persona"},
		[]*sim.Switch{p.twins.native, p.twins.interp, p.twins.fused})
	if err != nil {
		p.twins.close()
		return nil, fmt.Errorf("correctness gate: %w", err)
	}
	return p, nil
}

// checkMeasured holds the measured switch to the same expectation.
func (p *prelude) checkMeasured(r *rig) error {
	_, err := agree(p.pool, []string{"native", "measured switch"}, []*sim.Switch{p.twins.native, r.sw})
	if err != nil {
		return fmt.Errorf("correctness gate: %w", err)
	}
	return nil
}

// phases is how a run of `seconds` is divided: `rounds` rounds of a pingpong
// slice, a saturate slice of whole segments, and a control slice (inside the
// saturate slice on a churn workload). Rounds spread every metric's samples
// over the whole run, because this runner's speed drifts over tens of
// seconds. The saturate phase keeps at least twelve segments; in a run
// shorter than 24 s they are shorter than a second.
type phases struct {
	rounds, segments             int // segments per saturate slice
	warm, ping, segment, control time.Duration
}

func plan(w *workload, seconds float64, rounds int) phases {
	total := time.Duration(seconds * float64(time.Second))
	ph := phases{rounds: rounds, warm: min(time.Second, total/10)}
	saturate := total / 2
	if w.churn {
		saturate = total * 7 / 10
	} else {
		ph.control = total / 5 / time.Duration(rounds)
	}
	ph.ping = total * 3 / 10 / time.Duration(rounds)
	ph.segment = min(time.Second, saturate/12)
	ph.segments = int(saturate / ph.segment / time.Duration(rounds))
	return ph
}

// measure is the measured part shared by timed and traced runs. eachRound, if
// set, runs before each round; during, if set, brackets each saturate slice.
func measure(r *rig, ph phases, tr *tracer, ctrl *controller, eachRound func() error, during func() func()) (ping, sat phaseResult, err error) {
	add := func(sum *phaseResult, res phaseResult) {
		sum.sent += res.sent
		sum.forwarded += res.forwarded
		sum.delivered += res.delivered
		sum.lost += res.lost
		sum.latUs = append(sum.latUs, res.latUs...)
		sum.segRates = append(sum.segRates, res.segRates...)
	}
	for round := 0; round < ph.rounds; round++ {
		if eachRound != nil {
			if err := eachRound(); err != nil {
				return ping, sat, err
			}
		}
		if tr != nil {
			tr.open("pingpong", 1)
		}
		res, err := r.gen.run(1, ph.ping, 0, true)
		if err != nil {
			return ping, sat, err
		}
		add(&ping, res)
		if tr != nil {
			// One frame in 17 while saturating: co-prime with the pool size,
			// so every pool frame is sampled.
			tr.open("saturate", 17)
		}
		after := func() {}
		if during != nil {
			after = during()
		}
		res, err = r.saturate(ctrl, time.Duration(ph.segments)*ph.segment, ph.segment)
		after()
		if err != nil {
			return ping, sat, err
		}
		add(&sat, res)
		if !r.w.churn {
			finish := ctrl.start()
			time.Sleep(ph.control)
			finish()
		}
	}
	if tr != nil {
		tr.open("", 1)
	}
	if ctrl.res.firstFail != nil {
		err = fmt.Errorf("control phase: %w", ctrl.res.firstFail)
	}
	return ping, sat, err
}

// saturate runs one saturate slice; on a churn workload the controller writes
// for as long as it lasts.
func (r *rig) saturate(ctrl *controller, d, segment time.Duration) (phaseResult, error) {
	if r.w.churn {
		defer ctrl.start()()
	}
	return r.gen.run(window, d, segment, false)
}

// tally adds up what was attempted and what failed in the measured part.
func tally(o *outcome, r *rig, cr controlResult, results ...phaseResult) {
	for _, res := range results {
		o.Attempted += res.sent
		o.Failed += res.lost
	}
	m := r.rt.Metrics()
	wrongPort := int64(0)
	for _, p := range m.Ports {
		if p.Port == 1 {
			wrongPort = int64(p.TxFrames)
		}
	}
	o.Attempted += int64(cr.batches)
	o.Failed += r.gen.wrong.Load() + wrongPort + int64(cr.failed)
	o.notef("frames: %d wrong bytes, %d out of the wrong port, %d dropped by the runtime; writes: %d failed or later than 1 s of %d",
		r.gen.wrong.Load(), wrongPort, m.Drops(), cr.failed, cr.batches)
}

// repeatFor calls f at least `atLeast` times and until d has passed, and
// returns what it returned. Set-up and recovery take from under a
// millisecond (native) to tens of milliseconds; a fixed handful of them
// does not repeat from run to run.
func repeatFor(d time.Duration, atLeast int, f func() (float64, error)) ([]float64, error) {
	var out []float64
	for start := time.Now(); len(out) < atLeast || time.Since(start) < d; {
		// Each repetition starts from a collected heap, as a fresh process
		// would, and not in the garbage of the one before.
		goruntime.GC()
		v, err := f()
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// runTimed is a run with tracing off: the end-to-end metrics.
func runTimed(w *workload, opt options) (*outcome, error) {
	p, err := prepare(w, opt)
	if err != nil {
		return nil, err
	}
	defer p.twins.close()
	o := &outcome{result: result{Metrics: map[string]metric{}}}
	o.notef("env %+v", p.env)

	r, err := setUp(w, p.bufs, p.expect, p.twins.pers, opt.tmp)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer r.close()
	if err := p.checkMeasured(r); err != nil {
		return nil, err
	}

	ph := plan(w, opt.seconds, 4)
	warm, err := r.gen.run(window, ph.warm, 0, false)
	if err != nil {
		return nil, err
	}
	// A second switch, whose journal is what recovery replays: the same
	// recoverBatches batches in every run. Recovering the measured switch
	// closes its journal, so it can only come last; this one is recovered
	// before every round, and more cold starts are made there too (on
	// switches that are closed again), so that like every other metric's
	// samples these are spread over the whole run.
	ref, err := setUp(w, p.bufs, p.expect, p.twins.pers, opt.tmp)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer ref.close()
	ref.detach()
	refCtrl := &controller{cp: ref.cp, w: w}
	for i := 0; i < recoverBatches; i++ {
		refCtrl.batch(time.Now())
	}
	if err := refCtrl.res.firstFail; err != nil {
		return nil, fmt.Errorf("reference journal: %w", err)
	}
	setups, recovers := []float64{r.setupS, ref.setupS}, []float64(nil)
	eachRound := func() error {
		more, err := repeatFor(opt.share(12*ph.rounds), 2, func() (float64, error) {
			spare, err := setUp(w, p.bufs, p.expect, p.twins.pers, opt.tmp)
			if err != nil {
				return 0, fmt.Errorf("set-up: %w", err)
			}
			spare.close()
			return spare.setupS, nil
		})
		if err != nil {
			return err
		}
		setups = append(setups, more...)
		more, err = repeatFor(opt.share(24*ph.rounds), 2, func() (float64, error) {
			took, _, err := ref.cp.recover()
			return took.Seconds(), err
		})
		recovers = append(recovers, more...)
		return err
	}
	ctrl := &controller{cp: r.cp, w: w}
	ping, sat, err := measure(r, ph, nil, ctrl, eachRound, nil)
	if err != nil {
		return nil, err
	}
	cr := ctrl.res
	tally(o, r, cr, warm, ping, sat)
	o.Attempted += int64(refCtrl.res.batches)
	o.Failed += int64(refCtrl.res.failed)
	// What the run itself wrote must recover to the live switch's state too.
	if _, _, err := r.cp.recover(); err != nil {
		return nil, err
	}
	if faults := r.sw.Metrics().Faults.Total(); faults > 0 {
		o.Failed += faults
		o.notef("%d packet faults on the measured switch", faults)
	}

	sort.Float64s(ping.latUs) // up to a million samples: sorted once, for the four quantiles read below
	o.set(endToEnd, "setup_s", median(setups))
	// The upper quartile, not the median: whatever else this runner does
	// only ever slows a segment down.
	o.set(endToEnd, "pkts_per_s", quantile(sat.segRates, 0.75))
	// The lower quartile, not the median: with one frame in flight a hop is
	// handed over either by a spinning thread or by a futex wake-up, some
	// 10 us apart, and on the native chain the median sits on the edge
	// between the two and moves 15 % between identical runs.
	o.set(endToEnd, "lat_p25_us", quantile(ping.latUs, 0.25))
	o.set(endToEnd, "write_p50_ms", median(cr.writeMs))
	o.set(endToEnd, "recover_s", median(recovers))
	o.notef("%d rounds of pingpong %v, saturate %d x %v, control %v", ph.rounds, ph.ping, ph.segments, ph.segment, ph.control)
	o.notef("setup_s: median of %d cold starts, %.4f to %.4f s", len(setups), quantile(setups, 0), quantile(setups, 1))
	o.notef("pkts_per_s: upper quartile of %d segments, closed loop, %d frames in flight, %s: %.0f", len(sat.segRates), window, wireKind(w), sat.segRates)
	o.notef("lat_p25_us: %d frames, closed loop, 1 frame in flight; p50 %.2f us, p75 %.2f us, p99 %.1f us", len(ping.latUs), median(ping.latUs), quantile(ping.latUs, 0.75), quantile(ping.latUs, 0.99))
	o.notef("write_p50_ms: %d batches of %d table_add + %d table_delete, open loop paced at %d/s, timed from when due; p99 %.3f ms", len(cr.writeMs), churnAdds, churnAdds, w.churnRate, quantile(cr.writeMs, 0.99))
	o.notef("recover_s: median of %d recoveries of a journal of %d batches, %.4f to %.4f s", len(recovers), recoverBatches, quantile(recovers, 0), quantile(recovers, 1))
	o.Correct = o.Failed == 0
	return o, nil
}

func wireKind(w *workload) string {
	if w.udp {
		return "loopback UDP sockets (not a link)"
	}
	return "in-process channel wires"
}
