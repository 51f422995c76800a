package main

import (
	"fmt"
	goruntime "runtime"
	"time"

	pktio "hyper4/internal/runtime"
	"hyper4/internal/sim"
)

// cost is what one direct call costs per packet.
type cost struct{ ns, allocs, bytes float64 }

// timeCalls times call over whole passes of the pool, from outside the layer:
// `rounds` rounds of at least `each`, the median round's ns per packet, and
// the allocation counts of all rounds together.
func timeCalls(pool [][]byte, rounds int, each time.Duration, call func(frame []byte) error) (cost, error) {
	for _, frame := range pool { // warm caches and pools
		if err := call(frame); err != nil {
			return cost{}, err
		}
	}
	goruntime.GC()
	var m0, m1 goruntime.MemStats
	goruntime.ReadMemStats(&m0)
	var perPkt []float64
	pkts := 0
	for r := 0; r < rounds; r++ {
		n, start := 0, time.Now()
		for time.Since(start) < each {
			for _, frame := range pool {
				if err := call(frame); err != nil {
					return cost{}, err
				}
			}
			n += len(pool)
		}
		perPkt = append(perPkt, float64(time.Since(start).Nanoseconds())/float64(n))
		pkts += n
	}
	goruntime.ReadMemStats(&m1)
	return cost{
		ns:     median(perPkt),
		allocs: float64(m1.Mallocs-m0.Mallocs) / float64(pkts),
		bytes:  float64(m1.TotalAlloc-m0.TotalAlloc) / float64(pkts),
	}, nil
}

// processCost is a direct sw.Process over the pool.
func processCost(sw *sim.Switch, pool [][]byte, each time.Duration) (cost, error) {
	return timeCalls(pool, 5, each, func(frame []byte) error {
		_, _, err := sw.Process(frame, 1)
		return err
	})
}

// runFastCost is a direct call of the installed fast-path handler, skipping
// the switch's dispatch around it; zero when the switch has none.
func runFastCost(sw *sim.Switch, pool [][]byte, each time.Duration) (cost, error) {
	fast := sw.FastPath()
	if fast == nil {
		return cost{}, nil
	}
	return timeCalls(pool, 5, each, func(frame []byte) error {
		if _, ok := fast.RunFast(sw, frame, 1); !ok {
			return fmt.Errorf("the fast path declined a pool frame")
		}
		return nil
	})
}

// passCounts is one exact pass of the pool through the switch, read off the
// switch's own counters: pipeline passes and interpreter table lookups per
// packet. Nothing else may be driving the switch meanwhile.
func passCounts(sw *sim.Switch, pool [][]byte) (passes, lookups float64, err error) {
	count := func() (int64, int64) {
		m := sw.Metrics()
		p := m.Passes.Normal + m.Passes.Resubmit + m.Passes.Recirculate + m.Passes.CloneI2E + m.Passes.CloneE2E
		var l int64
		for _, t := range m.Tables {
			l += t.Hits + t.Misses
		}
		return p, l
	}
	p0, l0 := count()
	for _, frame := range pool {
		if _, _, err := sw.Process(frame, 1); err != nil {
			return 0, 0, err
		}
	}
	p1, l1 := count()
	return float64(p1-p0) / float64(len(pool)), float64(l1-l0) / float64(len(pool)), nil
}

// forwarder is the processor that does nothing: every frame in on port 1
// leaves on port 2 unchanged. What a runtime around it costs is the
// runtime's and the wires' own cost. The outputs are preallocated per burst
// slot, so the processor itself allocates nothing.
type forwarder struct {
	outs [64][1]sim.Output // 64 = the runtime's burst size
}

func (f *forwarder) Process(data []byte, port int) ([]sim.Output, *sim.Trace, error) {
	return []sim.Output{{Port: 2, Data: data}}, nil, nil
}

func (f *forwarder) ProcessSeq(pkts []sim.Input, results []sim.Result) error {
	for i := range pkts {
		f.outs[i][0] = sim.Output{Port: 2, Data: pkts[i].Data}
		results[i] = sim.Result{Outputs: f.outs[i][:]}
	}
	return nil
}

// nullRuntimeCost saturates the workload's kind of wires around a forwarder.
func nullRuntimeCost(w *workload, bufs, pool [][]byte, d time.Duration) (cost, error) {
	r := &rig{w: w, proc: &forwarder{}}
	if err := r.attach(bufs, pool, nil); err != nil { // a forwarder returns what it was given
		return cost{}, err
	}
	defer r.detach()
	if _, err := r.gen.run(window, d/4, 0, false); err != nil {
		return cost{}, err
	}
	goruntime.GC()
	var m0, m1 goruntime.MemStats
	goruntime.ReadMemStats(&m0)
	start := time.Now()
	res, err := r.gen.run(window, d, 0, false)
	took := time.Since(start) // run returns once the window has drained
	goruntime.ReadMemStats(&m1)
	if err != nil {
		return cost{}, err
	}
	if res.lost > 0 || r.gen.wrong.Load() > 0 {
		return cost{}, fmt.Errorf("null runtime lost %d frames, %d wrong", res.lost, r.gen.wrong.Load())
	}
	n := float64(res.delivered)
	return cost{
		ns:     float64(took.Nanoseconds()) / n,
		allocs: float64(m1.Mallocs-m0.Mallocs) / n,
		bytes:  float64(m1.TotalAlloc-m0.TotalAlloc) / n,
	}, nil
}

var _ pktio.BatchProcessor = (*forwarder)(nil)
