package sim

import "time"

// Input is one packet handed to ProcessSeq.
type Input struct {
	Data []byte
	Port int
}

// Result is the outcome of processing one batched packet. Results are
// positional: results[i] corresponds to pkts[i]. A fused packet's Trace
// points into its own Result, so it stays valid until the caller reuses
// that results slot; copy the Trace, not the pointer, to keep it longer.
type Result struct {
	Outputs []Output
	Trace   *Trace
	Err     error

	// trace is a fused packet's Trace, stored inline so it costs no
	// allocation: Trace points here.
	trace Trace
}

// ProcessSeq processes pkts serially on the calling goroutine, writing into
// the caller-provided results slice (which must be at least len(pkts) long).
// It is the batch entry point the packet I/O runtime's workers use: each
// worker drains a burst from its rings and hands it over in one call,
// reusing the same results backing across bursts. Per-packet errors land in
// results; the return is the first of them, if any.
//
// With a fast-path handler installed, a run of packets it takes is one
// unit of work: one hold of the read lock, one load of the handler, one
// clock pair, and one flush of the handler's burst and of the switch's
// stats and pass counters, all before the lock is released. The run ends at
// the first packet the handler declines; that packet runs interpreted under
// its own hold of the lock, so a writer waits behind at most one run of
// fused packets, never behind interpreted ones. With no handler, or with an
// injector armed, every packet runs as Process runs it.
func (sw *Switch) ProcessSeq(pkts []Input, results []Result) error {
	results = results[:len(pkts)]
	for i, declined := 0, false; i < len(pkts); {
		n, fused := sw.runBurst(pkts[i:], results[i:], declined)
		if fused {
			for k := i; k < i+n; k++ {
				results[k].Trace = &results[k].trace
			}
		}
		i += n
		declined = fused && i < len(pkts)
	}
	return firstError(results)
}

// runBurst runs pkts from the front as one unit of work and returns how
// many packets it ran (at least one), and whether the fast path ran them;
// if it did and packets remain, the handler declined the next one. Each
// packet files the unit's mean duration into the latency histogram.
func (sw *Switch) runBurst(pkts []Input, results []Result, declined bool) (int, bool) {
	start := time.Now() //hp4:allow hotpath (one clock pair per unit of work feeds the latency histogram)
	n, fused := sw.runBurstLocked(pkts, results, declined)
	sw.metrics.recordLatency(time.Since(start), n) //hp4:allow hotpath (see above)
	return n, fused
}

// runBurstLocked is runBurst under one hold of mu's read side. With a
// handler installed and no injector armed, and unless pkts[0] is already
// known to decline, it opens a burst and runs packets through it until one
// declines, then flushes the burst and the fused packets' sums before the
// lock is released. Otherwise — or when pkts[0] itself declines — pkts[0]
// alone runs interpreted. A fused packet's trace is written inline and its
// Trace left nil: pointing it into results would move a caller's
// stack-held Result to the heap, so the caller does that.
func (sw *Switch) runBurstLocked(pkts []Input, results []Result, declined bool) (n int, fused bool) {
	sw.mu.RLock()
	defer sw.mu.RUnlock()
	if b := sw.fast.Load(); b != nil && !declined && sw.injector == nil {
		bt := b.h.BeginBurst()
		var sums fastSums
		for ; n < len(pkts); n++ {
			res, ok := sw.runFast(bt, pkts[n].Data, pkts[n].Port)
			if !ok {
				break
			}
			r := &results[n]
			r.Outputs, r.Trace, r.Err = res.Outputs, nil, nil
			sums.add(res, &r.trace)
		}
		bt.Flush()
		if n > 0 {
			sums.flush(sw)
			return n, true
		}
	}
	out, tr, err := sw.interpret(pkts[0].Data, pkts[0].Port)
	results[0] = Result{Outputs: out, Trace: tr, Err: err}
	return 1, false
}

func firstError(results []Result) error {
	for i := range results {
		if results[i].Err != nil {
			return results[i].Err
		}
	}
	return nil
}
