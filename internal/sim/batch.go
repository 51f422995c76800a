package sim

// Input is one packet handed to ProcessSeq.
type Input struct {
	Data []byte
	Port int
}

// Result is the outcome of processing one batched packet. Results are
// positional: results[i] corresponds to pkts[i].
type Result struct {
	Outputs []Output
	Trace   *Trace
	Err     error
}

// ProcessSeq processes pkts serially on the calling goroutine, writing into
// the caller-provided results slice (which must be at least len(pkts) long).
// It is the allocation-free batch entry point the packet I/O runtime's
// workers use: each worker drains a burst from its rings and hands it over
// in one call, reusing the same results backing across bursts. Per-packet
// errors land in results; the return is the first of them, if any.
func (sw *Switch) ProcessSeq(pkts []Input, results []Result) error {
	for i := range pkts {
		results[i].Outputs, results[i].Trace, results[i].Err = sw.Process(pkts[i].Data, pkts[i].Port)
	}
	return firstError(results[:len(pkts)])
}

func firstError(results []Result) error {
	for i := range results {
		if results[i].Err != nil {
			return results[i].Err
		}
	}
	return nil
}
