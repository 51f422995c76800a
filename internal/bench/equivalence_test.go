package bench

import (
	"bytes"
	"sync"
	"testing"

	"hyper4/internal/functions"
	"hyper4/internal/sim"
)

// TestBatchSerialEquivalence drives every function's workload through both
// the serial Process path and several goroutines each running ProcessSeq
// over its own disjoint slice of the batch (the packet I/O runtime with
// workers > 1), in Native and HyPer4 modes, and requires byte-identical
// per-packet outputs. This is the contract concurrent ingest must preserve:
// parallelism may reorder cross-packet extern updates, but each packet's
// forwarding behavior is deterministic.
func TestBatchSerialEquivalence(t *testing.T) {
	type build struct {
		name string
		mk   func(mode Mode) (*sim.Switch, error)
		pkts [][]byte
	}
	builds := []build{
		{functions.L2Switch, func(m Mode) (*sim.Switch, error) { return FunctionSwitch(functions.L2Switch, m) }, WorkloadPackets(functions.L2Switch)},
		{functions.Router, func(m Mode) (*sim.Switch, error) { return FunctionSwitch(functions.Router, m) }, WorkloadPackets(functions.Router)},
		{functions.Firewall, func(m Mode) (*sim.Switch, error) { return FunctionSwitch(functions.Firewall, m) }, WorkloadPackets(functions.Firewall)},
		{functions.ARPProxy, func(m Mode) (*sim.Switch, error) { return FunctionSwitch(functions.ARPProxy, m) }, WorkloadPackets(functions.ARPProxy)},
		{"composed", func(m Mode) (*sim.Switch, error) { return composedSwitch("s", m) }, WorkloadPackets(functions.Firewall)},
	}
	for _, bl := range builds {
		for _, mode := range []Mode{Native, HyPer4} {
			t.Run(bl.name+"/"+mode.String(), func(t *testing.T) {
				sw, err := bl.mk(mode)
				if err != nil {
					t.Fatal(err)
				}
				// Interleave the workload packets into a batch large enough
				// to occupy every worker.
				inputs := make([]sim.Input, 48)
				for i := range inputs {
					inputs[i] = sim.Input{Data: bl.pkts[i%len(bl.pkts)], Port: 1}
				}
				want := make([]sim.Result, len(inputs))
				for i, in := range inputs {
					want[i].Outputs, want[i].Trace, want[i].Err = sw.Process(in.Data, in.Port)
					if want[i].Err != nil {
						t.Fatalf("serial packet %d: %v", i, want[i].Err)
					}
				}
				const workers = 4
				got := make([]sim.Result, len(inputs))
				per := len(inputs) / workers
				var wg sync.WaitGroup
				for w := 0; w < workers; w++ {
					lo, hi := w*per, (w+1)*per
					wg.Add(1)
					go func() {
						defer wg.Done()
						_ = sw.ProcessSeq(inputs[lo:hi], got[lo:hi]) // per-packet errors checked below
					}()
				}
				wg.Wait()
				for i := range inputs {
					w, g := want[i], got[i]
					if g.Err != nil {
						t.Fatalf("batched packet %d: %v", i, g.Err)
					}
					if len(g.Outputs) != len(w.Outputs) {
						t.Fatalf("packet %d: %d outputs batched, %d serial", i, len(g.Outputs), len(w.Outputs))
					}
					for j := range g.Outputs {
						if g.Outputs[j].Port != w.Outputs[j].Port {
							t.Errorf("packet %d output %d: port %d vs %d", i, j, g.Outputs[j].Port, w.Outputs[j].Port)
						}
						if !bytes.Equal(g.Outputs[j].Data, w.Outputs[j].Data) {
							t.Errorf("packet %d output %d differs:\n  batched %x\n  serial  %x", i, j, g.Outputs[j].Data, w.Outputs[j].Data)
						}
					}
					if g.Trace.Applies != w.Trace.Applies || g.Trace.Passes != w.Trace.Passes {
						t.Errorf("packet %d trace: applies %d/%d passes %d/%d", i,
							g.Trace.Applies, w.Trace.Applies, g.Trace.Passes, w.Trace.Passes)
					}
				}
			})
		}
	}
}
