package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"reflect"
	"testing"

	"hyper4/internal/sim"
)

func testOptions(t *testing.T) options {
	return options{seed: 1, seconds: 0.7, tmp: t.TempDir(), out: t.TempDir()}
}

// TestSmoke runs every workload both ways at a fraction of a second per phase
// and holds the output to the contract: every declared metric, with its unit,
// and nothing failed.
func TestSmoke(t *testing.T) {
	for _, name := range workloadNames {
		w, err := workloadByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, traced := range []bool{false, true} {
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			o, err := run(w, traced, testOptions(t))
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !o.Correct || o.Failed != 0 || o.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d\n%v", name, traced, o.Correct, o.Attempted, o.Failed, o.notes)
			}
			if len(o.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", name, traced, len(o.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := o.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s traced=%v: metric %s = %+v (present %v), want unit %q", name, traced, d.name, m, ok, d.unit)
				}
				if !traced && m.Value <= 0 && !(raceDetector && d.name == "pkts_per_s") {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", name, d.name, m.Value)
				}
			}
			if traced && o.Metrics["fail_ratio"].Value != 0 {
				t.Errorf("%s: fail_ratio %v", name, o.Metrics["fail_ratio"].Value)
			}
		}
	}
}

// TestSeedMakesThePool: the same seed gives the same frames, another seed
// gives other frames, and the chain mix does not move with the seed.
func TestSeedMakesThePool(t *testing.T) {
	for _, name := range workloadNames {
		w, _ := workloadByName(name)
		a := w.makePool(rand.New(rand.NewSource(7)))
		b := w.makePool(rand.New(rand.NewSource(7)))
		c := w.makePool(rand.New(rand.NewSource(8)))
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 twice gave different pools", name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same pool", name)
		}
		if len(a) != poolSize {
			t.Errorf("%s: pool of %d frames", name, len(a))
		}
		bytesIn := func(pool [][]byte) (n int) {
			for _, f := range pool {
				n += len(f)
			}
			return
		}
		if bytesIn(a) != bytesIn(c) {
			t.Errorf("%s: pool bytes move with the seed: %d vs %d", name, bytesIn(a), bytesIn(c))
		}
	}
}

// TestExactCountsRepeat: counts read off the program repeat bit for bit.
func TestExactCountsRepeat(t *testing.T) {
	for _, name := range workloadNames {
		w, _ := workloadByName(name)
		var got [2][3]float64
		for i := range got {
			p, err := prepare(w, testOptions(t))
			if err != nil {
				t.Fatal(err)
			}
			sw := p.twins.fused
			if w.native {
				sw = p.twins.native
			}
			passes, lookups, err := passCounts(sw, p.pool)
			if err != nil {
				t.Fatal(err)
			}
			got[i] = [3]float64{passes, lookups, float64(p.twins.entries)}
			p.twins.close()
		}
		if got[0] != got[1] || got[0][0] == 0 || got[0][2] == 0 {
			t.Errorf("%s: passes, lookups, entries = %v then %v", name, got[0], got[1])
		}
	}
}

// TestGateRefusesDisagreement: a reference switch that forwards differently
// stops the run before anything is timed.
func TestGateRefusesDisagreement(t *testing.T) {
	w, _ := workloadByName("chain_chan")
	p, err := prepare(w, testOptions(t))
	if err != nil {
		t.Fatal(err)
	}
	defer p.twins.close()
	// Unblock the firewall port on the fused twin only. A vdev's handles
	// count its table_adds, so the block rule's handle is its position among
	// the firewall's entries.
	handle := 0
	for _, e := range w.entries {
		if e.vdev == "fw" {
			handle++
			if tableOf(e.line) == "tcp_filter" {
				break
			}
		}
	}
	if _, err := p.twins.fusedCtl.write("", nil, []installed{{"fw", "tcp_filter", handle}}); err != nil {
		t.Fatal(err)
	}
	if _, err := agree(p.pool, []string{"native", "fused"}, []*sim.Switch{p.twins.native, p.twins.fused}); err == nil {
		t.Error("the gate accepted switches that disagree on the blocked frames")
	}
}

// TestBenchmarkJSON: BENCHMARK.json repeats the tables in main.go.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jm struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var spec struct {
		Paths     []string
		Workloads []struct{ Name, Why string }
		EndToEnd  []jm `json:"end_to_end"`
		PerLayer  []jm `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v, want %v", names, workloadNames)
	}
	check := func(kind string, got []jm, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics, want %d", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s[%d] = %+v, want %+v", kind, i, g, d)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != d.bound) {
				t.Errorf("%s[%d] %s: bound %v, want %v (bounded %v)", kind, i, d.name, g.Bound, d.bound, bounded)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd, true)
	check("per_layer", spec.PerLayer, perLayer, false)
}
