// Command benchmark measures HyPer4-Go from outside: wire-in→wire-out through
// the packet I/O runtime and write-in→ack-out through the control plane, on
// four workloads, with every layer's cost read by timing calls into public
// functions and by wrapping the runtime's public Transport and Processor
// interfaces. See README.md in this directory.
//
//	bash benchmark/run.sh                      every workload, timed then traced
//	bash benchmark/run.sh -selfcheck           the full set twice, compared
//	bash benchmark/run.sh --workload l2_udp --seed 1 --seconds 24 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"time"
)

// metricDef names one metric; the tables below are the contract
// BENCHMARK.json repeats.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only
}

// Every bound is the contract's widest. This runner is a guest on a shared
// host (README, "How steady it is"): in a calm hour ten runs spread 2–10 %, in
// a busy one 10–40 %, and a bound tighter than the spread rejects unchanged
// code.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"pkts_per_s", "pkt/s", "higher", 0.25},
	{"lat_p25_us", "us", "lower", 0.25},
	{"write_p50_ms", "ms", "lower", 0.25},
	{"recover_s", "s", "lower", 0.25},
}

var perLayer = []metricDef{
	{name: "runtime.null_ns_per_pkt", unit: "ns", better: "lower"},
	{name: "runtime.null_allocs_per_pkt", unit: "count", better: "lower"},
	{name: "runtime.rx_wire_ns", unit: "ns", better: "lower"},
	{name: "runtime.ring_rx_wait_ns", unit: "ns", better: "lower"},
	{name: "sim.process_span_ns", unit: "ns", better: "lower"},
	{name: "runtime.ring_tx_wait_ns", unit: "ns", better: "lower"},
	{name: "runtime.tx_send_ns", unit: "ns", better: "lower"},
	{name: "runtime.tx_wire_ns", unit: "ns", better: "lower"},
	{name: "runtime.unloaded_lat_p50_us", unit: "us", better: "lower"},
	{name: "runtime.loaded_lat_p50_us", unit: "us", better: "lower"},
	{name: "runtime.lat_p99_us", unit: "us", better: "lower"},
	{name: "runtime.rx_ring_depth_p50", unit: "count", better: "lower"},
	{name: "runtime.drops", unit: "count", better: "lower"},
	{name: "sim.process_ns_per_pkt", unit: "ns", better: "lower"},
	{name: "sim.process_allocs_per_pkt", unit: "count", better: "lower"},
	{name: "sim.process_bytes_per_pkt", unit: "B", better: "lower"},
	{name: "sim.dispatch_ns_per_pkt", unit: "ns", better: "lower"},
	{name: "sim.passes_per_pkt", unit: "count", better: "lower"},
	{name: "sim.lookups_per_pkt", unit: "count", better: "lower"},
	{name: "sim.faults", unit: "count", better: "lower"},
	{name: "sim.persona_interp_ns_per_pkt", unit: "ns", better: "lower"},
	{name: "fuse.runfast_ns_per_pkt", unit: "ns", better: "lower"},
	{name: "fuse.runfast_allocs_per_pkt", unit: "count", better: "lower"},
	{name: "fuse.fast_hit_ratio", unit: "ratio", better: "higher"},
	{name: "fuse.build_ms", unit: "ms", better: "lower"},
	{name: "fuse.builds", unit: "count", better: "lower"},
	{name: "fuse.plans", unit: "count", better: "higher"},
	{name: "fuse.enable_ms", unit: "ms", better: "lower"},
	{name: "dpmu.new_ms", unit: "ms", better: "lower"},
	{name: "dpmu.load_ms", unit: "ms", better: "lower"},
	{name: "dpmu.entries", unit: "count", better: "lower"},
	{name: "dpmu.checkpoint_us", unit: "us", better: "lower"},
	{name: "dpmu.table_add_us", unit: "us", better: "lower"},
	{name: "p4.parse_ms", unit: "ms", better: "lower"},
	{name: "persona.gen_ms", unit: "ms", better: "lower"},
	{name: "hp4c.compile_ms", unit: "ms", better: "lower"},
	{name: "runtime.attach_ms", unit: "ms", better: "lower"},
	{name: "runtime.first_frame_ms", unit: "ms", better: "lower"},
	{name: "ctl.journal_open_ms", unit: "ms", better: "lower"},
	{name: "ctl.populate_ms", unit: "ms", better: "lower"},
	{name: "ctl.parse_us_per_op", unit: "us", better: "lower"},
	{name: "ctl.write_nojournal_p50_ms", unit: "ms", better: "lower"},
	{name: "ctl.journal_p50_ms", unit: "ms", better: "lower"},
	{name: "ctl.write_p99_ms", unit: "ms", better: "lower"},
	{name: "ctl.sched_late_p50_ms", unit: "ms", better: "lower"},
	{name: "ctl.wal_bytes_per_batch", unit: "B", better: "lower"},
	{name: "ctl.replay_batches", unit: "count", better: "lower"},
	{name: "trace_overhead_ratio", unit: "ratio", better: "higher"},
	{name: "fail_ratio", unit: "ratio", better: "lower"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is a result plus what the human-readable report says about it.
type outcome struct {
	result
	notes []string // sample counts, recorded maxima, spans
}

func (o *outcome) set(defs []metricDef, name string, v float64) {
	for _, d := range defs {
		if d.name == name {
			o.Metrics[name] = metric{v, d.unit}
			return
		}
	}
	panic("benchmark: metric " + name + " is not declared")
}

func (o *outcome) notef(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

type options struct {
	seed     int64
	seconds  float64
	tmp, out string
}

// share is one n-th of the time a run measures.
func (o options) share(n int) time.Duration {
	return time.Duration(o.seconds * float64(time.Second) / float64(n))
}

func main() {
	workloadName := flag.String("workload", "", "run one workload and end with one JSON line; default: every workload, timed then traced")
	trace := flag.Int("trace", 0, "with -workload: 0 = timed run, end-to-end metrics; 1 = traced run, per-layer metrics")
	selfcheck := flag.Bool("selfcheck", false, "run the full set twice and fail if any end-to-end metric differs by more than its bound")
	var opt options
	flag.Int64Var(&opt.seed, "seed", 1, "workload seed: the same seed gives the same frame pool")
	flag.Float64Var(&opt.seconds, "seconds", 24, "seconds one run measures (phases shrink with it; below 24 the saturate phase has segments shorter than 1 s)")
	flag.StringVar(&opt.tmp, "tmp", "", "directory for the journal directories (default: the system's)")
	flag.StringVar(&opt.out, "out", "benchmark/out", "directory for trace-<workload>.json")
	flag.Parse()
	if flag.NArg() > 0 || opt.seconds <= 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}

	var err error
	switch {
	case *selfcheck:
		err = runSelfcheck(opt)
	case *workloadName == "":
		_, err = runAll(opt)
	default:
		err = runOne(*workloadName, *trace == 1, opt)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// runOne is what the driver calls: one workload, one mode, and the result as
// the last line. A run that measured but found failures still prints its
// result before exiting non-zero.
func runOne(name string, traced bool, opt options) error {
	w, err := workloadByName(name)
	if err != nil {
		return err
	}
	o, err := run(w, traced, opt)
	if err != nil {
		return err
	}
	printOutcome(w.name, traced, o)
	line, err := json.Marshal(o.result)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !o.Correct {
		return fmt.Errorf("%s: %d of %d operations failed", w.name, o.Failed, o.Attempted)
	}
	return nil
}

func run(w *workload, traced bool, opt options) (*outcome, error) {
	if traced {
		return runTraced(w, opt)
	}
	return runTimed(w, opt)
}

// runAll prints every end-to-end metric of every workload and every
// per-layer metric of its traced run, and returns the end-to-end values.
func runAll(opt options) (map[string]map[string]float64, error) {
	e2e := map[string]map[string]float64{}
	var firstErr error
	for _, name := range workloadNames {
		w, err := workloadByName(name)
		if err != nil {
			return nil, err
		}
		e2e[name] = map[string]float64{}
		for _, traced := range []bool{false, true} {
			o, err := run(w, traced, opt)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
			printOutcome(name, traced, o)
			if !o.Correct && firstErr == nil {
				firstErr = fmt.Errorf("%s: %d of %d operations failed", name, o.Failed, o.Attempted)
			}
			if !traced {
				for k, m := range o.Metrics {
					e2e[name][k] = m.Value
				}
			}
		}
	}
	// The paper's Table 5 question, as a ratio with its base: fused
	// emulation against the native program, same traffic, same wires.
	emu, nat := e2e["chain_chan"]["pkts_per_s"], e2e["chain_native_chan"]["pkts_per_s"]
	fmt.Printf("\nemulation_ratio = %.4f (chain_chan %.0f pkt/s / chain_native_chan %.0f pkt/s)\n", emu/nat, emu, nat)
	return e2e, firstErr
}

// runSelfcheck runs the full set twice and compares the two.
func runSelfcheck(opt options) error {
	first, err := runAll(opt)
	if err != nil {
		return err
	}
	second, err := runAll(opt)
	if err != nil {
		return err
	}
	fmt.Printf("\nselfcheck: two full sets, seed %d\n%-18s %-14s %14s %14s %9s %7s\n", opt.seed, "workload", "metric", "first", "second", "diff", "bound")
	var bad []string
	for _, name := range workloadNames {
		for _, d := range endToEnd {
			a, b := first[name][d.name], second[name][d.name]
			diff := math.Abs(a-b) / math.Min(a, b)
			verdict := ""
			if diff > d.bound {
				verdict = "  OVER"
				bad = append(bad, name+"/"+d.name)
			}
			fmt.Printf("%-18s %-14s %14.4f %14.4f %8.2f%% %6.0f%%%s\n", name, d.name, a, b, 100*diff, 100*d.bound, verdict)
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("selfcheck: %v differ by more than their bound between two sets of the same code", bad)
	}
	return nil
}

func printOutcome(name string, traced bool, o *outcome) {
	mode := "timed run (tracing off): end-to-end metrics"
	if traced {
		mode = "traced run: per-layer metrics"
	}
	fmt.Printf("\n== %s — %s\n", name, mode)
	names := make([]string, 0, len(o.Metrics))
	for k := range o.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("  %-32s %16.4f %s\n", k, o.Metrics[k].Value, o.Metrics[k].Unit)
	}
	for _, n := range o.notes {
		fmt.Println("  #", n)
	}
	fmt.Printf("  correct=%v attempted=%d failed=%d\n", o.Correct, o.Attempted, o.Failed)
}
