package bench

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"time"
)

// Table5Opts sizes the bandwidth/latency measurement.
type Table5Opts struct {
	Runs       int   // repetitions for mean ± σ (paper: 10)
	IperfBytes int64 // bulk bytes per bandwidth run
	Pings      int   // echoes per latency run (paper: 1000)
	MSS        int   // TCP segment payload size
	// SwitchOverhead models the fixed per-packet cost of the paper's
	// environment (bmv2 + Mininet veths in a VM). 100µs reproduces the
	// paper's native L2 bandwidth magnitude (~110 Mbps).
	SwitchOverhead time.Duration
}

// DefaultTable5Opts is sized to finish quickly while preserving shape; the
// cmd/hp4bench tool raises Runs and Pings toward the paper's setup.
var DefaultTable5Opts = Table5Opts{Runs: 3, IperfBytes: 1 << 20, Pings: 200, MSS: 1400, SwitchOverhead: 100 * time.Microsecond}

// Table5Row is one row of the paper's Table 5: mean ± σ of bandwidth and
// per-ping latency, native vs HyPer4.
type Table5Row struct {
	Scenario string

	NativeMbps, NativeMbpsSD float64
	HP4Mbps, HP4MbpsSD       float64
	// Latency per ping (the paper reports total flood time for 1000 pings;
	// we report the equivalent per-ping mean so counts can differ).
	NativeLat, NativeLatSD time.Duration
	HP4Lat, HP4LatSD       time.Duration

	// Derived comparisons against the paper's shape, from each mode's best
	// run: the highest bandwidth and the lowest latency.
	BandwidthPenalty float64 // 1 - hp4/native (paper: 0.83–0.89)
	LatencyRatio     float64 // hp4/native (paper: 3.4–4.7)

	PaperPenalty float64
	PaperLatency float64
}

var paperTable5 = map[string][2]float64{
	ScenarioL2:       {0.83, 3.4},
	ScenarioFirewall: {0.89, 4.7},
	ScenarioEx1B:     {0.83, 3.4},
	ScenarioEx1C:     {0.88, 3.9},
}

// Table5 runs the bandwidth and latency measurements for every scenario.
// A run measures every scenario, both modes back to back, so host drift
// lands on native and HyPer4 alike and a scenario's runs spread over the
// whole measurement; the derived comparisons divide the modes' best runs,
// the ones the scheduler disturbed least, so a preempted run cannot swing
// them.
func Table5(opts Table5Opts) ([]Table5Row, error) {
	if opts.Runs < 1 {
		opts = DefaultTable5Opts
	}
	modes := []Mode{Native, HyPer4}
	scenarios := Scenarios()
	// mbps[s][i] and lat[s][i] hold scenario s's runs in mode i.
	mbps, lat := make([][2][]float64, len(scenarios)), make([][2][]float64, len(scenarios))
	for run := 0; run < opts.Runs; run++ {
		for s, sc := range scenarios {
			for i, mode := range modes {
				n, err := BuildNet(sc, mode)
				if err != nil {
					return nil, fmt.Errorf("table5 %s %s: %w", sc, mode, err)
				}
				n.SwitchOverhead = opts.SwitchOverhead
				// Collect the build's garbage now, not during the timing.
				runtime.GC()
				n.Start()
				ir, err := n.Iperf("h1", "h2", opts.IperfBytes, opts.MSS)
				if err != nil {
					n.Stop()
					return nil, fmt.Errorf("table5 %s %s iperf: %w", sc, mode, err)
				}
				pr, err := n.PingFlood("h1", "h2", opts.Pings)
				n.Stop()
				if err != nil {
					return nil, fmt.Errorf("table5 %s %s ping: %w", sc, mode, err)
				}
				mbps[s][i] = append(mbps[s][i], ir.Mbps())
				lat[s][i] = append(lat[s][i], float64(pr.PerPing()))
			}
		}
	}
	rows := make([]Table5Row, len(scenarios))
	for s, sc := range scenarios {
		row := Table5Row{Scenario: sc,
			PaperPenalty: paperTable5[sc][0], PaperLatency: paperTable5[sc][1]}
		mM, mSD := meanSD(mbps[s][0])
		lM, lSD := meanSD(lat[s][0])
		row.NativeMbps, row.NativeMbpsSD = mM, mSD
		row.NativeLat, row.NativeLatSD = time.Duration(lM), time.Duration(lSD)
		mM, mSD = meanSD(mbps[s][1])
		lM, lSD = meanSD(lat[s][1])
		row.HP4Mbps, row.HP4MbpsSD = mM, mSD
		row.HP4Lat, row.HP4LatSD = time.Duration(lM), time.Duration(lSD)
		if m := slices.Max(mbps[s][0]); m > 0 {
			row.BandwidthPenalty = 1 - slices.Max(mbps[s][1])/m
		}
		if m := slices.Min(lat[s][0]); m > 0 {
			row.LatencyRatio = slices.Min(lat[s][1]) / m
		}
		rows[s] = row
	}
	return rows, nil
}

func meanSD(xs []float64) (mean, sd float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	if len(xs) < 2 {
		return mean, 0
	}
	var ss float64
	for _, x := range xs {
		ss += (x - mean) * (x - mean)
	}
	return mean, math.Sqrt(ss / float64(len(xs)-1))
}

// PassCounts reproduces §6.4's resubmit/recirculate discussion: per
// scenario-defining packet, the number of extra pipeline passes.
type PassCountRow struct {
	Case         string
	Resubmits    int
	Recirculates int
	PaperResub   int
	PaperRecirc  int
}

// PassCounts measures pipeline re-entries for the packets §6.4 discusses.
func PassCounts() ([]PassCountRow, error) {
	type probe struct {
		name        string
		build       func() (swProc, error)
		packet      []byte
		resub, reci int
	}
	tcp := WorkloadPackets("firewall")[0]
	probes := []probe{
		{"l2_sw / any packet",
			func() (swProc, error) { return l2Switch("s", HyPer4, []hostEntry{{h1MAC, 1}, {h2MAC, 2}}) },
			WorkloadPackets("l2_switch")[0], 0, 0},
		{"firewall / ping",
			func() (swProc, error) { return firewallSwitch("s", HyPer4) },
			icmpEcho(), 1, 0},
		{"firewall / TCP packet",
			func() (swProc, error) { return firewallSwitch("s", HyPer4) },
			tcp, 2, 0},
		{"Ex. 1 C middle / ping",
			func() (swProc, error) { return composedSwitch("s", HyPer4) },
			icmpEcho(), 2, 2},
		{"Ex. 1 C middle / TCP packet",
			func() (swProc, error) { return composedSwitch("s", HyPer4) },
			tcp, 3, 2},
	}
	var rows []PassCountRow
	for _, pr := range probes {
		sw, err := pr.build()
		if err != nil {
			return nil, fmt.Errorf("passcounts %s: %w", pr.name, err)
		}
		_, tr, err := sw.Process(pr.packet, 1)
		if err != nil {
			return nil, fmt.Errorf("passcounts %s: %w", pr.name, err)
		}
		rows = append(rows, PassCountRow{
			Case: pr.name, Resubmits: tr.Resubmits, Recirculates: tr.Recirculates,
			PaperResub: pr.resub, PaperRecirc: pr.reci,
		})
	}
	return rows, nil
}
