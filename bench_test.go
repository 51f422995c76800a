// Package hyper4 holds the repository-level benchmark suite: one benchmark
// per table and figure of the paper's evaluation (§6). Run with
//
//	go test -bench=. -benchmem
//
// Custom metrics carry the quantities the paper reports (stages/packet,
// ternary bits, LoC, tables); ns/op carries the raw packet-processing cost
// that Table 5's bandwidth/latency derive from.
package hyper4

import (
	"testing"

	"hyper4/internal/bench"
	"hyper4/internal/core/hp4c"
	"hyper4/internal/core/persona"
	"hyper4/internal/functions"
	"hyper4/internal/sim"
)

// benchSwitch builds a configured switch once per sub-benchmark.
func benchSwitch(b *testing.B, fn string, mode bench.Mode) *sim.Switch {
	b.Helper()
	sw, err := bench.FunctionSwitch(fn, mode)
	if err != nil {
		b.Fatal(err)
	}
	return sw
}

// BenchmarkTable1 processes each function's most complex packet natively
// and under HyPer4, reporting match-action stages per packet — the paper's
// Table 1 quantity — alongside the wall-clock cost.
func BenchmarkTable1(b *testing.B) {
	for _, fn := range functions.Names() {
		for _, mode := range []bench.Mode{bench.Native, bench.HyPer4} {
			b.Run(fn+"/"+mode.String(), func(b *testing.B) {
				sw := benchSwitch(b, fn, mode)
				pkts := bench.WorkloadPackets(fn)
				var applies int
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					_, tr, err := sw.Process(pkts[i%len(pkts)], 1)
					if err != nil {
						b.Fatal(err)
					}
					applies += tr.Applies
				}
				b.ReportMetric(float64(applies)/float64(b.N), "stages/pkt")
			})
		}
	}
}

// BenchmarkTable2And3 measures the compile-time table-reference analysis
// behind Tables 2 and 3 and reports the headline sharing count.
func BenchmarkTable2And3(b *testing.B) {
	var shared int
	for i := 0; i < b.N; i++ {
		cells, err := bench.Table23()
		if err != nil {
			b.Fatal(err)
		}
		shared = 0
		for _, c := range cells {
			if c.A != c.B {
				shared += c.Shared
			}
		}
	}
	b.ReportMetric(float64(shared), "shared-tables")
}

// BenchmarkTable4 reports ternary bits matched per packet under emulation.
func BenchmarkTable4(b *testing.B) {
	for _, fn := range functions.Names() {
		b.Run(fn, func(b *testing.B) {
			sw := benchSwitch(b, fn, bench.HyPer4)
			pkts := bench.WorkloadPackets(fn)
			var total, active int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, tr, err := sw.Process(pkts[i%len(pkts)], 1)
				if err != nil {
					b.Fatal(err)
				}
				total += tr.TernaryBitsTotal
				active += tr.TernaryBitsActive
			}
			b.ReportMetric(float64(total)/float64(b.N), "tcam-bits/pkt")
			b.ReportMetric(float64(active)/float64(b.N), "active-bits/pkt")
		})
	}
}

// BenchmarkTable5Packet is the per-packet cost underlying Table 5: the
// bandwidth and latency penalties are the ratio of these ns/op numbers
// (plus the fixed per-packet environment cost netsim models).
func BenchmarkTable5Packet(b *testing.B) {
	cases := []struct {
		name string
		fn   string
	}{
		{"l2_sw", functions.L2Switch},
		{"firewall", functions.Firewall},
	}
	for _, c := range cases {
		for _, mode := range []bench.Mode{bench.Native, bench.HyPer4} {
			b.Run(c.name+"/"+mode.String(), func(b *testing.B) {
				sw := benchSwitch(b, c.fn, mode)
				p := bench.WorkloadPackets(c.fn)[0]
				b.SetBytes(int64(len(p)))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, _, err := sw.Process(p, 1); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkTable5Network measures end-to-end scenario throughput through
// the network simulator (a condensed Table 5 cell per iteration).
func BenchmarkTable5Network(b *testing.B) {
	for _, mode := range []bench.Mode{bench.Native, bench.HyPer4} {
		b.Run("l2_sw/"+mode.String(), func(b *testing.B) {
			const bytesPerIter = 256 * 1024
			b.SetBytes(bytesPerIter)
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				n, err := bench.BuildNet(bench.ScenarioL2, mode)
				if err != nil {
					b.Fatal(err)
				}
				n.Start()
				b.StartTimer()
				if _, err := n.Iperf("h1", "h2", bytesPerIter, 1400); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				n.Stop()
				b.StartTimer()
			}
		})
	}
}

// BenchmarkFigure7 generates personas across the paper's sweep corners and
// reports LoC — Figure 7's y-axis.
func BenchmarkFigure7(b *testing.B) {
	corners := []struct{ stages, prims int }{{1, 1}, {4, 9}, {5, 9}}
	for _, c := range corners {
		name := "stages=" + itoa(c.stages) + "/prims=" + itoa(c.prims)
		b.Run(name, func(b *testing.B) {
			cfg := persona.Reference
			cfg.Stages, cfg.Primitives = c.stages, c.prims
			var loc int
			for i := 0; i < b.N; i++ {
				p, err := persona.Generate(cfg)
				if err != nil {
					b.Fatal(err)
				}
				loc = p.LoC()
			}
			b.ReportMetric(float64(loc), "LoC")
		})
	}
}

// BenchmarkFigure8 reports the persona's declared-table count (Figure 8).
func BenchmarkFigure8(b *testing.B) {
	var tables int
	for i := 0; i < b.N; i++ {
		p, err := persona.Generate(persona.Reference)
		if err != nil {
			b.Fatal(err)
		}
		tables = p.TableCount
	}
	b.ReportMetric(float64(tables), "tables")
}

// BenchmarkCompiler measures hp4c compilation of each function.
func BenchmarkCompiler(b *testing.B) {
	for _, fn := range functions.Names() {
		b.Run(fn, func(b *testing.B) {
			prog, err := functions.Load(fn)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				if _, err := hp4c.Compile(prog, persona.Reference); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRMT measures the §6.5 analysis.
func BenchmarkRMT(b *testing.B) {
	var over float64
	for i := 0; i < b.N; i++ {
		a, err := bench.RMTAnalysis()
		if err != nil {
			b.Fatal(err)
		}
		over = a.IngressOverPct
	}
	b.ReportMetric(over, "over-budget-%")
}

// BenchmarkPassCounts measures the §6.4 resubmit/recirculate probes.
func BenchmarkPassCounts(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.PassCounts(); err != nil {
			b.Fatal(err)
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
