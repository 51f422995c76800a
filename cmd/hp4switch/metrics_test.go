package main

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"hyper4/internal/breaker"
	"hyper4/internal/core/ctl"
	"hyper4/internal/core/dpmu"
	"hyper4/internal/core/persona"
	"hyper4/internal/pkt"
	pktio "hyper4/internal/runtime"
	"hyper4/internal/sim"
)

// TestMetricsExposition scrapes a persona switch that has forwarded one
// frame through one l2 device — configured by the same script lines an
// operator would type — and requires the exact sample lines dashboards key
// on, across the switch-core, per-vdev and I/O runtime families. A second
// device whose name needs every escape the exposition format defines must
// scrape with each escape applied exactly once.
func TestMetricsExposition(t *testing.T) {
	p, err := persona.Generate(persona.Reference)
	if err != nil {
		t.Fatal(err)
	}
	sw, err := sim.New("hp4", p.Program)
	if err != nil {
		t.Fatal(err)
	}
	d, err := dpmu.New(sw, p)
	if err != nil {
		t.Fatal(err)
	}
	cp := ctl.New(d)
	cli := ctl.NewCLI(cp, "operator")
	for _, line := range []string{
		"load l2 l2_switch",
		"assign 1 l2 1",
		"map l2 2 2",
		"l2 table_add smac _nop 00:00:00:00:00:01",
		"l2 table_add dmac forward 00:00:00:00:00:02 => 2",
	} {
		if _, err := cli.Exec(line); err != nil {
			t.Fatalf("%q: %v", line, err)
		}
	}
	// A name only a remote /v1/write can carry: the REPL splits on spaces
	// but nothing validates the characters.
	const hostile = "a\"b\\c\nd"
	if _, err := cp.WriteBatch("operator", []ctl.Op{{Kind: ctl.OpLoadVDev, VDev: hostile, Function: "l2_switch"}}); err != nil {
		t.Fatal(err)
	}
	frame := pkt.Pad(pkt.Serialize(&pkt.Ethernet{
		Dst: pkt.MustMAC("00:00:00:00:00:02"), Src: pkt.MustMAC("00:00:00:00:00:01"), EtherType: pkt.EtherTypeIPv4,
	}))
	if out, _, err := sw.Process(frame, 1); err != nil || len(out) != 1 || out[0].Port != 2 {
		t.Fatalf("l2 frame: out=%+v err=%v", out, err)
	}
	// One compilation, after the frame: the interpreted pass above is what
	// the switch-core lines count.
	d.SetFusion(true)

	for _, tc := range []struct {
		name   string
		render func(io.Writer)
		want   []string
	}{
		{"switch", func(w io.Writer) { writeMetrics(w, sw, d) }, []string{
			"hyper4_packets_in_total 1",
			"# TYPE hyper4_table_hits_total counter",
			`hyper4_table_hits_total{table="t1_ed_exact"} 1`,
			`hyper4_pipeline_passes_total{kind="normal"} 1`,
			`hyper4_process_latency_seconds_bucket{le="+Inf"} 1`,
			"hyper4_process_latency_seconds_count 1",
			`hyper4_vdev_table_hits_total{vdev="l2",table="dmac"} 1`,
			`hyper4_vdev_health{vdev="l2"} 0`,
			`hyper4_vdev_passes_total{vdev="a\"b\\c\nd"} 0`,
			"# TYPE hyper4_fuse_builds_total counter",
			"hyper4_fuse_builds_total 1",
			"# TYPE hyper4_fuse_plans gauge",
			"hyper4_fuse_plans 2",
		}},
		{"io", func(w io.Writer) {
			writeIOMetrics(w, pktio.Metrics{Processed: 1, Ports: []pktio.PortMetrics{
				{Port: 1, RxFrames: 1, RxDepth: []int{0}, TxDepth: []int{0}},
				{Port: 2, TxFrames: 1, RxDepth: []int{0}, TxDepth: []int{0}},
			}})
		}, []string{
			`hyper4_rx_frames_total{port="1"} 1`,
			`hyper4_tx_frames_total{port="2"} 1`,
			`hyper4_ring_depth{port="1",worker="0",dir="rx"} 0`,
			`hyper4_ring_drops_total{port="2",dir="tx"} 0`,
			"hyper4_io_processed_total 1",
		}},
		{"port health", func(w io.Writer) {
			writePortHealthMetrics(w, []pktio.PortHealth{{Port: 1, State: breaker.Quarantined, Trips: 2, Stalls: 1}})
		}, []string{
			`hyper4_port_health{port="1"} 3`,
			`hyper4_port_health_trips_total{port="1"} 2`,
			`hyper4_port_io_errors_total{port="1",kind="stall"} 1`,
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			tc.render(&buf)
			lines := map[string]bool{}
			for _, l := range strings.Split(buf.String(), "\n") {
				lines[l] = true
			}
			for _, want := range tc.want {
				if !lines[want] {
					t.Errorf("scrape lacks the line %s", want)
				}
			}
		})
	}
}
