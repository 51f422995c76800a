package main

import (
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"strings"

	"hyper4/internal/breaker"
	"hyper4/internal/core/dpmu"
	pktio "hyper4/internal/runtime"
	"hyper4/internal/sim"
)

// This file serves the switch's metrics registry in Prometheus text
// exposition format (version 0.0.4), hand-written — the repo takes no
// dependencies — plus the standard pprof handlers. Families:
//
//	hyper4_packets_{in,out,dropped}_total
//	hyper4_{resubmits,recirculates,clones,table_applies}_total
//	hyper4_table_{hits,misses,default_actions}_total{table="..."}
//	hyper4_table_entries{table="..."}
//	hyper4_action_invocations_total{action="..."}
//	hyper4_pipeline_passes_total{kind="normal"|"resubmit"|...}
//	hyper4_process_latency_seconds{le="..."} (histogram)
//	hyper4_packet_faults_total{kind="panic"|"pass_bound"|...}
//	hyper4_quarantine_drops_total
//	hyper4_vdev_passes_total / hyper4_vdev_bytes_total{vdev="..."}
//	hyper4_vdev_table_{hits,misses}_total{vdev="...",table="..."} (persona mode)
//	hyper4_vdev_health{vdev="..."} (0 healthy, 1 degraded, 2 probing, 3 quarantined)
//	hyper4_vdev_health_trips_total / hyper4_vdev_faults_total{vdev="..."} (persona mode)
//	hyper4_fuse_builds_total / hyper4_fuse_plans (persona mode)
//	hyper4_rx_frames_total / hyper4_tx_frames_total{port="..."} (I/O runtime)
//	hyper4_ring_depth{port="...",worker="...",dir="rx"|"tx"}
//	hyper4_ring_drops_total{port="...",dir="rx"|"tx"}
//	hyper4_tx_errors_total{port="..."}
//	hyper4_io_processed_total / hyper4_io_proc_errors_total / hyper4_unrouted_frames_total
//	hyper4_port_health{port="..."} (0 healthy, 1 degraded, 2 probing, 3 quarantined)
//	hyper4_port_health_trips_total / hyper4_port_reattach_total{port="..."}
//	hyper4_port_io_errors_total{port="...",kind="recv"|"send"|"stall"}

// newMetricsMux builds the HTTP handler for -metrics-addr. d is nil outside
// persona mode; iort is nil when the process runs without a packet I/O
// runtime (tests scraping writeMetrics directly).
func newMetricsMux(sw *sim.Switch, d *dpmu.DPMU, iort *pktio.Runtime) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		writeMetrics(w, sw, d)
		if iort != nil {
			writeIOMetrics(w, iort.Metrics())
			// Scraping port health also advances the port breakers, exactly
			// like the vdev-health families above.
			writePortHealthMetrics(w, iort.PortHealth())
		}
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// labelEscaper applies the three escapes the exposition format defines for
// label values.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// sample writes one exposition line, name{label="value",...} v, from
// alternating label name/value arguments. It is the only place a label
// value is written: table, action and vdev names come from P4 sources and
// from unvalidated /v1/write requests, so they are escaped here, once.
func sample(w io.Writer, name string, v int64, labels ...string) {
	sep := "{"
	for i := 0; i+1 < len(labels); i += 2 {
		name += sep + labels[i] + `="` + labelEscaper.Replace(labels[i+1]) + `"`
		sep = ","
	}
	if sep == "," {
		name += "}"
	}
	fmt.Fprintf(w, "%s %d\n", name, v)
}

// family writes a metric family's HELP and TYPE lines and returns the
// function that adds its samples.
func family(w io.Writer, name, help, typ string) func(v int64, labels ...string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	return func(v int64, labels ...string) { sample(w, name, v, labels...) }
}

func writeMetrics(w io.Writer, sw *sim.Switch, d *dpmu.DPMU) {
	snap := sw.Metrics()
	st := sw.Stats()

	counter := func(name, help string, v int64) { family(w, name, help, "counter")(v) }
	counter("hyper4_packets_in_total", "Packets submitted to the switch.", int64(st.PacketsIn))
	counter("hyper4_packets_out_total", "Packets emitted by the switch.", int64(st.PacketsOut))
	counter("hyper4_packets_dropped_total", "Packets that produced no output.", int64(st.PacketsDropped))
	counter("hyper4_resubmits_total", "Resubmit operations.", int64(st.Resubmits))
	counter("hyper4_recirculates_total", "Recirculate operations.", int64(st.Recirculates))
	counter("hyper4_clones_total", "Clone operations.", int64(st.Clones))
	counter("hyper4_table_applies_total", "Match-action stages executed.", int64(st.TableApplies))

	tables := make([]string, 0, len(snap.Tables))
	for name := range snap.Tables {
		tables = append(tables, name)
	}
	sort.Strings(tables)
	perTable := func(name, help string, get func(sim.TableCounters) int64, typ string) {
		add := family(w, name, help, typ)
		for _, t := range tables {
			add(get(snap.Tables[t]), "table", t)
		}
	}
	perTable("hyper4_table_hits_total", "Lookups that matched an installed entry.",
		func(c sim.TableCounters) int64 { return c.Hits }, "counter")
	perTable("hyper4_table_misses_total", "Lookups that matched nothing.",
		func(c sim.TableCounters) int64 { return c.Misses }, "counter")
	perTable("hyper4_table_default_actions_total", "Misses on which a configured default action ran.",
		func(c sim.TableCounters) int64 { return c.Defaults }, "counter")
	perTable("hyper4_table_entries", "Currently installed entries.",
		func(c sim.TableCounters) int64 { return int64(c.Entries) }, "gauge")

	actions := make([]string, 0, len(snap.Actions))
	for name := range snap.Actions {
		actions = append(actions, name)
	}
	sort.Strings(actions)
	add := family(w, "hyper4_action_invocations_total", "Action executions by name.", "counter")
	for _, a := range actions {
		add(snap.Actions[a], "action", a)
	}

	add = family(w, "hyper4_pipeline_passes_total", "Pipeline passes by bmv2 instance type.", "counter")
	add(snap.Passes.Normal, "kind", "normal")
	add(snap.Passes.Resubmit, "kind", "resubmit")
	add(snap.Passes.Recirculate, "kind", "recirculate")
	add(snap.Passes.CloneI2E, "kind", "clone_i2e")
	add(snap.Passes.CloneE2E, "kind", "clone_e2e")

	const latency = "hyper4_process_latency_seconds"
	fmt.Fprintf(w, "# HELP %s Per-packet processing wall time: one sample per packet; a packet of a ProcessSeq burst is filed at the burst's mean.\n# TYPE %s histogram\n", latency, latency)
	var cum int64
	for i, c := range snap.Latency.Counts {
		cum += c
		le := "+Inf"
		if i < len(snap.Latency.Bounds) {
			le = fmt.Sprintf("%g", snap.Latency.Bounds[i].Seconds())
		}
		sample(w, latency+"_bucket", cum, "le", le)
	}
	fmt.Fprintf(w, "%s_sum %g\n", latency, float64(snap.Latency.SumNs)/1e9)
	sample(w, latency+"_count", snap.Latency.Count)

	add = family(w, "hyper4_packet_faults_total", "Contained packet faults by kind.", "counter")
	byKind := snap.Faults.ByKind()
	for _, kind := range sim.FaultKinds() {
		add(byKind[kind], "kind", string(kind))
	}
	counter("hyper4_quarantine_drops_total", "Passes dropped because their device is quarantined.", snap.Faults.QuarantineDrops)

	if d == nil {
		return
	}
	all := d.AllStats()
	add = family(w, "hyper4_vdev_passes_total", "Pipeline passes attributed to a virtual device.", "counter")
	for _, v := range all {
		add(int64(v.Packets), "vdev", v.VDev)
	}
	add = family(w, "hyper4_vdev_bytes_total", "Bytes attributed to a virtual device.", "counter")
	for _, v := range all {
		add(int64(v.Bytes), "vdev", v.VDev)
	}
	add = family(w, "hyper4_vdev_table_hits_total", "Virtual-table hits per virtual device.", "counter")
	for _, v := range all {
		for _, ts := range v.Tables {
			add(ts.Hits, "vdev", v.VDev, "table", ts.Table)
		}
	}
	add = family(w, "hyper4_vdev_table_misses_total", "Virtual-table misses per virtual device.", "counter")
	for _, v := range all {
		for _, ts := range v.Tables {
			add(ts.Misses, "vdev", v.VDev, "table", ts.Table)
		}
	}

	// Scraping health also advances the breaker state machine, so a
	// monitored switch transitions quarantined → probing → healthy without
	// any other management traffic.
	health := d.Health()
	add = family(w, "hyper4_vdev_health", "Circuit-breaker state (0 healthy, 1 degraded, 2 probing, 3 quarantined).", "gauge")
	for _, v := range health.VDevs {
		add(int64(healthValue(v.State)), "vdev", v.VDev)
	}
	add = family(w, "hyper4_vdev_health_trips_total", "Circuit-breaker trips per virtual device.", "counter")
	for _, v := range health.VDevs {
		add(v.Trips, "vdev", v.VDev)
	}
	add = family(w, "hyper4_vdev_faults_total", "Packet faults attributed to a virtual device.", "counter")
	for _, v := range health.VDevs {
		add(v.Faults, "vdev", v.VDev)
	}
	counter("hyper4_unattributed_faults_total", "Packet faults with no owning virtual device.", health.Unattributed)

	fs := d.FusionStatus()
	counter("hyper4_fuse_builds_total", "Fused-plan compilations (one per write batch that changed state).", int64(fs.Builds))
	family(w, "hyper4_fuse_plans", "Virtual devices with a fused plan installed.", "gauge")(int64(fs.Plans))
}

// writeIOMetrics renders the packet I/O runtime families: per-port frame
// and drop counters, per-ring occupancy, and the global processing counters.
func writeIOMetrics(w io.Writer, m pktio.Metrics) {
	perPort := func(name, help string, get func(pktio.PortMetrics) uint64) {
		add := family(w, name, help, "counter")
		for _, p := range m.Ports {
			add(int64(get(p)), "port", strconv.Itoa(p.Port))
		}
	}
	perPort("hyper4_rx_frames_total", "Frames received on a port's transport.",
		func(p pktio.PortMetrics) uint64 { return p.RxFrames })
	perPort("hyper4_tx_frames_total", "Frames transmitted out a port's transport.",
		func(p pktio.PortMetrics) uint64 { return p.TxFrames })
	add := family(w, "hyper4_ring_depth", "Current occupancy of a port-worker ring.", "gauge")
	for _, p := range m.Ports {
		port := strconv.Itoa(p.Port)
		for wkr, depth := range p.RxDepth {
			add(int64(depth), "port", port, "worker", strconv.Itoa(wkr), "dir", "rx")
		}
		for wkr, depth := range p.TxDepth {
			add(int64(depth), "port", port, "worker", strconv.Itoa(wkr), "dir", "tx")
		}
	}
	add = family(w, "hyper4_ring_drops_total", "Frames dropped because a ring was full.", "counter")
	for _, p := range m.Ports {
		port := strconv.Itoa(p.Port)
		add(int64(p.RxDrops), "port", port, "dir", "rx")
		add(int64(p.TxDrops), "port", port, "dir", "tx")
	}
	perPort("hyper4_tx_errors_total", "Transport send failures.",
		func(p pktio.PortMetrics) uint64 { return p.TxErrors })
	family(w, "hyper4_io_processed_total", "Frames the runtime handed to the switch.", "counter")(int64(m.Processed))
	family(w, "hyper4_io_proc_errors_total", "Frames the switch failed on.", "counter")(int64(m.ProcErrs))
	family(w, "hyper4_unrouted_frames_total", "Frames forwarded to a port with no transport attached.", "counter")(int64(m.Unrouted))
}

// writePortHealthMetrics renders the per-port breaker families. Quarantined
// ports stay listed even while their transport is detached — that is the
// alertable state.
func writePortHealthMetrics(w io.Writer, phs []pktio.PortHealth) {
	perPort := func(name, help, typ string, get func(pktio.PortHealth) uint64) {
		add := family(w, name, help, typ)
		for _, p := range phs {
			add(int64(get(p)), "port", strconv.Itoa(p.Port))
		}
	}
	perPort("hyper4_port_health", "Port circuit-breaker state (0 healthy, 1 degraded, 2 probing, 3 quarantined).", "gauge",
		func(p pktio.PortHealth) uint64 { return uint64(healthValue(p.State)) })
	perPort("hyper4_port_health_trips_total", "Port circuit-breaker trips.", "counter",
		func(p pktio.PortHealth) uint64 { return p.Trips })
	perPort("hyper4_port_reattach_total", "Successful automatic transport reattaches after quarantine.", "counter",
		func(p pktio.PortHealth) uint64 { return p.Reattaches })
	add := family(w, "hyper4_port_io_errors_total", "Transport faults charged to a port's breaker window, by kind.", "counter")
	for _, p := range phs {
		port := strconv.Itoa(p.Port)
		add(int64(p.RecvErrors), "port", port, "kind", "recv")
		add(int64(p.SendErrors), "port", port, "kind", "send")
		add(int64(p.Stalls), "port", port, "kind", "stall")
	}
}

// healthValue encodes a breaker state for the hyper4_vdev_health and
// hyper4_port_health gauges, ordered by severity so alerts can threshold on
// it.
func healthValue(s breaker.State) int {
	switch s {
	case breaker.Degraded:
		return 1
	case breaker.Probing:
		return 2
	case breaker.Quarantined:
		return 3
	}
	return 0
}
