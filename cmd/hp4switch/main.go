// Command hp4switch runs a software P4 switch interactively: load a program
// (a .p4 file, a built-in function, or the generated persona), feed it
// runtime commands and packets, and observe the outputs.
//
// Usage:
//
//	hp4switch -builtin l2_switch [-commands file.txt]
//	hp4switch -persona [-commands file.txt] [-api-addr 127.0.0.1:9191]
//	hp4switch foo.p4
//
// The switch serves real wire traffic through the packet I/O runtime
// (internal/runtime): attach a transport to a physical port with the
// "port attach <port> <spec>" control command (spec e.g. "udp:0.0.0.0:9000"
// or "udp:0.0.0.0:9000/10.0.0.2:9001"), or seed one at startup with
// -listen port=spec (repeatable). Frames arriving on attached transports are
// sharded onto per-worker rings — by vdev program ID in persona mode — and
// forwarded out the egress port's transport.
//
// The interactive prompt accepts every command of internal/sim/runtime plus:
//
//	packet <port> <hex bytes>   inject a packet; outputs are printed
//	trace <port> <hex bytes>    inject and print the full table trace
//	tables                      list tables and entry counts
//	stats                       switch counters, pass kinds, latency percentiles
//	stats table <name>          one table's hit/miss/default counters
//	stats <vdev>                per-virtual-table stats of a device (persona mode)
//	health [vdev]               circuit-breaker health (persona mode)
//	reset <vdev>                force a quarantined device healthy (persona mode)
//	quit
//
// A SIGINT/SIGTERM shuts down gracefully: API writes stop, in-flight work
// drains, event streams are released, and the process exits 0. The -chaos
// flag arms deterministic fault injection (internal/chaos) for resilience
// drills; the -health-* flags tune the per-vdev circuit breakers.
//
// With -metrics-addr the same counters are served continuously in Prometheus
// text format on /metrics, with pprof under /debug/pprof/.
//
// In -persona mode the prompt additionally accepts every control-plane
// management command (load/assign/map/link/snapshot_…, see
// internal/core/ctl) and virtual table operations of the form
// "<vdev> table_add …", so a whole virtualized configuration can be driven
// interactively or from a -commands script. The raw internal/sim/runtime
// writes (table_add, register_write, …) are rejected there with the control
// form to use instead; its reads still work. With -api-addr the same
// operations are served remotely as typed, atomically-batched HTTP writes
// (drive them with hp4ctl), and a failing -commands script exits with the
// structured code of its first error.
package main

import (
	"bufio"
	"context"
	"encoding/hex"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	goruntime "runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"errors"

	"hyper4/internal/breaker"
	"hyper4/internal/chaos"
	"hyper4/internal/core/ctl"
	"hyper4/internal/core/dpmu"
	"hyper4/internal/core/persona"
	"hyper4/internal/functions"
	"hyper4/internal/p4/hlir"
	"hyper4/internal/p4/parser"
	"hyper4/internal/pkt"
	pktio "hyper4/internal/runtime"
	"hyper4/internal/sim"
	"hyper4/internal/sim/runtime"
)

// readHeaderTimeout bounds how long the API and metrics servers wait for a
// request's headers, so a client that opens a connection and stalls cannot
// hold it forever; idleTimeout bounds how long they keep an idle keep-alive
// connection open between requests.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 60 * time.Second
)

// serveHTTP serves h on ln in the background with both timeouts set; the
// management API and the metrics endpoint are each one of these.
func serveHTTP(name string, ln net.Listener, h http.Handler) *http.Server {
	srv := &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
	go func() {
		if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "hp4switch: %s: %v\n", name, err)
		}
	}()
	return srv
}

func main() {
	builtin := flag.String("builtin", "", "run a built-in function: "+strings.Join(functions.Names(), ", "))
	usePersona := flag.Bool("persona", false, "run the HyPer4 persona (reference configuration)")
	commands := flag.String("commands", "", "runtime command file to execute at startup")
	metricsAddr := flag.String("metrics-addr", "", "serve Prometheus metrics and pprof on this address (e.g. 127.0.0.1:9090)")
	apiAddr := flag.String("api-addr", "", "serve the management API on this address (persona mode, e.g. 127.0.0.1:9191)")
	chaosSpec := flag.String("chaos", "", "deterministic fault injection spec, e.g. \"seed=1,attr=2,panic_every=4\" (see internal/chaos)")
	chaosIOSpec := flag.String("chaos-io", "", "deterministic transport fault injection spec, e.g. \"seed=1,io_port=2,recv_err_every=4\" (see internal/chaos)")
	journalDir := flag.String("journal", "", "journal applied control-plane batches to this directory and recover from it at boot (persona mode)")
	healthWindow := flag.Duration("health-window", 10*time.Second, "circuit breaker: sliding fault window (persona mode)")
	healthTrip := flag.Int("health-trip", 5, "circuit breaker: faults within the window that trip quarantine")
	healthOpen := flag.Duration("health-open", 5*time.Second, "circuit breaker: quarantine time before half-open probing")
	healthProbes := flag.Int("health-probes", 10, "circuit breaker: clean probe passes required to restore")
	healthPolicy := flag.String("health-policy", "drop", "quarantine policy: drop | bypass")
	fuse := flag.Bool("fuse", false, "enable the fused fast path: compile per-vdev dispatch plans and bypass the interpreted persona walk (persona mode)")
	// -listen seeds the I/O runtime with transports at startup; everything
	// it does is also reachable at runtime via "port attach".
	type listenSeed struct {
		port int
		spec string
	}
	var listenSeeds []listenSeed
	flag.Func("listen", "attach a wire transport at startup, port=spec (e.g. 1=udp:0.0.0.0:9000; repeatable)", func(s string) error {
		portStr, spec, ok := strings.Cut(s, "=")
		if !ok {
			return fmt.Errorf("want port=spec, got %q", s)
		}
		p, err := strconv.Atoi(portStr)
		if err != nil || p < 0 {
			return fmt.Errorf("bad port %q", portStr)
		}
		listenSeeds = append(listenSeeds, listenSeed{port: p, spec: spec})
		return nil
	})
	flag.Parse()

	quarPolicy, policyErr := dpmu.ParseQuarantinePolicy(*healthPolicy)
	if policyErr != nil {
		fmt.Fprintln(os.Stderr, "hp4switch: -health-policy:", policyErr)
		os.Exit(2)
	}

	var prog *hlir.Program
	var pers *persona.Persona
	var err error
	switch {
	case *usePersona:
		pers, err = persona.Generate(persona.Reference)
		if err == nil {
			prog = pers.Program
		}
	case *builtin != "":
		prog, err = functions.Load(*builtin)
	case flag.NArg() == 1:
		var src []byte
		if src, err = os.ReadFile(flag.Arg(0)); err == nil {
			var parsed, perr = parser.Parse(flag.Arg(0), string(src))
			if perr != nil {
				err = perr
			} else {
				prog, err = hlir.Resolve(parsed)
			}
		}
	default:
		fmt.Fprintln(os.Stderr, "usage: hp4switch -builtin <fn> | -persona | foo.p4")
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "hp4switch:", err)
		os.Exit(1)
	}

	sw, err := sim.New("sw0", prog)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hp4switch:", err)
		os.Exit(1)
	}
	rt := runtime.New(sw)
	var mgmt *ctl.CLI
	var cp *ctl.Ctl
	var d *dpmu.DPMU
	if pers != nil {
		d, err = dpmu.New(sw, pers)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hp4switch:", err)
			os.Exit(1)
		}
		d.SetHealthConfig(dpmu.HealthConfig{
			Config:       breaker.Config{Window: *healthWindow, Trip: *healthTrip, OpenFor: *healthOpen},
			ProbePackets: *healthProbes,
			Policy:       quarPolicy,
		})
		if *fuse {
			d.SetFusion(true)
			fmt.Println("fused fast path enabled (query with: fuse)")
		}
		cp = ctl.New(d)
		mgmt = ctl.NewCLI(cp, "operator")
		fmt.Println("persona loaded; DPMU management commands available")
	}

	// The packet I/O runtime: dedicated RX/TX loops per attached transport,
	// frames sharded onto per-worker rings. In persona mode the shard key is
	// the ingress port's assigned vdev program ID, so one device's traffic
	// (and its breaker/health accounting) stays on one worker.
	ioCfg := pktio.Config{Workers: goruntime.GOMAXPROCS(0)}
	if d != nil {
		dd := d
		ioCfg.ShardKey = func(port int) int {
			if pid := dd.PIDForPort(port); pid >= 0 {
				return pid
			}
			return port
		}
	}
	if *chaosIOSpec != "" {
		spec, err := chaos.ParseSpec(*chaosIOSpec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hp4switch: -chaos-io:", err)
			os.Exit(2)
		}
		inj := chaos.New(spec)
		// Every spec-built transport — startup seeds, runtime attaches, and
		// breaker auto-reattaches alike — comes back chaos-wrapped.
		ioCfg.TransportFactory = func(port int, spec string) (pktio.Transport, error) {
			tr, err := pktio.NewTransport(spec)
			if err != nil {
				return nil, err
			}
			return inj.WrapTransport(port, tr), nil
		}
		fmt.Printf("transport chaos armed: %s\n", *chaosIOSpec)
	}
	iort := pktio.New(sw, ioCfg)
	iort.Start()
	if cp != nil {
		cp.IO = iort
		// Bridge port-breaker transitions onto the management event stream.
		ccp := cp
		iort.SetHealthNotify(func(ph pktio.PortHealth) {
			ccp.PublishPortHealth(ph.Port, ph.Spec, string(ph.State))
		})
	}
	var jrnl *ctl.Journal
	if *journalDir != "" {
		if cp == nil {
			fmt.Fprintln(os.Stderr, "hp4switch: -journal requires -persona")
			os.Exit(2)
		}
		j, jerr := ctl.OpenJournal(*journalDir, ctl.DefaultSnapshotEvery)
		if jerr != nil {
			fmt.Fprintln(os.Stderr, "hp4switch: -journal:", jerr)
			os.Exit(1)
		}
		summary, jerr := cp.AttachJournal(j)
		if jerr != nil {
			fmt.Fprintln(os.Stderr, "hp4switch: -journal: recovery:", jerr)
			os.Exit(1)
		}
		jrnl = j
		fmt.Printf("journal at %s: snapshot seq %d, replayed %d batches, %d ports reattached\n",
			*journalDir, summary.SnapshotSeq, summary.Replayed, summary.PortsAttached)
		if summary.Truncated {
			fmt.Println("journal: truncated a torn (unacknowledged) trailing record")
		}
		for _, w := range summary.Warnings {
			fmt.Fprintln(os.Stderr, "hp4switch: journal recovery:", w)
		}
		defer j.Close()
	}
	for _, seed := range listenSeeds {
		if jrnl != nil && portAttachedWithSpec(iort, seed.port, seed.spec) {
			// Journal recovery already restored this port; the seed is the
			// same wiring restated, not a conflict.
			fmt.Printf("port %d listening (%s, restored from journal)\n", seed.port, seed.spec)
			continue
		}
		// Route through the control plane when there is one, so seeds are
		// evented and listed identically to runtime attaches.
		var seedErr error
		if mgmt != nil {
			_, seedErr = mgmt.Exec(fmt.Sprintf("port attach %d %s", seed.port, seed.spec))
		} else {
			seedErr = iort.AttachSpec(seed.port, seed.spec)
		}
		if seedErr != nil {
			fmt.Fprintln(os.Stderr, "hp4switch: -listen:", seedErr)
			os.Exit(ctl.CodeOf(seedErr).ExitCode())
		}
		fmt.Printf("port %d listening (%s)\n", seed.port, seed.spec)
	}
	if *chaosSpec != "" {
		spec, err := chaos.ParseSpec(*chaosSpec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hp4switch: -chaos:", err)
			os.Exit(2)
		}
		sw.SetInjector(chaos.New(spec))
		fmt.Printf("chaos injection armed: %s\n", *chaosSpec)
	}

	// cmdMu serializes command execution against shutdown: the signal
	// handler takes it so an in-flight command or script line finishes
	// before the process exits.
	var cmdMu sync.Mutex
	var apiSrv, metricsSrv *http.Server

	if *apiAddr != "" {
		if cp == nil {
			fmt.Fprintln(os.Stderr, "hp4switch: -api-addr requires -persona")
			os.Exit(2)
		}
		ln, err := net.Listen("tcp", *apiAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hp4switch: api:", err)
			os.Exit(1)
		}
		fmt.Printf("management API on http://%s/v1/ (drive with hp4ctl -addr http://%s)\n", ln.Addr(), ln.Addr())
		apiSrv = serveHTTP("api", ln, ctl.NewServeMux(cp))
	}
	if *metricsAddr != "" {
		ln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hp4switch: metrics:", err)
			os.Exit(1)
		}
		fmt.Printf("metrics on http://%s/metrics (pprof under /debug/pprof/)\n", ln.Addr())
		metricsSrv = serveHTTP("metrics", ln, newMetricsMux(sw, d, iort))
	}

	// Graceful shutdown on SIGINT/SIGTERM: stop accepting API writes, let
	// in-flight requests and the current REPL/script command drain, release
	// event-stream long-polls, then exit 0 — fault containment extends to
	// the process boundary.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sigc
		fmt.Fprintf(os.Stderr, "\nhp4switch: %v: draining and shutting down\n", s)
		if cp != nil {
			cp.Close() // long-polls return so Shutdown isn't held hostage
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if apiSrv != nil {
			_ = apiSrv.Shutdown(ctx)
		}
		if metricsSrv != nil {
			_ = metricsSrv.Shutdown(ctx)
		}
		cmdMu.Lock() // wait for the in-flight command, then never release
		// Drain the data plane last: ingestion stops, workers finish the
		// ring backlog, queued egress flushes, transports close.
		iort.Close()
		if jrnl != nil {
			// Acked batches are already fsync'd; this just releases the wal
			// handle so the exit is indistinguishable from a clean close.
			_ = jrnl.Close()
		}
		os.Exit(0)
	}()

	if *commands != "" {
		script, err := os.ReadFile(*commands)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hp4switch:", err)
			os.Exit(1)
		}
		cmdMu.Lock()
		var execErr error
		if mgmt != nil {
			execErr = mgmt.ExecAll(string(script))
		} else {
			execErr = rt.ExecAll(string(script))
		}
		cmdMu.Unlock()
		if execErr != nil {
			fmt.Fprintln(os.Stderr, "hp4switch:", execErr)
			os.Exit(ctl.CodeOf(execErr).ExitCode())
		}
		fmt.Printf("executed %s\n", *commands)
	}

	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	fmt.Print("hp4> ")
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line != "" {
			if line == "quit" || line == "exit" {
				return
			}
			cmdMu.Lock()
			handle(sw, rt, mgmt, iort, line)
			cmdMu.Unlock()
		}
		fmt.Print("hp4> ")
	}
	// A scan error (e.g. an input line over the 1 MiB buffer) must not look
	// like a clean quit.
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "hp4switch: reading input:", err)
		os.Exit(1)
	}
}

func handle(sw *sim.Switch, rt *runtime.Runtime, mgmt *ctl.CLI, iort *pktio.Runtime, line string) {
	fields := strings.Fields(line)
	switch fields[0] {
	case "port":
		// One grammar both ways: in persona mode port ops flow through the
		// management CLI (evented, batched, remotable); outside it the same
		// grammar applies directly to the I/O runtime.
		var out string
		var err error
		if mgmt != nil {
			out, err = mgmt.Exec(line)
		} else {
			out, err = portExec(iort, line)
		}
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		if out != "" {
			fmt.Println(out)
		}
	case "packet", "trace":
		if len(fields) < 3 {
			fmt.Println("usage: packet <port> <hexbytes>")
			return
		}
		port, err := strconv.Atoi(fields[1])
		if err != nil {
			fmt.Println("bad port:", fields[1])
			return
		}
		data, err := hex.DecodeString(strings.Join(fields[2:], ""))
		if err != nil {
			fmt.Println("bad hex:", err)
			return
		}
		outs, tr, err := sw.Process(data, port)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		if fields[0] == "trace" {
			fmt.Printf("passes=%d resubmits=%d recirculates=%d applies=%d\n",
				tr.Passes, tr.Resubmits, tr.Recirculates, tr.Applies)
			for _, ap := range tr.ApplyLog {
				pipe := "ingress"
				if ap.Egress {
					pipe = "egress"
				}
				result := "miss"
				if ap.Hit {
					result = "hit"
				}
				fmt.Printf("  %-7s %-24s %s\n", pipe, ap.Table, result)
			}
		}
		if len(outs) == 0 {
			fmt.Println("dropped")
		}
		for _, o := range outs {
			fmt.Printf("port %d <- %x\n", o.Port, o.Data)
			fmt.Printf("          %s\n", pkt.Summary(o.Data))
		}
	case "tables":
		for _, name := range sw.TableNames() {
			n, _ := sw.TableEntryCount(name)
			if n > 0 {
				fmt.Printf("%-28s %d entries\n", name, n)
			}
		}
	case "stats":
		switch {
		case len(fields) == 1:
			s := sw.Stats()
			fmt.Printf("in=%d out=%d dropped=%d resubmits=%d recirculates=%d applies=%d\n",
				s.PacketsIn, s.PacketsOut, s.PacketsDropped, s.Resubmits, s.Recirculates, s.TableApplies)
			m := sw.Metrics()
			fmt.Printf("passes: normal=%d resubmit=%d recirculate=%d clone_i2e=%d clone_e2e=%d\n",
				m.Passes.Normal, m.Passes.Resubmit, m.Passes.Recirculate, m.Passes.CloneI2E, m.Passes.CloneE2E)
			if f := m.Faults; f.Total() > 0 || f.QuarantineDrops > 0 {
				fmt.Printf("faults: panic=%d pass_bound=%d parse=%d pipeline=%d deparse=%d quarantine_drops=%d\n",
					f.Panic, f.PassBound, f.Parse, f.Pipeline, f.Deparse, f.QuarantineDrops)
			}
			if m.Latency.Count > 0 {
				fmt.Printf("latency: p50=%v p90=%v p99=%v p999=%v\n",
					m.Latency.Quantile(0.50), m.Latency.Quantile(0.90),
					m.Latency.Quantile(0.99), m.Latency.Quantile(0.999))
			}
		case fields[1] == "table" && len(fields) == 3:
			tc, err := sw.TableMetrics(fields[2])
			if err != nil {
				fmt.Println("error:", err)
				return
			}
			fmt.Printf("table %s: hits=%d misses=%d default_actions=%d entries=%d\n",
				fields[2], tc.Hits, tc.Misses, tc.Defaults, tc.Entries)
		case len(fields) == 2 && mgmt != nil:
			// stats <vdev>: the DPMU's per-virtual-table view.
			out, err := mgmt.Exec(line)
			if err != nil {
				fmt.Println("error:", err)
				return
			}
			fmt.Println(out)
		default:
			fmt.Println("usage: stats | stats table <name> | stats <vdev>")
		}
	default:
		if mgmt != nil {
			out, err := mgmt.Exec(line)
			if err == nil {
				if out != "" {
					fmt.Println(out)
				}
				return
			}
			// Fall through to raw switch commands for anything outside the
			// control-plane dialect, except those that write persona state.
			if !errors.Is(err, ctl.ErrUnknown) {
				fmt.Println("error:", err)
				return
			}
			if form, ok := rawWrites[fields[0]]; ok {
				fmt.Println("error:", &ctl.Error{Code: ctl.CodeInvalidArgument, Op: -1, Msg: fmt.Sprintf(
					"raw %s is not allowed in persona mode (it would bypass the journal, ownership checks and the DPMU rebuild); use %s",
					fields[0], form)})
				return
			}
		}
		out, err := rt.Exec(line)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		if out != "" {
			fmt.Println(out)
		}
	}
}

// rawWrites maps each mutating sim/runtime CLI command to the control-plane
// form that replaces it in persona mode. A raw write to a persona table or
// extern is never journaled, skips the DPMU's ownership checks, and bumps
// the switch generation without a DPMU rebuild, so every packet declines
// to the interpreter until the next DPMU write.
var rawWrites = map[string]string{
	"table_add":         `"<vdev> table_add <table> <action> <match>... => <args>..."`,
	"table_delete":      `"<vdev> table_delete <table> <handle>"`,
	"table_modify":      `"<vdev> table_modify <table> <handle> <action> <match>... => <args>..."`,
	"table_set_default": `"<vdev> table_set_default <table> <action> [args...]"`,
	"table_clear":       `"<vdev> table_delete <table> <handle>" per entry`,
	"mirroring_add":     `"mcast <vdev> <vport> <vdev:vingress>..."`,
	"register_write":    `a vdev's own actions, installed with "<vdev> table_add"`,
	"counter_reset":     `a vdev's own actions, installed with "<vdev> table_add"`,
	"meter_set_rates":   `"ratelimit <vdev> <yellowAt> <redAt>"`,
}

// portAttachedWithSpec reports whether the port is already attached with
// exactly this spec (journal recovery restores ports before -listen seeds
// run; an identical seed is then a restatement, not a conflict).
func portAttachedWithSpec(iort *pktio.Runtime, port int, spec string) bool {
	for _, p := range iort.Ports() {
		if p.Port == port && p.Spec == spec {
			return true
		}
	}
	return false
}

// portExec applies a port command straight to the I/O runtime, for switches
// running without a control plane. Same grammar, same one-parse-path: the
// line goes through ctl.ParseLine and only port ops are accepted here.
func portExec(iort *pktio.Runtime, line string) (string, error) {
	op, q, err := ctl.ParseLine(line)
	if err != nil {
		return "", err
	}
	switch {
	case op != nil && op.Kind == ctl.OpPortAttach:
		if err := iort.AttachSpec(op.PhysPort, op.Spec); err != nil {
			return "", err
		}
		return fmt.Sprintf("port %d attached (%s)", op.PhysPort, op.Spec), nil
	case op != nil && op.Kind == ctl.OpPortDetach:
		if err := iort.Detach(op.PhysPort); err != nil {
			return "", err
		}
		return fmt.Sprintf("port %d detached", op.PhysPort), nil
	case q != nil && q.Kind == "ports":
		return ctl.FormatRead(q, &ctl.ReadResult{Ports: iort.Ports()}), nil
	}
	return "", fmt.Errorf("not a port command: %q", line)
}
