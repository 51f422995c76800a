package main

import (
	"bufio"
	"encoding/hex"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// l2Script configures one l2_switch device between physical ports 1 and 2
// that forwards frame out of port 2.
const l2Script = "load l2 l2_switch\nassign 1 l2 1\nmap l2 2 2\n" +
	"l2 table_add smac _nop 00:00:00:00:00:01\nl2 table_add dmac forward 00:00:00:00:00:02 => 2\n"

// frame is a minimum-size Ethernet frame from 00:..:01 to 00:..:02, in hex.
var frame = "0000000000020000000000010800" + strings.Repeat("0", 100)

// TestChaosBreakerWalk boots the persona switch with seeded fault injection
// against program 1, drives traffic that panics inside the faulty device's
// actions, and watches its breaker walk quarantined -> probing -> healthy:
// three faults trip it, the 2 s open interval passes, and two clean probe
// packets restore it. Each health read advances the time-based breaker
// transitions, so the reads are polls.
func TestChaosBreakerWalk(t *testing.T) {
	sw := startSwitch(t, tool(t, "hp4switch"), "-persona", "-commands", writeScript(t, l2Script),
		"-api-addr", "127.0.0.1:0", "-chaos", "seed=7,attr=1,panic_every=1,panic_first=3",
		"-health-window", "30s", "-health-trip", "3", "-health-open", "2s", "-health-probes", "2")
	sw.send(t, "packet 1 "+frame, "packet 1 "+frame, "packet 1 "+frame)
	waitFor(t, `"state":"quarantined" on /v1/health`, func() (string, bool) {
		h := httpGet(t, "http://"+sw.api+"/v1/health")
		return h, strings.Contains(h, `"state":"quarantined"`)
	})
	waitFor(t, "l2: probing from hp4ctl health", func() (string, bool) {
		h := hp4ctl(t, sw, "health")
		return h, strings.Contains(h, "l2: probing")
	})
	sw.send(t, "packet 1 "+frame, "packet 1 "+frame)
	waitFor(t, "l2: healthy faults=3 trips=1 from hp4ctl health", func() (string, bool) {
		h := hp4ctl(t, sw, "health")
		return h, strings.Contains(h, "l2: healthy faults=3 trips=1")
	})
	sw.quit(t)
}

// TestManagementAPI configures a virtual device remotely through hp4ctl —
// the whole setup as ONE atomic batch — queries it through hp4ctl and a raw
// HTTP read, and requires the remotely configured device to forward a
// packet injected at the switch's REPL. Raw sim/runtime writes typed at the
// persona REPL are refused with the control form to use and leave the
// control state as it was; raw reads still answer.
func TestManagementAPI(t *testing.T) {
	sw := startSwitch(t, tool(t, "hp4switch"), "-persona", "-api-addr", "127.0.0.1:0")
	hp4ctl(t, sw, "-batch", "-f", writeScript(t, l2Script))
	if got := hp4ctl(t, sw, "vdevs"); got != "l2\n" {
		t.Errorf("hp4ctl vdevs = %q, want \"l2\\n\"", got)
	}
	if got := hp4ctl(t, sw, "stats", "l2"); !regexp.MustCompile(`(?m)^passes=`).MatchString(got) {
		t.Errorf("hp4ctl stats l2 has no passes= line:\n%s", got)
	}
	if got := httpGet(t, "http://"+sw.api+"/v1/read?kind=vdevs"); !strings.Contains(got, `"vdevs":["l2"]`) {
		t.Errorf("/v1/read?kind=vdevs = %s", got)
	}
	sw.send(t, "packet 1 "+frame)
	sw.await(t, regexp.MustCompile(`port 2 <- `))

	before := hp4ctl(t, sw, "dump")
	for _, line := range []string{
		"table_clear t1_ed_exact",
		"table_add t1_ed_exact _nop 0x1 => 2",
		"table_delete t1_ed_exact 0",
		"table_modify t1_ed_exact _nop 0",
		"table_set_default t1_ed_exact _nop",
		"mirroring_add 1 2",
		"register_write r 0 1",
		"counter_reset hp4_vdev_counter 1",
		"meter_set_rates hp4_ingress_meter 1 10 20",
	} {
		sw.send(t, line)
		cmd := strings.Fields(line)[0]
		sw.await(t, regexp.MustCompile(`error: INVALID_ARGUMENT: raw `+cmd+` is not allowed in persona mode.*; use \S`))
	}
	sw.send(t, "counter_read hp4_vdev_counter 1")
	sw.await(t, regexp.MustCompile(`packets=\d+ bytes=\d+`))
	if after := hp4ctl(t, sw, "dump"); after != before {
		t.Errorf("raw writes changed the control state:\nbefore:\n%s\nafter:\n%s", before, after)
	}
	sw.quit(t)
}

// TestWireIO configures the l2 device and both of its UDP wire transports
// through ctl port ops in the -commands script (the switch gets no traffic
// flags), sends one real frame over the wire with hp4io, and requires it
// forwarded out of port 2's UDP peer and the I/O metric families to count
// exactly that frame.
func TestWireIO(t *testing.T) {
	in, out := freeUDPPort(t), freeUDPPort(t)
	peer, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	cmds := writeScript(t, l2Script+"port attach 1 udp:"+in+"\nport attach 2 udp:"+out+"/"+peer.LocalAddr().String()+"\n")
	sw := startSwitch(t, tool(t, "hp4switch"), "-persona", "-commands", cmds, "-metrics-addr", "127.0.0.1:0")
	if b, err := exec.Command(tool(t, "hp4io"), "send", "-to", in, "-hex", frame).CombinedOutput(); err != nil {
		t.Fatalf("hp4io send: %v\n%s", err, b)
	}
	if err := peer.SetReadDeadline(time.Now().Add(30 * time.Second)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 2048)
	n, _, err := peer.ReadFrom(buf)
	if err != nil {
		t.Fatalf("no forwarded frame on %s: %v\nswitch output:\n%s", peer.LocalAddr(), err, sw.output())
	}
	if got := hex.EncodeToString(buf[:n]); !strings.HasPrefix(got, "0000000000020000000000010800") {
		t.Errorf("forwarded frame %s, want the sent frame's header", got)
	}
	waitFor(t, "one frame in the I/O metrics", func() (string, bool) {
		m := httpGet(t, "http://"+sw.metrics+"/metrics")
		lines := strings.Split(m, "\n")
		for _, want := range []string{
			`hyper4_rx_frames_total{port="1"} 1`,
			`hyper4_tx_frames_total{port="2"} 1`,
			`hyper4_ring_depth{port="1",worker="0",dir="rx"} 0`,
			`hyper4_io_processed_total 1`,
		} {
			if !slices.Contains(lines, want) {
				return m, false
			}
		}
		return m, true
	})
	sw.quit(t)
}

// tools holds hp4switch, hp4ctl and hp4io, built once per package run into
// a directory TestMain removes.
var tools struct {
	once sync.Once
	dir  string
	err  error
}

func TestMain(m *testing.M) {
	code := m.Run()
	if tools.dir != "" {
		os.RemoveAll(tools.dir)
	}
	os.Exit(code)
}

// tool returns the path of one of hp4switch, hp4ctl and hp4io, building all
// three the first time a test asks.
func tool(t *testing.T, name string) string {
	t.Helper()
	tools.once.Do(func() {
		if tools.dir, tools.err = os.MkdirTemp("", "hp4switch-test"); tools.err != nil {
			return
		}
		b, err := exec.Command("go", "build", "-o", tools.dir+string(filepath.Separator),
			"hyper4/cmd/hp4switch", "hyper4/cmd/hp4ctl", "hyper4/cmd/hp4io").CombinedOutput()
		if err != nil {
			tools.err = fmt.Errorf("go build: %v\n%s", err, b)
		}
	})
	if tools.err != nil {
		t.Fatal(tools.err)
	}
	return filepath.Join(tools.dir, name)
}

// writeScript writes a command script into the test's temp dir.
func writeScript(t *testing.T, script string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "cmds")
	if err := os.WriteFile(path, []byte(script), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// freeUDPPort returns a loopback UDP address the OS just had free.
func freeUDPPort(t *testing.T) string {
	t.Helper()
	c, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	return c.LocalAddr().String()
}

// hp4ctl runs hp4ctl against the switch's management API and returns its
// output.
func hp4ctl(t *testing.T, sw *switchProc, args ...string) string {
	t.Helper()
	b, err := exec.Command(tool(t, "hp4ctl"), append([]string{"-addr", "http://" + sw.api}, args...)...).CombinedOutput()
	if err != nil {
		t.Fatalf("hp4ctl %v: %v\n%s", args, err, b)
	}
	return string(b)
}

// httpGet fetches url and requires a 200.
func httpGet(t *testing.T, url string) string {
	t.Helper()
	c := http.Client{Timeout: 10 * time.Second}
	resp, err := c.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s\n%s", url, resp.Status, b)
	}
	return string(b)
}

// waitFor polls check every 20 ms until it reports done, and fails the test
// after 30 s with what it waited for and the last value check saw.
func waitFor(t *testing.T, what string, check func() (last string, done bool)) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		last, done := check()
		if done {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("no %s in 30s; last seen:\n%s", what, last)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// switchProc is a running hp4switch: its REPL's stdin, its combined output,
// and the addresses its banners announced.
type switchProc struct {
	cmd     *exec.Cmd
	stdin   io.WriteCloser
	api     string        // with -api-addr
	metrics string        // with -metrics-addr
	exited  chan struct{} // closed once the process is reaped; err is then set
	err     error
	mu      sync.Mutex
	out     strings.Builder
}

var (
	apiLine     = regexp.MustCompile(`management API on http://([^/]+)/v1/`)
	metricsLine = regexp.MustCompile(`metrics on http://([^/]+)/metrics`)
	scriptDone  = regexp.MustCompile(`(?m)^executed `)
)

// startSwitch runs hp4switch and waits until it is ready for what its flags
// ask: the management API and metrics listeners announced (which happens
// after journal recovery, with the listener bound) and a -commands script
// executed.
func startSwitch(t *testing.T, bin string, args ...string) *switchProc {
	t.Helper()
	p := &switchProc{cmd: exec.Command(bin, args...), exited: make(chan struct{})}
	stdin, err := p.cmd.StdinPipe()
	if err != nil {
		t.Fatal(err)
	}
	p.stdin = stdin
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	p.cmd.Stdout, p.cmd.Stderr = w, w
	if err := p.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	w.Close()
	t.Cleanup(func() {
		select {
		case <-p.exited:
		default:
			_ = p.cmd.Process.Kill()
			<-p.exited
		}
	})
	go func() {
		sc := bufio.NewScanner(r)
		for sc.Scan() {
			p.mu.Lock()
			p.out.WriteString(sc.Text() + "\n")
			p.mu.Unlock()
		}
		p.err = p.cmd.Wait()
		close(p.exited)
	}()
	for _, a := range args {
		switch a {
		case "-api-addr":
			p.api = p.await(t, apiLine)[1]
		case "-metrics-addr":
			p.metrics = p.await(t, metricsLine)[1]
		case "-commands":
			p.await(t, scriptDone)
		}
	}
	return p
}

func (p *switchProc) output() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.out.String()
}

// await polls the switch's output until re matches and returns the match
// with its submatches. It fails the test at once if the switch exits first.
func (p *switchProc) await(t *testing.T, re *regexp.Regexp) []string {
	t.Helper()
	var m []string
	waitFor(t, fmt.Sprintf("%q from hp4switch %v", re, p.cmd.Args[1:]), func() (string, bool) {
		exited := false
		select {
		case <-p.exited:
			exited = true
		default:
		}
		out := p.output()
		if m = re.FindStringSubmatch(out); m == nil && exited {
			t.Fatalf("hp4switch %v exited (%v) before printing %q:\n%s", p.cmd.Args[1:], p.err, re, out)
		}
		return out, m != nil
	})
	return m
}

// send types lines into the switch's REPL.
func (p *switchProc) send(t *testing.T, lines ...string) {
	t.Helper()
	if _, err := io.WriteString(p.stdin, strings.Join(lines, "\n")+"\n"); err != nil {
		t.Fatal(err)
	}
}

// kill SIGKILLs the switch: nothing flushes, nothing closes.
func (p *switchProc) kill(t *testing.T) {
	t.Helper()
	if err := p.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	<-p.exited
}

// quit ends the REPL the way a script does, by closing its input, and waits
// for a clean exit.
func (p *switchProc) quit(t *testing.T) {
	t.Helper()
	p.stdin.Close()
	select {
	case <-p.exited:
		if p.err != nil {
			t.Fatalf("hp4switch exit: %v\n%s", p.err, p.output())
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("hp4switch did not exit after its input closed:\n%s", p.output())
	}
}
