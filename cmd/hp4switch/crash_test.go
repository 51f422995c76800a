package main

import (
	"bufio"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestCrashRecovery is the crash-recovery acceptance test over the real
// binaries: boot the persona switch with a control-plane journal, wire it up
// remotely (the whole config as ONE acked batch), prove it forwards real
// wire traffic, then SIGKILL it. A restart on the same journal directory
// must replay the batch, re-bind both UDP ports and forward again, and its
// control-state dump must be byte-identical to a twin switch that was
// configured identically but never crashed.
func TestCrashRecovery(t *testing.T) {
	bin := t.TempDir()
	hp4switch, hp4ctl, hp4io := buildTool(t, bin, "hp4switch"), buildTool(t, bin, "hp4ctl"), buildTool(t, bin, "hp4io")

	in, out, peer := freeUDPPort(t), freeUDPPort(t), freeUDPPort(t)
	cmds := filepath.Join(bin, "cmds")
	script := "load l2 l2_switch\nassign 1 l2 1\nmap l2 2 2\n" +
		"l2 table_add smac _nop 00:00:00:00:00:01\nl2 table_add dmac forward 00:00:00:00:00:02 => 2\n" +
		"port attach 1 udp:" + in + "\nport attach 2 udp:" + out + "/" + peer + "\n"
	if err := os.WriteFile(cmds, []byte(script), 0o644); err != nil {
		t.Fatal(err)
	}
	frame := "0000000000020000000000010800" + strings.Repeat("0", 100)
	forwards := func(sw *switchProc) {
		t.Helper()
		recv := exec.Command(hp4io, "recv", "-listen", peer, "-n", "1", "-timeout", "20s")
		var got strings.Builder
		recv.Stdout = &got
		if err := recv.Start(); err != nil {
			t.Fatal(err)
		}
		defer func() { _ = recv.Process.Kill() }()
		done := make(chan error, 1)
		go func() { done <- recv.Wait() }()
		// The receiver binds asynchronously: send until it has a frame.
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			if err := exec.Command(hp4io, "send", "-to", in, "-hex", frame).Run(); err != nil {
				t.Fatalf("hp4io send: %v", err)
			}
			select {
			case err := <-done:
				if err != nil || !strings.HasPrefix(got.String(), frame) {
					t.Fatalf("no forwarded frame on %s (%v): %q\nswitch output:\n%s", peer, err, got.String(), sw.output())
				}
				return
			case <-tick.C:
			}
		}
	}
	ctl := func(sw *switchProc, args ...string) string {
		t.Helper()
		b, err := exec.Command(hp4ctl, append([]string{"-addr", "http://" + sw.api}, args...)...).CombinedOutput()
		if err != nil {
			t.Fatalf("hp4ctl %v: %v\n%s", args, err, b)
		}
		return string(b)
	}

	journal := filepath.Join(bin, "journal")
	victim := startSwitch(t, hp4switch, "-persona", "-journal", journal, "-api-addr", "127.0.0.1:0")
	ctl(victim, "-batch", "-f", cmds)
	forwards(victim)
	victim.kill(t)

	recovered := startSwitch(t, hp4switch, "-persona", "-journal", journal, "-api-addr", "127.0.0.1:0")
	if !strings.Contains(recovered.output(), "replayed 1 batches") {
		t.Fatalf("restart did not replay the acked batch:\n%s", recovered.output())
	}
	dumpRecovered := ctl(recovered, "dump")
	forwards(recovered)
	recovered.quit(t)

	twin := startSwitch(t, hp4switch, "-persona", "-api-addr", "127.0.0.1:0")
	ctl(twin, "-batch", "-f", cmds)
	if dumpTwin := ctl(twin, "dump"); dumpRecovered != dumpTwin {
		t.Fatalf("recovered control state differs from the never-crashed twin:\nrecovered:\n%s\ntwin:\n%s", dumpRecovered, dumpTwin)
	}
	twin.quit(t)
}

// buildTool builds one of the repo's commands into dir.
func buildTool(t *testing.T, dir, name string) string {
	t.Helper()
	out := filepath.Join(dir, name)
	if b, err := exec.Command("go", "build", "-o", out, "hyper4/cmd/"+name).CombinedOutput(); err != nil {
		t.Fatalf("go build %s: %v\n%s", name, err, b)
	}
	return out
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

// switchProc is a running hp4switch: its REPL's stdin, its combined output,
// and the management API address it announced.
type switchProc struct {
	cmd    *exec.Cmd
	stdin  io.Closer
	api    string
	exited chan struct{} // closed once the process is reaped; err is then set
	err    error
	mu     sync.Mutex
	out    strings.Builder
}

var apiLine = regexp.MustCompile(`management API on http://([^/]+)/v1/`)

// startSwitch runs hp4switch and waits until it announces its management
// API, which it does after journal recovery and with the listener bound.
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
	api := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(r)
		for sc.Scan() {
			p.mu.Lock()
			p.out.WriteString(sc.Text() + "\n")
			p.mu.Unlock()
			if m := apiLine.FindStringSubmatch(sc.Text()); m != nil {
				select {
				case api <- m[1]:
				default: // announced once; never block the reader
				}
			}
		}
		p.err = p.cmd.Wait()
		close(p.exited)
	}()
	select {
	case p.api = <-api:
	case <-p.exited:
		t.Fatalf("hp4switch %v exited before serving (%v):\n%s", args, p.err, p.output())
	case <-time.After(30 * time.Second):
		t.Fatalf("hp4switch %v announced no management API in 30s:\n%s", args, p.output())
	}
	return p
}

func (p *switchProc) output() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.out.String()
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
