package main

import (
	"os/exec"
	"path/filepath"
	"strings"
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
	hp4switch, hp4io := tool(t, "hp4switch"), tool(t, "hp4io")

	in, out, peer := freeUDPPort(t), freeUDPPort(t), freeUDPPort(t)
	cmds := writeScript(t, l2Script+"port attach 1 udp:"+in+"\nport attach 2 udp:"+out+"/"+peer+"\n")
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

	journal := filepath.Join(t.TempDir(), "journal")
	victim := startSwitch(t, hp4switch, "-persona", "-journal", journal, "-api-addr", "127.0.0.1:0")
	hp4ctl(t, victim, "-batch", "-f", cmds)
	forwards(victim)
	victim.kill(t)

	recovered := startSwitch(t, hp4switch, "-persona", "-journal", journal, "-api-addr", "127.0.0.1:0")
	if !strings.Contains(recovered.output(), "replayed 1 batches") {
		t.Fatalf("restart did not replay the acked batch:\n%s", recovered.output())
	}
	dumpRecovered := hp4ctl(t, recovered, "dump")
	forwards(recovered)
	recovered.quit(t)

	twin := startSwitch(t, hp4switch, "-persona", "-api-addr", "127.0.0.1:0")
	hp4ctl(t, twin, "-batch", "-f", cmds)
	if dumpTwin := hp4ctl(t, twin, "dump"); dumpRecovered != dumpTwin {
		t.Fatalf("recovered control state differs from the never-crashed twin:\nrecovered:\n%s\ntwin:\n%s", dumpRecovered, dumpTwin)
	}
	twin.quit(t)
}
