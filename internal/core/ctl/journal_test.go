package ctl

import (
	"bytes"
	"encoding/binary"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"hyper4/internal/breaker"
)

// journalScript is the canonical journaled workload: a loaded device,
// populated tables, virtual wiring, and a traffic assignment — every op
// class the journal must reconstruct.
const journalScript = `
load l2 l2_switch
l2 table_add smac _nop 00:00:00:00:00:01 =>
l2 table_add dmac forward 00:00:00:00:00:01 => 1
l2 table_add dmac forward 00:00:00:00:00:02 => 2
map l2 1 1
map l2 2 2
assign 1 l2 1
`

// journaledCtl builds a persona control plane journaling into dir.
func journaledCtl(t *testing.T, dir string, every int) (*Ctl, RecoverySummary) {
	t.Helper()
	c := newPersonaCtl(t)
	j, err := OpenJournal(dir, every)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := c.AttachJournal(j)
	if err != nil {
		t.Fatal(err)
	}
	return c, sum
}

func mustDump(t *testing.T, c *Ctl) string {
	t.Helper()
	d, err := c.D.DumpControl()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestJournalFraming covers the record codec: round trip, torn header, torn
// payload, corrupted CRC, and a clean EOF at a frame boundary.
func TestJournalFraming(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{[]byte(`{"seq":1}`), []byte(`{"seq":2,"ops":[]}`)}
	for _, p := range payloads {
		if err := writeFrame(&buf, p); err != nil {
			t.Fatal(err)
		}
	}
	whole := append([]byte(nil), buf.Bytes()...)

	r := bytes.NewReader(whole)
	for i, want := range payloads {
		got, err := readFrame(r)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("frame %d: %q, %v", i, got, err)
		}
	}
	if _, err := readFrame(r); err != io.EOF {
		t.Fatalf("clean boundary: %v, want io.EOF", err)
	}

	// Every mid-frame cut is torn, not EOF.
	for cut := 1; cut < len(whole); cut++ {
		if cut == 8+len(payloads[0]) {
			continue // that's the clean boundary between the two frames
		}
		r := bytes.NewReader(whole[:cut])
		var err error
		for err == nil {
			_, err = readFrame(r)
		}
		if err != errTorn {
			t.Fatalf("cut at %d: %v, want errTorn", cut, err)
		}
	}

	// A payload past readFrame's first chunk round-trips; cut short, it
	// is torn.
	big := bytes.Repeat([]byte("x"), 3*frameChunk+5)
	var bigBuf bytes.Buffer
	if err := writeFrame(&bigBuf, big); err != nil {
		t.Fatal(err)
	}
	if got, err := readFrame(bytes.NewReader(bigBuf.Bytes())); err != nil || !bytes.Equal(got, big) {
		t.Fatalf("%d-byte frame: %d bytes, %v", len(big), len(got), err)
	}
	if _, err := readFrame(bytes.NewReader(bigBuf.Bytes()[:bigBuf.Len()-1])); err != errTorn {
		t.Fatalf("%d-byte frame cut by one byte: %v, want errTorn", len(big), err)
	}

	// A flipped payload bit breaks the CRC.
	corrupt := append([]byte(nil), whole...)
	corrupt[10] ^= 0x01
	if _, err := readFrame(bytes.NewReader(corrupt)); err != errTorn {
		t.Fatalf("corrupted CRC: %v, want errTorn", err)
	}
}

// TestReadFrameGarbageLength holds readFrame's memory to the bytes present:
// a header claiming the 1 GiB cap over a 16-byte tail is torn, and reading
// it allocates well under 1 MiB.
func TestReadFrameGarbageLength(t *testing.T) {
	frame := make([]byte, 8+16)
	binary.LittleEndian.PutUint32(frame[0:4], 1<<30)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := readFrame(bytes.NewReader(frame))
	runtime.ReadMemStats(&after)
	if err != errTorn {
		t.Fatalf("garbage length: %v, want errTorn", err)
	}
	if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
		t.Fatalf("reading a 24-byte torn frame allocated %d bytes", d)
	}
}

// FuzzReadFrame reads frames from arbitrary bytes until the first error:
// it must never panic, and every payload it returns must re-encode through
// writeFrame to exactly the bytes it consumed.
func FuzzReadFrame(f *testing.F) {
	var buf bytes.Buffer
	for _, p := range []string{`{"seq":1}`, `{"seq":2,"ops":[]}`, ""} {
		if err := writeFrame(&buf, []byte(p)); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(buf.Bytes())
	f.Add(buf.Bytes()[:buf.Len()-3])
	f.Add([]byte{0, 0, 0, 0x40, 0, 0, 0, 0, 1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		for {
			start := len(data) - r.Len()
			payload, err := readFrame(r)
			if err != nil {
				if err != io.EOF && err != errTorn {
					t.Fatalf("readFrame error %v, want io.EOF or errTorn", err)
				}
				return
			}
			var re bytes.Buffer
			if err := writeFrame(&re, payload); err != nil {
				t.Fatal(err)
			}
			if consumed := data[start : len(data)-r.Len()]; !bytes.Equal(re.Bytes(), consumed) {
				t.Fatalf("payload %q re-encodes to %x, consumed %x", payload, re.Bytes(), consumed)
			}
		}
	})
}

// TestJournalKillRecoverDifferential is the crash-consistency acceptance
// test: run a workload under live traffic, die mid-append (a torn record on
// the log tail), recover, and compare against a twin that never crashed —
// the control-state dumps must be byte-identical.
func TestJournalKillRecoverDifferential(t *testing.T) {
	dir := t.TempDir()
	victim, sum := journaledCtl(t, dir, 1000) // no rotation: pure log replay
	if sum.SnapshotSeq != 0 || sum.Replayed != 0 {
		t.Fatalf("fresh journal recovered state: %+v", sum)
	}
	if err := NewCLI(victim, "op").ExecAll(journalScript); err != nil {
		t.Fatal(err)
	}
	// Live traffic before the crash: recovery parity must not depend on hit
	// counters (DumpControl zeroes them).
	for i := 0; i < 7; i++ {
		if _, _, err := victim.D.SW.Process(tcpFrame(80), 1); err != nil {
			t.Fatal(err)
		}
	}

	// SIGKILL mid-append: the process dies with a partial frame on the log.
	// The victim Ctl is simply abandoned — nothing flushes, nothing closes.
	f, err := os.OpenFile(filepath.Join(dir, walName), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xde, 0xad, 0xbe}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	recovered, sum := journaledCtl(t, dir, 1000)
	if !sum.Truncated {
		t.Fatal("torn final record not truncated")
	}
	if sum.Replayed == 0 || len(sum.Warnings) != 0 {
		t.Fatalf("recovery: %+v", sum)
	}

	twin := newPersonaCtl(t)
	if err := NewCLI(twin, "op").ExecAll(journalScript); err != nil {
		t.Fatal(err)
	}
	if got, want := mustDump(t, recovered), mustDump(t, twin); got != want {
		t.Fatalf("recovered state diverges from the never-crashed twin:\n--- recovered ---\n%s\n--- twin ---\n%s", got, want)
	}

	// The recovered instance keeps journaling: a post-recovery write lands
	// after the truncated tail and survives a second recovery.
	if _, err := NewCLI(recovered, "op").Exec("load fw firewall"); err != nil {
		t.Fatal(err)
	}
	again, sum := journaledCtl(t, dir, 1000)
	if sum.Truncated {
		t.Fatalf("second recovery saw a torn record: %+v", sum)
	}
	if out, err := NewCLI(again, "op").Exec("vdevs"); err != nil || out != "fw l2" {
		t.Fatalf("vdevs after second recovery = %q, %v", out, err)
	}
}

// TestJournalRetryAfterCrashAppliesOnce: a client retrying an acked batch
// after the switch crashed must hit the journaled dedup outcome, not apply
// the ops again.
func TestJournalRetryAfterCrashAppliesOnce(t *testing.T) {
	dir := t.TempDir()
	victim, _ := journaledCtl(t, dir, 1000)
	ops := []Op{{Kind: OpLoadVDev, VDev: "l2", Function: "l2_switch"}}
	if _, err := victim.WriteBatchID("op", "req-1", ops); err != nil {
		t.Fatal(err)
	}
	// Crash (abandon) and recover.
	recovered, sum := journaledCtl(t, dir, 1000)
	if sum.Replayed != 1 {
		t.Fatalf("replayed %d batches, want 1", sum.Replayed)
	}
	// The retry succeeds by replaying the remembered outcome — a real
	// re-apply would fail ALREADY_EXISTS because l2 is already loaded.
	results, err := recovered.WriteBatchID("op", "req-1", ops)
	if err != nil {
		t.Fatalf("retried batch after recovery: %v", err)
	}
	if len(results) != 1 {
		t.Fatalf("replayed outcome has %d results, want 1", len(results))
	}
	if out, _ := NewCLI(recovered, "op").Exec("vdevs"); out != "l2" {
		t.Fatalf("vdevs = %q, want exactly one l2", out)
	}
}

// TestJournalSnapshotRotation: with snapshotEvery=2 a 7-op workload rotates
// into a snapshot plus a short tail, and recovery = snapshot restore + tail
// replay, byte-identical to the twin.
func TestJournalSnapshotRotation(t *testing.T) {
	dir := t.TempDir()
	victim, _ := journaledCtl(t, dir, 2)
	if err := NewCLI(victim, "op").ExecAll(journalScript); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, snapName)); err != nil {
		t.Fatalf("no snapshot after rotation: %v", err)
	}

	recovered, sum := journaledCtl(t, dir, 2)
	if sum.SnapshotSeq != 6 {
		t.Fatalf("SnapshotSeq = %d, want 6 (7 ops, rotation every 2)", sum.SnapshotSeq)
	}
	if sum.Replayed != 1 {
		t.Fatalf("Replayed = %d, want 1 (the tail past the snapshot)", sum.Replayed)
	}
	twin := newPersonaCtl(t)
	if err := NewCLI(twin, "op").ExecAll(journalScript); err != nil {
		t.Fatal(err)
	}
	if got, want := mustDump(t, recovered), mustDump(t, twin); got != want {
		t.Fatalf("snapshot+tail recovery diverges:\n--- recovered ---\n%s\n--- twin ---\n%s", got, want)
	}
}

// TestJournalRotationRemembersInFlightRequestID: a rotation triggered by a
// batch runs inside writeBatchLocked, before WriteBatchID stores that
// batch's outcome in the dedup ring — but the rotation truncates the WAL
// record carrying the batch's request ID, so the snapshot itself must fold
// the in-flight outcome in. Otherwise a crash right after the rotation
// makes the client's retry re-apply an already-applied batch.
func TestJournalRotationRemembersInFlightRequestID(t *testing.T) {
	dir := t.TempDir()
	victim, _ := journaledCtl(t, dir, 1) // every batch rotates
	ops := []Op{{Kind: OpLoadVDev, VDev: "l2", Function: "l2_switch"}}
	if _, err := victim.WriteBatchID("op", "req-1", ops); err != nil {
		t.Fatal(err)
	}
	// Crash (abandon) and recover: the snapshot covers the only batch, the
	// WAL holds nothing.
	recovered, sum := journaledCtl(t, dir, 1)
	if sum.SnapshotSeq != 1 {
		t.Fatalf("SnapshotSeq = %d, want 1 (rotation on the only batch)", sum.SnapshotSeq)
	}
	// The retry must replay the snapshotted outcome — a real re-apply would
	// fail ALREADY_EXISTS because l2 is already loaded.
	results, err := recovered.WriteBatchID("op", "req-1", ops)
	if err != nil {
		t.Fatalf("retry after crash re-applied the batch: %v", err)
	}
	if len(results) != 1 {
		t.Fatalf("replayed outcome has %d results, want 1", len(results))
	}
	if out, _ := NewCLI(recovered, "op").Exec("vdevs"); out != "l2" {
		t.Fatalf("vdevs = %q, want exactly one l2", out)
	}
}

// TestJournalAppendFailureLeavesCleanTail: a failed append must not leave
// its partial frame mid-WAL — later acked batches would land beyond it and
// recovery's truncate-at-first-tear would silently discard them. The undo
// path truncates the log back to the last complete frame.
func TestJournalAppendFailureLeavesCleanTail(t *testing.T) {
	dir := t.TempDir()
	c, _ := journaledCtl(t, dir, 1000)
	cli := NewCLI(c, "op")
	if _, err := cli.Exec("load l2 l2_switch"); err != nil {
		t.Fatal(err)
	}
	// Simulate what a mid-frame append failure (transient ENOSPC, say)
	// leaves on the log, then run the undo appendBatch runs on failure.
	j := c.journal
	if _, err := j.wal.Write([]byte{0xde, 0xad, 0xbe}); err != nil {
		t.Fatal(err)
	}
	j.undoAppend()
	if j.failed != nil {
		t.Fatalf("undo on a healthy file fail-stopped the journal: %v", j.failed)
	}
	// The next acked batch lands after a clean tail; recovery loses nothing
	// and sees no tear.
	if _, err := cli.Exec("load fw firewall"); err != nil {
		t.Fatal(err)
	}
	recovered, sum := journaledCtl(t, dir, 1000)
	if sum.Truncated {
		t.Fatal("recovery saw a torn record after a cleanly undone append")
	}
	if sum.Replayed != 2 {
		t.Fatalf("Replayed = %d, want 2 (both acked batches)", sum.Replayed)
	}
	if out, _ := NewCLI(recovered, "op").Exec("vdevs"); out != "fw l2" {
		t.Fatalf("vdevs = %q, want both acked loads", out)
	}
}

// TestJournalFailStopWhenUndoImpossible: if a failed append's torn bytes
// cannot be removed (the truncate fails too), the journal must refuse all
// further writes — acking batches it cannot durably order behind the tear
// would hand recovery a log it silently truncates.
func TestJournalFailStopWhenUndoImpossible(t *testing.T) {
	dir := t.TempDir()
	c, _ := journaledCtl(t, dir, 1000)
	cli := NewCLI(c, "op")
	if _, err := cli.Exec("load l2 l2_switch"); err != nil {
		t.Fatal(err)
	}
	// Yank the disk out from under the WAL handle: the append's write and
	// the undo's truncate both fail.
	c.journal.wal.Close()
	if _, err := cli.Exec("load fw firewall"); err == nil {
		t.Fatal("acked a batch the journal could not append")
	}
	if c.journal.failed == nil {
		t.Fatal("journal did not fail-stop after an unremovable partial append")
	}
	// The failed batch rolled back, and the journal stays failed.
	if out, _ := cli.Exec("vdevs"); out != "l2" {
		t.Fatalf("rolled-back batch visible: vdevs = %q", out)
	}
	if _, err := cli.Exec("load fw firewall"); err == nil {
		t.Fatal("fail-stopped journal acked a batch")
	}
}

// TestJournalSnapshotIncludesParkedPorts: a wire port parked by quarantine
// is absent from the active port list, but its attach was acked and an
// auto-reattach is pending. A rotation while it is parked truncates its
// attach record out of the WAL, so the snapshot must carry the parked spec
// — otherwise a crash loses the port forever.
func TestJournalSnapshotIncludesParkedPorts(t *testing.T) {
	dir := t.TempDir()
	bi, client := newBreakerInstance(t)
	j, err := OpenJournal(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bi.c.AttachJournal(j); err != nil {
		t.Fatal(err)
	}

	// Batch 1: attach the flaky wire, then let the breaker park it. The
	// fake clock is frozen, so no reattach attempt fires.
	if _, err := client.Write([]Op{{Kind: OpPortAttach, PhysPort: 7, Spec: "fake:wan"}}); err != nil {
		t.Fatal(err)
	}
	waitForCond(t, func() bool {
		phs := bi.rt.PortHealth()
		return len(phs) == 1 && phs[0].State == breaker.Quarantined && phs[0].Detached
	}, "breaker to park the wire port")
	if n := len(bi.rt.Ports()); n != 0 {
		t.Fatalf("parked port still on the active list (%d ports)", n)
	}

	// Batch 2 triggers the rotation while the port is parked.
	if _, err := client.Write([]Op{{Kind: OpLoadVDev, VDev: "l2", Function: "l2_switch"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, snapName)); err != nil {
		t.Fatalf("no snapshot after rotation: %v", err)
	}

	// Crash (abandon) and recover into a fresh instance: the parked port's
	// attach must come back from the snapshot.
	bi2, _ := newBreakerInstance(t)
	j2, err := OpenJournal(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := bi2.c.AttachJournal(j2)
	if err != nil {
		t.Fatal(err)
	}
	if sum.SnapshotSeq != 2 || len(sum.Warnings) != 0 {
		t.Fatalf("recovery: %+v", sum)
	}
	if sum.PortsAttached != 1 {
		t.Fatalf("PortsAttached = %d, want the parked port back", sum.PortsAttached)
	}
	ports := bi2.rt.Ports()
	if len(ports) != 1 || ports[0].Port != 7 || ports[0].Spec != "fake:wan" {
		t.Fatalf("recovered ports: %+v", ports)
	}
	if out, _ := NewCLI(bi2.c, "op").Exec("vdevs"); out != "l2" {
		t.Fatalf("vdevs = %q, want l2", out)
	}
}

// TestApplyErrorSameWithJournal: a failing line reports the same error,
// with no batch position, whether or not a journal is attached.
func TestApplyErrorSameWithJournal(t *testing.T) {
	journaled, _ := journaledCtl(t, t.TempDir(), 1000)
	for _, line := range []string{
		"nosuch table_add dmac forward 00:00:00:00:00:01 => 1",
		"load l2 no_such_function",
		"assign 1 nosuch 1",
	} {
		_, bare := NewCLI(newPersonaCtl(t), "op").Exec(line)
		_, withJournal := NewCLI(journaled, "op").Exec(line)
		if bare == nil || withJournal == nil || bare.Error() != withJournal.Error() {
			t.Errorf("%q: without journal %v, with journal %v", line, bare, withJournal)
		}
	}
}
