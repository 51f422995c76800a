package ctl

// Crash-consistent control-plane journal: with `hp4switch -journal <dir>`
// every applied WriteBatch is appended to a write-ahead log and fsync'd
// before the client sees its ack, so the sequence
//
//	apply → journal append+fsync → ack
//
// guarantees that any acked batch survives a SIGKILL. A batch that applied
// but died before the fsync completed was never acked, so the client's
// retry (same request ID) re-applies it exactly once — the journaled
// request IDs seed the dedup ring at recovery, so replay inherits dedup.
//
// On-disk layout (all records CRC-framed: 4-byte little-endian payload
// length, 4-byte IEEE CRC32 of the payload, JSON payload):
//
//	<dir>/snap.bin   one framed snapshot: DPMU state (dpmu.EncodeState,
//	                 the JSON of the same dpmu.Checkpoint a batch rolls
//	                 back to), attached ports, dedup ring, and the
//	                 sequence number it covers. Replaced atomically
//	                 (tmp + rename).
//	<dir>/wal.log    framed batch records appended since the last snapshot.
//
// Rotation: every SnapshotEvery appended batches the journal snapshots and
// truncates the log. A crash between the snapshot rename and the log
// truncation is benign — recovery skips log records whose seq the snapshot
// already covers. A torn final log record (the SIGKILL landed mid-append)
// is detected by the framing, truncated away, and the switch starts; torn
// means unacked, so nothing acked is lost.
//
// Recovery ordering: restore snapshot state → re-attach snapshotted ports →
// seed dedup → replay log tail through the normal batch path (events and
// port attaches included) → open the log for appending. The journal is
// wired to the Ctl only after recovery, so replay itself is never
// re-journaled.

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"

	"hyper4/internal/core/dpmu"
	"hyper4/internal/core/hp4c"
	"hyper4/internal/functions"
)

// DefaultSnapshotEvery is the rotation period in applied batches.
const DefaultSnapshotEvery = 256

const (
	snapName = "snap.bin"
	walName  = "wal.log"
)

// Journal is the write-ahead log + snapshot pair for one switch. Methods
// are called with the Ctl's write mutex held (appendBatch from the write
// path, the rest from recovery), so the only internal locking is the file
// handles' own.
type Journal struct {
	dir           string
	wal           *os.File
	walSize       int64  // bytes of complete frames in the log
	seq           uint64 // last sequence appended (snapshot or record)
	snapSeq       uint64 // sequence the on-disk snapshot covers
	recsSinceSnap int
	snapshotEvery int
	// failed, once set, fail-stops the journal: a partial append could not
	// be removed from the log, so the "a torn frame is always the final
	// record" invariant recovery relies on cannot be guaranteed for further
	// appends. Every subsequent append (and hence every ack) is refused.
	failed error
}

// journalRecord is one applied batch.
type journalRecord struct {
	Seq       uint64 `json:"seq"`
	Owner     string `json:"owner"`
	RequestID string `json:"request_id,omitempty"`
	Ops       []Op   `json:"ops"`
}

// journalPort is one attached port remembered by a snapshot.
type journalPort struct {
	Port int    `json:"port"`
	Spec string `json:"spec"`
}

// journalDedup is one remembered write outcome, so a client retrying across
// the crash still gets exactly-once semantics.
type journalDedup struct {
	ID      string   `json:"id"`
	Results []Result `json:"results,omitempty"`
	Err     *Error   `json:"err,omitempty"`
}

// journalSnapshot is the snap.bin payload.
type journalSnapshot struct {
	Seq   uint64          `json:"seq"`
	State json.RawMessage `json:"state"`
	Ports []journalPort   `json:"ports,omitempty"`
	Dedup []journalDedup  `json:"dedup,omitempty"`
}

// OpenJournal prepares a journal rooted at dir (created if missing).
// snapshotEvery <= 0 takes the default. The journal is inert until
// Ctl.AttachJournal recovers from it and wires it to the write path.
func OpenJournal(dir string, snapshotEvery int) (*Journal, error) {
	if snapshotEvery <= 0 {
		snapshotEvery = DefaultSnapshotEvery
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	return &Journal{dir: dir, snapshotEvery: snapshotEvery}, nil
}

// Dir returns the journal's directory.
func (j *Journal) Dir() string { return j.dir }

// Close flushes and closes the log file.
func (j *Journal) Close() error {
	if j.wal == nil {
		return nil
	}
	err := j.wal.Sync()
	if cerr := j.wal.Close(); err == nil {
		err = cerr
	}
	j.wal = nil
	return err
}

// --- framing ---

// writeFrame appends one CRC-framed payload to w.
func writeFrame(w io.Writer, payload []byte) error {
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// errTorn marks a frame cut short or corrupted — the tail a SIGKILL leaves.
var errTorn = errors.New("journal: torn record")

// frameChunk is the most readFrame allocates ahead of the bytes it has
// read: a payload buffer starts at this size and doubles as bytes arrive.
const frameChunk = 64 << 10

// readFrame reads one framed payload from r. Short reads and CRC mismatches
// return errTorn; a clean EOF at a frame boundary returns io.EOF. Memory
// follows the bytes actually present, not the header's claim: a garbage
// length over a short tail costs at most frameChunk, never the 1 GiB cap.
func readFrame(r io.Reader) ([]byte, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, errTorn
	}
	n := int(binary.LittleEndian.Uint32(hdr[0:4]))
	want := binary.LittleEndian.Uint32(hdr[4:8])
	if n > 1<<30 {
		return nil, errTorn // length bytes are garbage
	}
	payload := make([]byte, 0, min(n, frameChunk))
	for len(payload) < n {
		if len(payload) == cap(payload) {
			payload = slices.Grow(payload, min(n-len(payload), len(payload)))
		}
		k, err := io.ReadFull(r, payload[len(payload):min(cap(payload), n)])
		payload = payload[:len(payload)+k]
		if err != nil {
			return nil, errTorn
		}
	}
	if crc32.ChecksumIEEE(payload) != want {
		return nil, errTorn
	}
	return payload, nil
}

// --- append path ---

// appendBatch journals one applied batch and fsyncs before returning; the
// caller acks the client only on nil. A failed append is undone: the log is
// truncated back to the last complete frame, so a torn frame can only ever
// be the final record — later acked batches never land beyond torn bytes,
// which recovery's truncate-at-first-tear would silently discard. Called
// under c.wmu.
func (j *Journal) appendBatch(owner, requestID string, ops []Op) error {
	if j.failed != nil {
		return j.failed
	}
	if j.wal == nil {
		f, err := os.OpenFile(filepath.Join(j.dir, walName), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("journal: open log: %w", err)
		}
		st, err := f.Stat()
		if err != nil {
			f.Close()
			return fmt.Errorf("journal: stat log: %w", err)
		}
		j.wal = f
		j.walSize = st.Size()
	}
	j.seq++
	payload, err := json.Marshal(journalRecord{Seq: j.seq, Owner: owner, RequestID: requestID, Ops: ops})
	if err != nil {
		j.seq--
		return fmt.Errorf("journal: encode: %w", err)
	}
	if err := writeFrame(j.wal, payload); err != nil {
		j.seq--
		j.undoAppend()
		return fmt.Errorf("journal: append: %w", err)
	}
	if err := j.wal.Sync(); err != nil {
		j.seq--
		j.undoAppend()
		return fmt.Errorf("journal: fsync: %w", err)
	}
	j.walSize += int64(8 + len(payload))
	j.recsSinceSnap++
	return nil
}

// undoAppend removes whatever a failed append left on the log, truncating
// back to the last complete frame (j.walSize). If the truncate itself fails
// the torn bytes cannot be removed and the journal goes fail-stop — better
// to refuse all further writes than to ack batches recovery would discard.
func (j *Journal) undoAppend() {
	if err := j.wal.Truncate(j.walSize); err != nil {
		j.failed = fmt.Errorf("journal: fail-stop: partial append could not be removed from the log: %v", err)
		return
	}
	_ = j.wal.Sync()
}

// snapshot writes snap.bin atomically (tmp + rename + dir fsync) and
// truncates the log. Called under c.wmu.
func (j *Journal) snapshot(snap journalSnapshot) error {
	payload, err := json.Marshal(snap)
	if err != nil {
		return fmt.Errorf("journal: encode snapshot: %w", err)
	}
	tmp := filepath.Join(j.dir, snapName+".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("journal: snapshot: %w", err)
	}
	if err := writeFrame(f, payload); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("journal: snapshot: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(j.dir, snapName)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("journal: snapshot rename: %w", err)
	}
	syncDir(j.dir)
	// The snapshot covers everything; the log restarts empty. A crash
	// before the truncate is fine: recovery skips records ≤ snapSeq.
	if j.wal != nil {
		j.wal.Close()
		j.wal = nil
	}
	if err := os.Truncate(filepath.Join(j.dir, walName), 0); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("journal: truncate log: %w", err)
	}
	j.walSize = 0
	j.snapSeq = snap.Seq
	j.recsSinceSnap = 0
	return nil
}

// syncDir fsyncs a directory so a rename survives power loss; best-effort
// (some filesystems refuse directory fsync).
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
}

// --- recovery ---

// RecoverySummary reports what AttachJournal reconstructed.
type RecoverySummary struct {
	// SnapshotSeq is the sequence the restored snapshot covered (0 = no
	// snapshot on disk, fresh or log-only journal).
	SnapshotSeq uint64
	// Replayed counts log batches re-applied after the snapshot.
	Replayed int
	// PortsAttached counts transports re-attached from the snapshot.
	PortsAttached int
	// Truncated reports a torn final record was cut off the log.
	Truncated bool
	// Warnings collects non-fatal divergences (a port that failed to
	// re-bind, a replayed batch that failed where it once succeeded).
	Warnings []string
}

// compileFunction is the restore-time CompileFunc: the same
// functions.Load + hp4c.Compile path OpLoadVDev uses.
func (c *Ctl) compileFunction(name string) (*hp4c.Compiled, error) {
	prog, err := functions.Load(name)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", err, dpmu.ErrNotFound)
	}
	return hp4c.Compile(prog, c.D.Config())
}

// AttachJournal recovers the control plane from a journal and wires the
// journal into the write path: snapshot state is restored (including port
// re-attachment and the dedup ring), the log tail is replayed through the
// normal batch machinery, and a torn final record is truncated in place.
// Must run during wiring, before the Ctl serves traffic.
func (c *Ctl) AttachJournal(j *Journal) (RecoverySummary, error) {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	// The snapshot restore and every replayed batch would each compile the
	// fused plan at commit; with the fast path off until recovery ends,
	// the plan compiles once, after the whole replay.
	if c.D.FusionEnabled() {
		c.D.SetFusion(false)
		defer c.D.SetFusion(true)
	}
	var sum RecoverySummary

	// 1. Snapshot. Written atomically, so presence means integrity — a
	// corrupt snapshot is a hard error (silently booting empty would lose
	// acked state), unlike the log tail where torn means unacked.
	snapPath := filepath.Join(j.dir, snapName)
	if f, err := os.Open(snapPath); err == nil {
		payload, err := readFrame(f)
		f.Close()
		if err != nil {
			return sum, fmt.Errorf("journal: snapshot %s corrupt: %v", snapPath, err)
		}
		var snap journalSnapshot
		if err := json.Unmarshal(payload, &snap); err != nil {
			return sum, fmt.Errorf("journal: snapshot decode: %w", err)
		}
		if err := c.D.RestoreState(snap.State, c.compileFunction); err != nil {
			return sum, fmt.Errorf("journal: restore snapshot: %w", err)
		}
		for _, p := range snap.Ports {
			if c.IO == nil {
				sum.Warnings = append(sum.Warnings, fmt.Sprintf("port %d (%s): no I/O runtime to re-attach", p.Port, p.Spec))
				continue
			}
			if err := c.IO.AttachSpec(p.Port, p.Spec); err != nil {
				sum.Warnings = append(sum.Warnings, fmt.Sprintf("port %d (%s): re-attach: %v", p.Port, p.Spec, err))
				continue
			}
			sum.PortsAttached++
		}
		for _, d := range snap.Dedup {
			c.rememberOutcome(d.ID, &writeOutcome{results: d.Results, err: d.Err})
		}
		j.seq = snap.Seq
		j.snapSeq = snap.Seq
		sum.SnapshotSeq = snap.Seq
	} else if !os.IsNotExist(err) {
		return sum, fmt.Errorf("journal: snapshot: %w", err)
	}

	// 2. Log tail: replay acked batches past the snapshot through the
	// normal apply path, truncating a torn final record in place.
	walPath := filepath.Join(j.dir, walName)
	if f, err := os.Open(walPath); err == nil {
		offset := int64(0)
		for {
			payload, err := readFrame(f)
			if err == io.EOF {
				break
			}
			if err != nil {
				f.Close()
				if terr := os.Truncate(walPath, offset); terr != nil {
					return sum, fmt.Errorf("journal: truncate torn log: %w", terr)
				}
				sum.Truncated = true
				f = nil
				break
			}
			offset += int64(8 + len(payload))
			var rec journalRecord
			if err := json.Unmarshal(payload, &rec); err != nil {
				f.Close()
				return sum, fmt.Errorf("journal: log record decode: %w", err)
			}
			if rec.Seq <= j.snapSeq {
				continue // the snapshot already covers it (crash mid-rotation)
			}
			results, aerr := c.writeBatchLocked(rec.Owner, rec.RequestID, rec.Ops)
			if rec.RequestID != "" {
				out := &writeOutcome{results: results}
				if aerr != nil {
					out.err = asError(aerr)
				}
				c.rememberOutcome(rec.RequestID, out)
			}
			if aerr != nil {
				// It applied before the crash; failing now means the
				// environment changed (e.g. an address another process now
				// holds). Keep booting — availability over strictness — but
				// say so.
				sum.Warnings = append(sum.Warnings, fmt.Sprintf("replay seq %d: %v", rec.Seq, aerr))
			} else {
				sum.Replayed++
			}
			if rec.Seq > j.seq {
				j.seq = rec.Seq
			}
			j.recsSinceSnap++
		}
		if f != nil {
			f.Close()
		}
	} else if !os.IsNotExist(err) {
		return sum, fmt.Errorf("journal: open log: %w", err)
	}

	c.journal = j
	return sum, nil
}

// rememberOutcome stores one request ID's outcome in the dedup ring.
// Caller holds c.wmu.
func (c *Ctl) rememberOutcome(id string, out *writeOutcome) {
	if id == "" {
		return
	}
	if _, ok := c.dedup[id]; !ok {
		if len(c.dedupRing) >= dedupWindow {
			delete(c.dedup, c.dedupRing[0])
			c.dedupRing = c.dedupRing[1:]
		}
		c.dedupRing = append(c.dedupRing, id)
	}
	c.dedup[id] = out
}

// journalAppliedLocked runs after a batch applied cleanly: append + fsync,
// then rotate if due. An append failure is returned to the caller (which
// rolls the batch back — the ack must never outrun the journal); a rotation
// failure only warns, since the appended record already preserves the
// batch. results is the in-flight batch's outcome: it is not in the dedup
// ring yet (WriteBatchID stores it only after the batch returns), so a
// rotation triggered by this very batch must fold it into the snapshot
// explicitly or the client's post-crash retry would re-apply the batch.
func (c *Ctl) journalAppliedLocked(owner, requestID string, ops []Op, results []Result) error {
	j := c.journal
	if err := j.appendBatch(owner, requestID, ops); err != nil {
		return err
	}
	if j.recsSinceSnap < j.snapshotEvery {
		return nil
	}
	state, err := c.D.EncodeState()
	if err != nil {
		return nil // keep the log growing; the state is still fully journaled
	}
	snap := journalSnapshot{Seq: j.seq, State: state}
	if c.IO != nil {
		seen := map[int]bool{}
		for _, p := range c.IO.Ports() {
			if p.Spec == "chan" {
				continue // programmatic transports cannot be rebuilt from a spec
			}
			seen[p.Port] = true
			snap.Ports = append(snap.Ports, journalPort{Port: p.Port, Spec: p.Spec})
		}
		// Quarantine-parked wire ports are detached — absent from the
		// active list — but their attach was acked and auto-reattach is
		// pending, so the snapshot must remember them too: rotation
		// truncates their attach record out of the WAL.
		for _, ph := range c.IO.PortHealth() {
			if ph.Wire && ph.Detached && !seen[ph.Port] {
				snap.Ports = append(snap.Ports, journalPort{Port: ph.Port, Spec: ph.Spec})
			}
		}
	}
	for _, id := range c.dedupRing {
		out := c.dedup[id]
		snap.Dedup = append(snap.Dedup, journalDedup{ID: id, Results: out.results, Err: out.err})
	}
	if requestID != "" {
		// The batch that triggered this rotation applied cleanly; remember
		// its outcome alongside the ring's.
		snap.Dedup = append(snap.Dedup, journalDedup{ID: requestID, Results: results})
	}
	_ = j.snapshot(snap) // failure tolerated: the log still has everything
	return nil
}
