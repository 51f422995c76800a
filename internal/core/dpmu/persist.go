package dpmu

// Serializable control-plane state, for the crash-consistent journal
// (internal/core/ctl/journal.go). The serialized form is the Checkpoint
// itself (checkpoint.go): EncodeState marshals one and RestoreState
// unmarshals one and rewinds through Rollback, so snapshot restore and batch
// rollback share one code path. Compiled programs are not serialized: a vdev
// records its function name and the restorer recompiles through the
// caller's CompileFunc (the boot environment must offer the same functions
// and persona config — hp4switch does, deterministically).

import (
	"encoding/json"
	"fmt"

	"hyper4/internal/core/hp4c"
)

// CompileFunc resolves a function name to its compiled program at restore
// time.
type CompileFunc func(function string) (*hp4c.Compiled, error)

// EncodeState serializes the DPMU's full control-plane state — a Checkpoint
// — for the control-plane journal's snapshots.
func (d *DPMU) EncodeState() ([]byte, error) {
	return json.Marshal(d.Checkpoint())
}

// DumpControl renders the control-plane state as deterministic, indented
// JSON with per-entry hit counters zeroed — the traffic-independent parity
// artifact crash-recovery differentials diff: a recovered switch and a
// never-crashed twin that applied the same acked batches must render
// byte-identical dumps even though only one of them carried live traffic.
func (d *DPMU) DumpControl() (string, error) {
	cp := d.Checkpoint()
	for _, td := range cp.Switch.Tables {
		for i := range td.Entries {
			td.Entries[i].Hits = 0
		}
	}
	out, err := json.MarshalIndent(cp, "", "  ")
	return string(out), err
}

// RestoreState rewinds the DPMU to a state EncodeState captured, through the
// same Rollback machinery batch atomicity uses: DPMU bookkeeping, persona
// table state (entries with their handles, precedence and hit counters),
// mirrors and meter thresholds all return to their snapshotted values.
// Compiled programs are re-resolved by function name through compile; the
// persona program must already be loaded into the switch (the normal boot
// sequence) and the persona config must match the one the snapshot was
// taken under. A state that does not decode, or holds a table entry the
// program would not accept (sim.CheckDump), leaves the DPMU untouched.
func (d *DPMU) RestoreState(data []byte, compile CompileFunc) error {
	var cp Checkpoint
	if err := json.Unmarshal(data, &cp); err != nil {
		return fmt.Errorf("dpmu: decode state: %w", err)
	}
	if err := d.SW.CheckDump(&cp.Switch); err != nil {
		return fmt.Errorf("dpmu: restore state: %w", err)
	}
	for i := range cp.VDevs {
		v := &cp.VDevs[i]
		comp, err := compile(v.Function)
		if err != nil {
			return fmt.Errorf("dpmu: restore %q: recompile %q: %w", v.Name, v.Function, err)
		}
		v.Comp = comp
	}
	d.Rollback(&cp)
	return nil
}
