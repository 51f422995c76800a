package dpmu

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"slices"
	"strings"
	"testing"

	"hyper4/internal/bitfield"
	"hyper4/internal/core/hp4c"
	"hyper4/internal/core/persona"
	"hyper4/internal/functions"
	"hyper4/internal/p4/ast"
	"hyper4/internal/sim"
)

// goldenStatePath pins the snapshot format: EncodeState of goldenScript's
// state, as written before Checkpoint became the serialized form. A change
// that moves a single byte of it breaks every snap.bin already on disk.
const goldenStatePath = "testdata/state_golden.json"

// goldenScript builds a DPMU state that touches every part of a checkpoint:
// four vdevs (exact, ternary, LPM and valid matches), a deleted and a
// modified entry, a table default, virtual links and port maps, a multicast
// group (a mirror session), meter rates, two saved snapshots with one
// activated, and the assignments it installed.
func goldenScript(t *testing.T) *DPMU {
	t.Helper()
	d := newPersonaDPMU(t)
	loadComposition(t, d)
	loadL2(t, d, "l2", "op")
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	dmac := func(mac string) []sim.MatchParam {
		return []sim.MatchParam{sim.Exact(bitfield.FromBytes(48, []byte(mac)))}
	}
	port := func(p uint64) []bitfield.Value { return []bitfield.Value{bitfield.FromUint(9, p)} }
	h, err := d.TableAdd("op", "l2", EntrySpec{Table: "dmac", Action: "forward", Params: dmac("\x00\x00\x00\x00\x00\x07"), Args: port(1)})
	must(err)
	must(d.TableModify("op", "l2", h, EntrySpec{Table: "dmac", Action: "forward", Params: dmac("\x00\x00\x00\x00\x00\x07"), Args: port(2)}))
	h, err = d.TableAdd("op", "l2", EntrySpec{Table: "dmac", Action: "forward", Params: dmac("\x00\x00\x00\x00\x00\x08"), Args: port(2)})
	must(err)
	must(d.TableDelete("op", "l2", "dmac", h))
	must(d.SetDefault("op", "l2", "dmac", "_drop", nil))
	must(d.MulticastGroup("op", "l2", 10, []VPortRef{{VDev: "fw", VIngress: 1}, {VDev: "r", VIngress: 1}}))
	must(d.SetRateLimit("op", "l2", 100, 200))
	must(d.SaveSnapshot("all_l2", []Assignment{{PhysPort: -1, VDev: "l2", VIngress: 1}}))
	must(d.SaveSnapshot("chain", []Assignment{{PhysPort: 1, VDev: "arp", VIngress: 1}, {PhysPort: 2, VDev: "arp", VIngress: 2}}))
	must(d.ActivateSnapshot("chain"))
	return d
}

// compileReference is the restore-time CompileFunc of these tests: the
// builtins compiled for the reference persona, memoized.
func compileReference() CompileFunc {
	cache := map[string]*hp4c.Compiled{}
	return func(name string) (*hp4c.Compiled, error) {
		if c, ok := cache[name]; ok {
			return c, nil
		}
		prog, err := functions.Load(name)
		if err != nil {
			return nil, err
		}
		c, err := hp4c.Compile(prog, persona.Reference)
		if err == nil {
			cache[name] = c
		}
		return c, err
	}
}

// TestStateGolden pins the snapshot encoding byte for byte, and checks that
// restoring the golden bytes yields the control state of a switch that was
// scripted directly and never snapshotted.
func TestStateGolden(t *testing.T) {
	golden, err := os.ReadFile(goldenStatePath)
	if err != nil {
		t.Fatal(err)
	}
	twin := goldenScript(t)
	enc, err := twin.EncodeState()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, golden) {
		t.Fatalf("EncodeState drifted from %s:\n got %s\nwant %s", goldenStatePath, enc, golden)
	}

	restored := newPersonaDPMU(t)
	if err := restored.RestoreState(golden, compileReference()); err != nil {
		t.Fatal(err)
	}
	want, err := twin.DumpControl()
	if err != nil {
		t.Fatal(err)
	}
	got, err := restored.DumpControl()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("restored control state differs from the scripted twin:\n got %s\nwant %s", got, want)
	}
}

// TestRestoreStateRejectsMalformedValues feeds a CRC-valid snapshot whose
// bit values are out of shape: RestoreState must return an error, not
// panic, and must leave the live state alone.
func TestRestoreStateRejectsMalformedValues(t *testing.T) {
	golden, err := os.ReadFile(goldenStatePath)
	if err != nil {
		t.Fatal(err)
	}
	const first = `{"w":9,"b":"AAE="}` // port(1), the first forward argument
	if !bytes.Contains(golden, []byte(first)) {
		t.Fatalf("golden state has no %s to corrupt", first)
	}
	d := newPersonaDPMU(t)
	before, err := d.EncodeState()
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{`{"w":-1}`, `{"w":1000000000}`, `{"w":9,"b":"AQ=="}`} {
		data := bytes.Replace(golden, []byte(first), []byte(bad), 1)
		err := d.RestoreState(data, compileReference())
		if err == nil || !strings.Contains(err.Error(), "bitfield") {
			t.Errorf("%s: RestoreState error %v, want a bitfield decode error", bad, err)
		}
		after, err := d.EncodeState()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(after, before) {
			t.Errorf("%s: a rejected restore changed the live state", bad)
		}
	}
	if err := d.RestoreState(golden, func(string) (*hp4c.Compiled, error) { return nil, errors.New("gone") }); err == nil {
		t.Error("RestoreState with a failing compiler succeeded")
	}
}

// TestRestoreStateRejectsMalformedEntries feeds snapshots whose table
// entries decode but do not fit the program, one per shape sim.TableAdd
// rejects: RestoreState must return that shape's error, not restore an
// entry a packet would fault on, and must leave the live state alone.
func TestRestoreStateRejectsMalformedEntries(t *testing.T) {
	golden, err := os.ReadFile(goldenStatePath)
	if err != nil {
		t.Fatal(err)
	}
	const table = "t1_ed_exact" // (exact, exact, ternary) reads, a_set_match rows
	for _, tc := range []struct {
		shape, want string
		bend        func(e *sim.EntryDump)
	}{
		{"unknown action", `no action "a_no_such_action"`, func(e *sim.EntryDump) { e.Action = "a_no_such_action" }},
		{"disallowed action", "does not allow action", func(e *sim.EntryDump) { e.Action = persona.ActParseMore }},
		{"arg count", "args, got", func(e *sim.EntryDump) { e.Args = e.Args[:len(e.Args)-1] }},
		{"param count", "match params, got 2", func(e *sim.EntryDump) { e.Params = e.Params[:2] }},
		{"param kind", "param 0 is exact, entry has ternary", func(e *sim.EntryDump) { e.Params[0].Kind = ast.MatchTernary }},
		{"param width", "param 0 width 17, want 16", func(e *sim.EntryDump) { e.Params[0].Value = bitfield.FromUint(17, 1) }},
	} {
		t.Run(tc.shape, func(t *testing.T) {
			var cp Checkpoint
			if err := json.Unmarshal(golden, &cp); err != nil {
				t.Fatal(err)
			}
			td := cp.Switch.Tables[table]
			if len(td.Entries) == 0 || len(td.Entries[0].Args) == 0 {
				t.Fatalf("golden state has no %s entry with args to bend", table)
			}
			td.Entries[0].Params = slices.Clone(td.Entries[0].Params)
			tc.bend(&td.Entries[0])
			data, err := json.Marshal(&cp)
			if err != nil {
				t.Fatal(err)
			}
			d := newPersonaDPMU(t)
			before, err := d.EncodeState()
			if err != nil {
				t.Fatal(err)
			}
			if err := d.RestoreState(data, compileReference()); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("RestoreState error %v, want one containing %q", err, tc.want)
			}
			after, err := d.EncodeState()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(after, before) {
				t.Error("a rejected restore changed the live state")
			}
		})
	}
	// The unbent golden state still restores.
	if err := newPersonaDPMU(t).RestoreState(golden, compileReference()); err != nil {
		t.Fatalf("golden state: %v", err)
	}
}

// TestCheckpointRollsBackTwice checks that Rollback leaves its checkpoint
// intact. The edits below change live state in place (remapping a port
// splices its row out of the device's link list; an unload deletes from the
// vdev map), and none of that may reach the checkpoint, so a second
// Rollback to it restores the same state as the first.
func TestCheckpointRollsBackTwice(t *testing.T) {
	d := goldenScript(t)
	want, err := d.DumpControl()
	if err != nil {
		t.Fatal(err)
	}
	cp := d.Checkpoint()
	for round := 1; round <= 2; round++ {
		if err := d.MapVPort("op", "l2", 1, 3); err != nil {
			t.Fatal(err)
		}
		if err := d.Unload("op", "fw"); err != nil {
			t.Fatal(err)
		}
		d.Rollback(cp)
		got, err := d.DumpControl()
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("rollback %d did not restore the checkpointed state", round)
		}
	}
}
