package sim

import (
	"errors"
	"reflect"
	"testing"

	"hyper4/internal/bitfield"
)

// An Update that writes nothing, clears an empty table, or whose every write
// is rejected, leaves the generation alone: compiled plans stay valid.
func TestUpdateNoOpKeepsGeneration(t *testing.T) {
	sw := newDumpSwitch(t)
	gen := sw.Generation()
	if err := sw.Update(func(*Tx) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if err := sw.TableClear("dmac"); err != nil {
		t.Fatal(err)
	}
	errBoom := errors.New("boom")
	err := sw.Update(func(tx *Tx) error {
		if _, err := tx.TableAdd("nope", "forward", nil, nil, 0); err == nil {
			t.Error("add to a missing table succeeded")
		}
		if err := tx.TableDelete("dmac", 99); err == nil {
			t.Error("delete of a missing handle succeeded")
		}
		return errBoom
	})
	if !errors.Is(err, errBoom) {
		t.Fatalf("Update returned %v, want fn's error", err)
	}
	if got := sw.Generation(); got != gen {
		t.Fatalf("no-op Updates moved the generation %d -> %d", gen, got)
	}
}

// Writes inside one Update see each other, and the whole transaction moves
// the generation once.
func TestUpdateSeesOwnWrites(t *testing.T) {
	sw := newDumpSwitch(t)
	mac := Exact(bitfield.FromUint(48, 2))
	gen := sw.Generation()
	err := sw.Update(func(tx *Tx) error {
		h, err := tx.TableAdd("dmac", "forward", []MatchParam{mac}, Args(9, 2), 0)
		if err != nil {
			return err
		}
		if _, err := tx.TableAdd("dmac", "forward", []MatchParam{mac}, Args(9, 3), 0); err == nil {
			t.Error("a duplicate of a key added earlier in the tx was accepted")
		}
		if err := tx.TableModify("dmac", h, "forward", Args(9, 4)); err != nil {
			return err
		}
		es := tx.Dump().Tables["dmac"].Entries
		if len(es) != 1 || es[0].Handle != h || es[0].Args[0].Uint64() != 4 {
			t.Errorf("tx.Dump after add+modify: %+v", es)
		}
		if err := tx.TableDelete("dmac", h); err != nil {
			return err
		}
		if _, err := tx.TableAdd("dmac", "forward", []MatchParam{mac}, Args(9, 5), 0); err != nil {
			t.Errorf("re-adding a key deleted earlier in the tx: %v", err)
		}
		return tx.TableSetDefault("dmac", "_drop", nil)
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := sw.Generation() - gen; got != 1 {
		t.Fatalf("a six-write Update moved the generation by %d, want 1", got)
	}
	es, err := sw.TableEntriesOrdered("dmac")
	if err != nil {
		t.Fatal(err)
	}
	if len(es) != 1 || es[0].Args[0].Uint64() != 5 {
		t.Fatalf("entries after the tx: %+v", es)
	}
	outs, _, err := sw.Process(append(make([]byte, 5), 2, 0, 0, 0, 0, 0, 0, 0, 0), 1)
	if err != nil || len(outs) != 1 || outs[0].Port != 5 {
		t.Fatalf("forwarding after the tx: %+v %v", outs, err)
	}
}

// Tx.Entry finds the highest-precedence entry under exactly a key: a
// same-key entry of lower precedence takes over when the first is deleted,
// and an entry under another mask or value is not under that key.
func TestTxEntry(t *testing.T) {
	sw := newDumpSwitch(t)
	arp := Ternary(bitfield.FromUint(16, 0x0806), bitfield.Ones(16))
	wide := Ternary(bitfield.FromUint(16, 0x0800), bitfield.FromUint(16, 0xff00))
	entry := func(table string, p MatchParam) *Entry {
		t.Helper()
		var e *Entry
		if err := sw.Update(func(tx *Tx) (err error) {
			e, err = tx.Entry(table, []MatchParam{p})
			return err
		}); err != nil {
			t.Fatal(err)
		}
		return e
	}
	if e := entry("filter", arp); e != nil {
		t.Fatalf("empty table: Entry = %+v", e)
	}
	late, err := sw.TableAdd("filter", "_nop", []MatchParam{arp}, nil, 7)
	if err != nil {
		t.Fatal(err)
	}
	first, err := sw.TableAdd("filter", "_drop", []MatchParam{arp}, nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sw.TableAdd("filter", "_drop", []MatchParam{wide}, nil, 0); err != nil {
		t.Fatal(err)
	}
	if e := entry("filter", arp); e == nil || e.Handle != first {
		t.Fatalf("Entry = %+v, want handle %d", e, first)
	}
	if err := sw.TableDelete("filter", first); err != nil {
		t.Fatal(err)
	}
	if e := entry("filter", arp); e == nil || e.Handle != late {
		t.Fatalf("after delete: Entry = %+v, want handle %d", e, late)
	}
	gen := sw.Generation()
	if e := entry("dmac", Exact(bitfield.FromUint(48, 2))); e != nil {
		t.Fatalf("Entry on an empty exact table = %+v", e)
	}
	if got := sw.Generation(); got != gen {
		t.Fatalf("Entry moved the generation %d -> %d", gen, got)
	}
	err = sw.Update(func(tx *Tx) error {
		_, err := tx.Entry("dmac", nil)
		return err
	})
	if err == nil {
		t.Fatal("Entry with no match params succeeded")
	}
}

// A failed Update undoes every write it made, and a committed one's write
// set undoes it from a later Update: either way the dump is as before,
// hit counters included, because the undone entries are the old objects.
func TestUpdateUndoesWriteSet(t *testing.T) {
	mac := func(b uint64) []MatchParam { return []MatchParam{Exact(bitfield.FromUint(48, b))} }
	errBoom := errors.New("boom")
	writes := func(tx *Tx) error {
		es := tx.Dump().Tables["dmac"].Entries
		if err := tx.TableDelete("dmac", es[1].Handle); err != nil {
			return err
		}
		if err := tx.TableModify("dmac", es[0].Handle, "_drop", nil); err != nil {
			return err
		}
		if _, err := tx.TableAdd("dmac", "_nop", mac(9), nil, 0); err != nil {
			return err
		}
		if err := tx.TableSetDefault("dmac", "_nop", nil); err != nil {
			return err
		}
		if err := tx.TableClear("filter"); err != nil {
			return err
		}
		tx.SetMirror(7, 5)
		tx.SetMirror(8, 4)
		_, err := tx.TableAdd("dmac", "forward", mac(3), Args(9, 6), 0)
		return err
	}
	for _, committed := range []bool{false, true} {
		sw := newDumpSwitch(t)
		for b := uint64(1); b <= 2; b++ {
			if _, err := sw.TableAdd("dmac", "forward", mac(b), Args(9, b), 0); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := sw.TableAdd("filter", "_drop",
			[]MatchParam{Ternary(bitfield.FromUint(16, 0x0806), bitfield.Ones(16))}, nil, 5); err != nil {
			t.Fatal(err)
		}
		if err := sw.TableSetDefault("dmac", "_drop", nil); err != nil {
			t.Fatal(err)
		}
		sw.SetMirror(7, 3)
		frame := make([]byte, 14)
		frame[5] = 1 // dst 00:00:00:00:00:01
		if _, _, err := sw.Process(frame, 1); err != nil {
			t.Fatal(err)
		}
		before := sw.Dump()
		if before.Tables["dmac"].Entries[0].Hits != 1 {
			t.Fatalf("setup: dmac hits %+v", before.Tables["dmac"].Entries)
		}
		if committed {
			var ws WriteSet
			if err := sw.Update(func(tx *Tx) error {
				err := writes(tx)
				ws = tx.WriteSet()
				return err
			}); err != nil {
				t.Fatal(err)
			}
			if reflect.DeepEqual(before, sw.Dump()) {
				t.Fatal("the writes changed nothing")
			}
			// A failed Update in between left everything as it was, so it
			// does not stand in the way.
			_ = sw.Update(func(tx *Tx) error {
				if _, err := tx.TableAdd("dmac", "_nop", mac(4), nil, 0); err != nil {
					return err
				}
				return errBoom
			})
			if err := sw.Update(func(tx *Tx) error { return tx.Undo(ws) }); err != nil {
				t.Fatal(err)
			}
		} else if err := sw.Update(func(tx *Tx) error {
			if err := writes(tx); err != nil {
				return err
			}
			return errBoom
		}); !errors.Is(err, errBoom) {
			t.Fatalf("Update returned %v, want fn's error", err)
		}
		if after := sw.Dump(); !reflect.DeepEqual(before, after) {
			t.Fatalf("committed=%v: undone writes left\n%+v\nwant\n%+v", committed, after, before)
		}
		// The restored entry is the counted one: the next hit makes two.
		if _, _, err := sw.Process(frame, 1); err != nil {
			t.Fatal(err)
		}
		if hits := sw.Dump().Tables["dmac"].Entries[0].Hits; hits != 2 {
			t.Fatalf("committed=%v: restored entry counts %d hits, want 2", committed, hits)
		}
	}
}

// Undo refuses a write set another write committed after, and changes
// nothing: replaying it would hand back a handle the later add took.
func TestUndoRefusesInterleavedWrite(t *testing.T) {
	sw := newDumpSwitch(t)
	mac := func(b uint64) []MatchParam { return []MatchParam{Exact(bitfield.FromUint(48, b))} }
	var ws WriteSet
	if err := sw.Update(func(tx *Tx) error {
		_, err := tx.TableAdd("dmac", "_nop", mac(1), nil, 0)
		ws = tx.WriteSet()
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := sw.TableAdd("dmac", "_nop", mac(2), nil, 0); err != nil {
		t.Fatal(err)
	}
	before := sw.Dump()
	if err := sw.Update(func(tx *Tx) error { return tx.Undo(ws) }); !errors.Is(err, ErrInterleaved) {
		t.Fatalf("Undo over a later write returned %v, want ErrInterleaved", err)
	}
	if after := sw.Dump(); !reflect.DeepEqual(before, after) {
		t.Fatalf("a refused Undo changed the switch:\n%+v\nwant\n%+v", after, before)
	}
}
