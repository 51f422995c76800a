package sim

import (
	"errors"
	"testing"

	"hyper4/internal/bitfield"
)

// An Update that writes nothing, or whose every write is rejected, leaves
// the generation alone: compiled plans stay valid.
func TestUpdateNoOpKeepsGeneration(t *testing.T) {
	sw := newDumpSwitch(t)
	gen := sw.Generation()
	if err := sw.Update(func(*Tx) error { return nil }); err != nil {
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
