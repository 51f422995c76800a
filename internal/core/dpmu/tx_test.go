package dpmu

import (
	"reflect"
	"testing"
	"time"

	"hyper4/internal/bitfield"
	"hyper4/internal/sim"
)

// The shard key never waits on the DPMU lock: RX loops call PIDForPort on
// every frame, and a write (or its plan compile) holds d.mu for
// milliseconds.
func TestPIDForPortWhileWriteLockHeld(t *testing.T) {
	d := newPersonaDPMU(t)
	loadL2(t, d, "l2", "op")
	want := d.vdevs["l2"].PID
	d.mu.Lock()
	defer d.mu.Unlock()
	got := make(chan int, 1)
	go func() { got <- d.PIDForPort(1) }()
	select {
	case pid := <-got:
		if pid != want {
			t.Fatalf("port 1: pid %d, want %d", pid, want)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("PIDForPort blocked behind the DPMU write lock")
	}
}

// Assignments to an unloaded device cover nothing, and reloading the name
// brings them back under the new PID, as t_assign's rows do.
func TestPIDForPortFollowsLoads(t *testing.T) {
	d := newPersonaDPMU(t)
	loadL2(t, d, "l2", "op")
	if err := d.Unload("op", "l2"); err != nil {
		t.Fatal(err)
	}
	if got := d.PIDForPort(1); got != -1 {
		t.Fatalf("port of an unloaded device: pid %d, want -1", got)
	}
	v, err := d.Load("l2", compileFn(t, "l2_switch"), "op", 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := d.PIDForPort(1); got != v.PID {
		t.Fatalf("after reload: pid %d, want %d", got, v.PID)
	}
}

// A failed DPMU op inside a transaction leaves the switch dump unchanged:
// one that fails before writing leaves the generation alone too, so the
// fused plan stays valid; a rollback at op k of a multi-op transaction
// restores the dump and moves the generation once.
func TestFailedOpInTxLeavesDumpUnchanged(t *testing.T) {
	d := newPersonaDPMU(t)
	loadL2(t, d, "l2", "op")
	before := d.SW.Dump()
	gen := d.SW.Generation()
	add := func(mac uint64, action string) EntrySpec {
		return EntrySpec{Table: "dmac", Action: action,
			Params: []sim.MatchParam{sim.ExactUint(48, mac)}, Args: []bitfield.Value{bitfield.FromUint(9, 2)}}
	}
	err := d.Update(func(tx *Tx) error {
		_, err := tx.TableAdd("op", "l2", add(9, "ghost"))
		return err
	})
	if err == nil {
		t.Fatal("an add with an unknown action succeeded")
	}
	if got := d.SW.Generation(); got != gen {
		t.Fatalf("a failed op that wrote nothing moved the generation %d -> %d", gen, got)
	}
	if after := d.SW.Dump(); !reflect.DeepEqual(before, after) {
		t.Fatal("switch dump changed after a failed op")
	}

	cp := d.Checkpoint()
	err = d.Update(func(tx *Tx) error {
		h, err := tx.TableAdd("op", "l2", add(9, "forward"))
		if err != nil {
			return err
		}
		if err := tx.TableDelete("op", "l2", "dmac", h); err != nil {
			return err
		}
		if _, err := tx.TableAdd("op", "l2", add(10, "forward")); err != nil {
			return err
		}
		if _, err = tx.TableAdd("op", "l2", add(11, "ghost")); err != nil {
			tx.Rollback(cp)
		}
		return err
	})
	if err == nil {
		t.Fatal("the transaction's last op should fail")
	}
	if got := d.SW.Generation() - gen; got != 1 {
		t.Fatalf("a rolled-back transaction moved the generation by %d, want 1", got)
	}
	if after := d.SW.Dump(); !reflect.DeepEqual(before, after) {
		t.Fatal("switch dump changed after a rolled-back transaction")
	}
}
