package ctl

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"hyper4/internal/breaker"
	"hyper4/internal/chaos"
	"hyper4/internal/core/dpmu"
	"hyper4/internal/core/persona"
	pktio "hyper4/internal/runtime"
	"hyper4/internal/sim"
)

// undoSetup is the state every failure-atomicity case starts from: a
// firewall forwarding TCP from port 1 to port 2, an l2 device, a mapped fw
// vport 11, and a snapshot S naming a device that is no longer loaded.
var undoSetup = []string{
	"load l2 l2_switch",
	"load fw firewall",
	"load gone l2_switch",
	"fw table_add dmac forward 00:00:00:00:00:02 => 2",
	"map fw 2 2",
	"map fw 11 3",
	"assign 1 fw 1",
	"snapshot_save S 1:gone:1",
	"unload gone",
}

// TestFailedWriteUndoesItsWriteSet: a refused write, whether it is one op
// or the last of several, leaves the control state byte-identical
// (DumpControl) and the firewall still forwarding, through a journal-less
// Apply (a batch: WriteBatch), a journaled WriteBatch and the DPMU's own
// methods. Each write fails after it has written something: set_default
// removes ip_filter's catch-all rows first, snapshot_activate clears
// t_assign first, mcast takes a mirror session and sequence IDs first, and
// the batch loads a device and maps its port first.
func TestFailedWriteUndoesItsWriteSet(t *testing.T) {
	cases := []struct {
		name  string
		lines []string
		dpmu  func(c *Ctl) error
	}{
		{
			name:  "set_default_refused",
			lines: []string{"fw table_set_default ip_filter _drop"},
			dpmu: func(c *Ctl) error {
				return c.D.SetDefault("op", "fw", "ip_filter", "_drop", nil)
			},
		},
		{
			name:  "snapshot_unloaded_device",
			lines: []string{"snapshot_activate S"},
			dpmu:  func(c *Ctl) error { return c.D.ActivateSnapshot("S") },
		},
		{
			name:  "mcast_onto_mapped_vport",
			lines: []string{"mcast fw 11 l2:1 l2:2"},
			dpmu: func(c *Ctl) error {
				return c.D.MulticastGroup("op", "fw", 11, []dpmu.VPortRef{{VDev: "l2", VIngress: 1}, {VDev: "l2", VIngress: 2}})
			},
		},
		{
			name:  "batch_failing_at_op_3",
			lines: []string{"load x l2_switch", "map x 2 2", "x table_add dmac ghost 00:00:00:00:00:09 =>"},
			dpmu: func(c *Ctl) error {
				comp, err := c.compileFunction("l2_switch")
				if err != nil {
					return err
				}
				return c.D.Update(func(tx *dpmu.Tx) error {
					if _, err := tx.Load("x", comp, "op", 0); err != nil {
						return err
					}
					if err := tx.MapVPort("op", "x", 2, 2); err != nil {
						return err
					}
					_, err := tx.TableAdd("op", "x", dpmu.EntrySpec{Table: "dmac", Action: "ghost",
						Params: []sim.MatchParam{sim.ExactUint(48, 9)}})
					return err
				})
			},
		},
	}
	ways := []struct {
		name    string
		ctl     func(t *testing.T) *Ctl
		refused func(c *Ctl, ops []Op) error
	}{
		{"apply", func(t *testing.T) *Ctl { return newPersonaCtl(t) }, func(c *Ctl, ops []Op) error {
			if len(ops) == 1 {
				_, err := c.Apply("op", &ops[0])
				return err
			}
			_, err := c.WriteBatch("op", ops)
			return err
		}},
		{"journaled_batch", func(t *testing.T) *Ctl {
			c, _ := journaledCtl(t, t.TempDir(), 1000)
			return c
		}, func(c *Ctl, ops []Op) error {
			_, err := c.WriteBatch("op", ops)
			return err
		}},
		{"dpmu", func(t *testing.T) *Ctl { return newPersonaCtl(t) }, nil},
	}
	for _, tc := range cases {
		for _, w := range ways {
			t.Run(tc.name+"/"+w.name, func(t *testing.T) {
				c := w.ctl(t)
				mustBatch(t, c, "op", parseOps(t, undoSetup...))
				requireForwards(t, c)
				before := mustDump(t, c)
				var err error
				if w.refused != nil {
					err = w.refused(c, parseOps(t, tc.lines...))
				} else {
					err = tc.dpmu(c)
				}
				if err == nil {
					t.Fatal("the write succeeded; it should be refused")
				}
				if after := mustDump(t, c); after != before {
					t.Fatalf("refused write (%v) changed the control state:\n%s", err, firstDiff(before, after))
				}
				requireForwards(t, c)
			})
		}
	}
}

// rewireIO is a PortIO whose attach runs a health query, which rewires a
// quarantined device's links, and then fails.
type rewireIO struct {
	PortIO
	c *Ctl
}

func (io rewireIO) AttachSpec(int, string) error {
	io.c.D.Health()
	return pktio.ErrBadSpec
}

// TestUndoRefusedAfterBypassRewire: a health query that rewires bypass links
// between a batch's committed Update and its failing port op commits writes
// the batch's write set does not know. The undo refuses rather than replay
// over them: the batch's writes and the rewiring both stay, consistent, the
// error is INTERNAL, and a journal fail-stops.
func TestUndoRefusedAfterBypassRewire(t *testing.T) {
	for _, journaled := range []bool{false, true} {
		t.Run(fmt.Sprintf("journaled=%v", journaled), func(t *testing.T) {
			var c *Ctl
			if journaled {
				c, _ = journaledCtl(t, t.TempDir(), 1000)
			} else {
				c = newPersonaCtl(t)
			}
			c.D.SetHealthConfig(dpmu.HealthConfig{
				Config:       breaker.Config{Window: time.Second, Trip: 2, OpenFor: time.Hour},
				ProbePackets: 1,
				Policy:       dpmu.PolicyBypass,
			})
			// a → b → c, each an l2 switch forwarding mac 2 out of vport 2.
			mustBatch(t, c, "op", parseOps(t,
				"load a l2_switch", "load b l2_switch", "load c l2_switch",
				"a table_add smac _nop 00:00:00:00:00:01 =>",
				"a table_add dmac forward 00:00:00:00:00:02 => 2",
				"c table_add smac _nop 00:00:00:00:00:01 =>",
				"c table_add dmac forward 00:00:00:00:00:02 => 2",
				"link a 2 b 1", "link b 2 c 1", "map c 2 2", "assign 1 a 1"))
			b, err := c.D.VDev("b")
			if err != nil {
				t.Fatal(err)
			}
			// Trip b with no health query yet, so the rewiring is pending.
			c.D.SW.SetInjector(chaos.New(chaos.Spec{Seed: 1, Attr: uint64(b.PID), PanicEvery: 1}))
			for range 2 {
				if _, _, err := c.D.SW.Process(tcpFrame(80), 1); err == nil {
					t.Fatal("a packet through b did not fault")
				}
			}
			c.D.SW.SetInjector(nil)

			c.IO = rewireIO{c: c}
			_, err = c.WriteBatch("op", parseOps(t, "map a 3 3", "port attach 9 x:y"))
			if CodeOf(err) != CodeInternal {
				t.Fatalf("batch error %v, want INTERNAL", err)
			}
			for _, v := range c.D.Health().VDevs {
				if v.VDev == "b" && !v.Bypassed {
					t.Fatalf("b not bypassed: %+v", v)
				}
			}
			if journaled {
				if c.journal.failed == nil {
					t.Fatal("journal did not fail-stop after an undo it could not make")
				}
				if _, err := c.WriteBatch("op", parseOps(t, "load x l2_switch")); err == nil {
					t.Fatal("fail-stopped journal acked a batch")
				}
			}
			// The chain forwards around b, straight to c.
			outs, _, err := c.D.SW.Process(tcpFrame(80), 1)
			if err != nil || len(outs) != 1 || outs[0].Port != 2 {
				t.Fatalf("bypassed chain: outputs %+v, err %v; want one on port 2", outs, err)
			}
			// The rows and their records agree: a new row takes a fresh
			// handle, and unloading every device leaves no route behind.
			if err := c.D.MapVPort("op", "c", 3, 3); err != nil {
				t.Fatal(err)
			}
			seen := map[int]bool{}
			for _, e := range c.D.SW.Dump().Tables[persona.TblVirtnet].Entries {
				if seen[e.Handle] {
					t.Fatalf("t_virtnet handle %d is taken twice", e.Handle)
				}
				seen[e.Handle] = true
			}
			for _, name := range []string{"a", "b", "c"} {
				if err := c.D.Unload("op", name); err != nil {
					t.Fatal(err)
				}
			}
			if es := c.D.SW.Dump().Tables[persona.TblVirtnet].Entries; len(es) != 0 {
				t.Fatalf("%d t_virtnet rows outlive every device: %+v", len(es), es)
			}
		})
	}
}

// requireForwards holds the firewall to forwarding a TCP frame on port 1
// out of port 2.
func requireForwards(t *testing.T, c *Ctl) {
	t.Helper()
	if pid := c.D.PIDForPort(1); pid < 0 {
		t.Fatalf("port 1 has no owner (PIDForPort %d)", pid)
	}
	outs, _, err := c.D.SW.Process(tcpFrame(80), 1)
	if err != nil || len(outs) != 1 || outs[0].Port != 2 {
		t.Fatalf("fw TCP frame on port 1: outputs %+v, err %v; want one on port 2", outs, err)
	}
}

// firstDiff returns the first line where two dumps differ, with its
// neighbours.
func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := range min(len(al), len(bl)) {
		if al[i] != bl[i] {
			lo := max(i-3, 0)
			return fmt.Sprintf("line %d:\n-%s\n+%s", i+1,
				strings.Join(al[lo:min(i+3, len(al))], "\n-"), strings.Join(bl[lo:min(i+3, len(bl))], "\n+"))
		}
	}
	return fmt.Sprintf("dumps of %d and %d lines", len(al), len(bl))
}
