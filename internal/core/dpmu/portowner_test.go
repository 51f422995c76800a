package dpmu

import (
	"fmt"
	"testing"

	"hyper4/internal/core/hp4c"
	"hyper4/internal/core/persona"
	"hyper4/internal/functions"
)

// checkPortOwners holds three answers to "which device owns physical port
// p?" to one for ports 0..15: PIDForPort, the device an interpreted frame
// on p enters (the CounterVDev cell its passes move; cell 0 when t_assign
// gives it none), and the fused engine's port dispatch (the cell a fused
// run moves). A port whose owner is a loaded, fused device must take the
// fast path, so the fused dispatch is checked, not skipped.
func checkPortOwners(t testing.TB, d *DPMU, frame []byte) {
	t.Helper()
	d.Settle()
	d.mu.RLock()
	eng, maxPID := d.fusionEngine, d.nextPID
	loaded := map[int]bool{}
	for _, v := range d.vdevs {
		loaded[v.PID] = true
	}
	d.mu.RUnlock()
	reached := func(port int) int {
		before := make([]uint64, maxPID+1)
		for pid := range before {
			before[pid], _, _ = d.SW.CounterRead(persona.CounterVDev, pid)
		}
		if _, _, err := d.SW.Process(frame, port); err != nil {
			t.Fatalf("port %d: %v", port, err)
		}
		got := -1
		for pid := range before {
			if n, _, _ := d.SW.CounterRead(persona.CounterVDev, pid); n != before[pid] {
				if got >= 0 {
					t.Fatalf("port %d: a frame moved the pass counters of pids %d and %d", port, got, pid)
				}
				got = pid
			}
		}
		return got
	}
	for port := 0; port < 16; port++ {
		want := max(d.PIDForPort(port), 0)
		d.SW.SetFastPath(nil)
		interp := reached(port)
		var hits uint64
		if eng != nil {
			d.SW.SetFastPath(eng)
			hits = eng.Hits()
		}
		fused := reached(port)
		if interp != want || fused != want {
			t.Fatalf("port %d: PIDForPort says pid %d, an interpreted frame entered pid %d, a fused run pid %d",
				port, want, interp, fused)
		}
		if eng != nil && loaded[want] && eng.Fused(want) && eng.Hits() != hits+1 {
			t.Fatalf("port %d: owner pid %d is fused, but the fast path did not take the frame", port, want)
		}
	}
}

// TestPortOwnerAgreement holds PIDForPort, the interpreter, the fused
// dispatch and the prover's identity harness to t_assign's rows where an
// assignment list would mislead: two rows of one tier claim a port (the
// older row wins, as in sim), a row outlives its unloaded device (the port
// drops its frames and stays that device's), and ports 8..15 are assigned
// to the proved device after another device already holds them.
func TestPortOwnerAgreement(t *testing.T) {
	const owner = "op"
	setup := func(t *testing.T) (*DPMU, *VDev, *VDev) {
		d := newPersonaDPMU(t)
		l2, err := d.Load("l2", compileFn(t, functions.L2Switch), owner, 0)
		if err != nil {
			t.Fatal(err)
		}
		fw, err := d.Load("fw", compileFn(t, functions.Firewall), owner, 0)
		if err != nil {
			t.Fatal(err)
		}
		d.SetFusion(true)
		return d, l2, fw
	}
	assign := func(t *testing.T, d *DPMU, as ...Assignment) {
		t.Helper()
		for _, a := range as {
			if err := d.AssignPort(owner, a); err != nil {
				t.Fatal(err)
			}
		}
	}
	wantPID := func(t *testing.T, d *DPMU, port, want int) {
		t.Helper()
		if got := d.PIDForPort(port); got != want {
			t.Fatalf("PIDForPort(%d) = %d, want %d", port, got, want)
		}
	}
	frame := tcpFrame(80)

	t.Run("same_tier", func(t *testing.T) {
		d, _, fw := setup(t)
		assign(t, d, Assignment{PhysPort: 1, VDev: "fw", VIngress: 1}, Assignment{PhysPort: 1, VDev: "l2", VIngress: 1})
		wantPID(t, d, 1, fw.PID)
		checkPortOwners(t, d, frame)
	})
	t.Run("same_tier_wildcard", func(t *testing.T) {
		d, l2, fw := setup(t)
		assign(t, d, Assignment{PhysPort: -1, VDev: "fw", VIngress: 1}, Assignment{PhysPort: -1, VDev: "l2", VIngress: 1})
		wantPID(t, d, 3, fw.PID)
		checkPortOwners(t, d, frame)
		// A specific row still beats every wildcard.
		assign(t, d, Assignment{PhysPort: 3, VDev: "l2", VIngress: 3})
		wantPID(t, d, 3, l2.PID)
		checkPortOwners(t, d, frame)
	})
	t.Run("unloaded_device", func(t *testing.T) {
		d, l2, fw := setup(t)
		assign(t, d, Assignment{PhysPort: 1, VDev: "fw", VIngress: 1}, Assignment{PhysPort: -1, VDev: "l2", VIngress: 1})
		if err := d.Unload(owner, "fw"); err != nil {
			t.Fatal(err)
		}
		// fw's row still owns port 1: the frame drops and never reaches l2.
		wantPID(t, d, 1, fw.PID)
		wantPID(t, d, 2, l2.PID)
		out, _, err := d.SW.Process(frame, 1)
		if err != nil || len(out) != 0 {
			t.Fatalf("frame on the unloaded device's port: %d outputs, err %v; want a drop", len(out), err)
		}
		checkPortOwners(t, d, frame)
	})
	t.Run("prover_harness", func(t *testing.T) {
		d := newPersonaDPMU(t)
		for _, name := range []string{"old", "dev"} {
			if _, err := d.Load(name, compileFn(t, functions.L2Switch), owner, 0); err != nil {
				t.Fatal(err)
			}
			for p := 8; p < 16; p++ {
				assign(t, d, Assignment{PhysPort: p, VDev: name, VIngress: p})
			}
		}
		for vp := 1; vp < 16; vp++ {
			if err := d.MapVPort(owner, "dev", vp, vp); err != nil {
				t.Fatal(err)
			}
		}
		d.SetFusion(true)
		harness := func(name string) bool {
			d.mu.RLock()
			defer d.mu.RUnlock()
			return d.identityHarnessLocked(d.vdevs[name])
		}
		if harness("dev") {
			t.Fatal("identity harness live for dev while ports 8..15 still enter old")
		}
		checkPortOwners(t, d, frame)
		d.ClearAssignments()
		for p := 8; p < 16; p++ {
			assign(t, d, Assignment{PhysPort: p, VDev: "dev", VIngress: p})
		}
		if !harness("dev") {
			t.Fatal("identity harness not live once ports 8..15 enter dev")
		}
		checkPortOwners(t, d, frame)
	})
}

// Port-owner fuzz ops: each takes one argument byte.
const (
	opAssign = iota
	opAssignAll
	opClear
	opLoad
	opUnload
	opSave
	opActivate
	opCheckpoint
	opRollback
	opMap
	opLink
	opMcast
	numPortOps
)

// FuzzPortOwner drives random sequences of specific and wildcard
// assignments, clears, loads and unloads, snapshot saves and activations,
// checkpoint rollbacks, and vport maps, links and multicast groups over
// three devices (two l2_switch, one firewall), and after every step holds
// PIDForPort, the interpreter and the fused dispatch to one owner per port
// (checkPortOwners). Ops a DPMU refuses (an unloaded device, a missing
// snapshot, a snapshot naming an unloaded device, a group or route onto a
// vport something else holds) are part of the sequence too, and each must
// leave DumpControl as it was.
func FuzzPortOwner(f *testing.F) {
	const owner = "fz"
	names := []string{"a", "b", "c"}
	comps := []*hp4c.Compiled{compileFn(f, functions.L2Switch), compileFn(f, functions.Firewall), nil}
	comps[2] = comps[0]
	d := newPersonaDPMU(f)
	for i := range 2 {
		if _, err := d.Load(names[i], comps[i], owner, 0); err != nil {
			f.Fatal(err)
		}
	}
	d.SetFusion(true)
	base := d.Checkpoint()
	frame := tcpFrame(80)

	f.Add([]byte{opAssign, 0x11, opAssign, 0x10})                         // port 1: b, then a
	f.Add([]byte{opAssignAll, 1, opAssignAll, 0})                         // every port: b, then a
	f.Add([]byte{opAssign, 0x11, opAssignAll, 0, opUnload, 1})            // port 1's device unloaded
	f.Add([]byte{opAssign, 0x10, opUnload, 0, opLoad, 0, opAssign, 0x10}) // reload under a new PID
	f.Add([]byte{opAssign, 0x11, opCheckpoint, 0, opClear, 0, opAssignAll, 2, opRollback, 0})
	f.Add([]byte{opSave, 0x22, opSave, 5, opActivate, 0, opAssign, 0x03, opActivate, 1})
	f.Add([]byte{opAssign, 0x11, opMap, 0x30, opMcast, 0x30, opLink, 0x31, opMap, 0x00}) // group onto a mapped vport
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 24 {
			ops = ops[:24]
		}
		d.Rollback(base)
		var cp *Checkpoint
		for i := 0; i+1 < len(ops); i += 2 {
			arg := int(ops[i+1])
			dev := names[arg%3]
			before, _ := d.DumpControl()
			var err error
			switch ops[i] % numPortOps {
			case opAssign:
				err = d.AssignPort(owner, Assignment{PhysPort: arg >> 4, VDev: names[arg%16%3], VIngress: arg >> 4})
			case opAssignAll:
				err = d.AssignPort(owner, Assignment{PhysPort: -1, VDev: dev, VIngress: arg / 3 % 16})
			case opClear:
				d.ClearAssignments()
			case opLoad:
				_, err = d.Load(dev, comps[arg%3], owner, 0)
			case opUnload:
				err = d.Unload(owner, dev)
			case opSave:
				err = d.SaveSnapshot(fmt.Sprint("s", arg%2), []Assignment{
					{PhysPort: arg/2%17 - 1, VDev: names[arg/34%3], VIngress: 1},
				})
			case opActivate:
				err = d.ActivateSnapshot(fmt.Sprint("s", arg%2))
			case opCheckpoint:
				cp = d.Checkpoint()
			case opRollback:
				if cp != nil {
					d.Rollback(cp)
				}
			case opMap:
				err = d.MapVPort(owner, dev, arg>>4, arg>>4)
			case opLink:
				err = d.LinkVPorts(owner, dev, arg>>4, names[arg/3%3], 1)
			case opMcast:
				err = d.MulticastGroup(owner, dev, arg>>4, []VPortRef{{VDev: names[0], VIngress: 1}, {VDev: names[1], VIngress: 2}})
			}
			if after, _ := d.DumpControl(); err != nil && after != before {
				t.Fatalf("op %d (kind %d, arg %#x) was refused (%v) and changed the control state", i/2, ops[i]%numPortOps, arg, err)
			}
			checkPortOwners(t, d, frame)
		}
	})
}
