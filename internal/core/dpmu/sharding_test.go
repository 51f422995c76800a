package dpmu

import "testing"

// TestPIDForPort pins the shard-key resolution the packet I/O runtime uses:
// it must follow t_assign's match order (port-specific beats wildcard; the
// older row wins a tie) and track assignment churn, checkpoints, and
// snapshot switches.
func TestPIDForPort(t *testing.T) {
	d := newPersonaDPMU(t)
	const owner = "op"
	l2, err := d.Load("l2", compileFn(t, "l2_switch"), owner, 0)
	if err != nil {
		t.Fatal(err)
	}
	fw, err := d.Load("fw", compileFn(t, "firewall"), owner, 0)
	if err != nil {
		t.Fatal(err)
	}

	if got := d.PIDForPort(1); got != -1 {
		t.Fatalf("unassigned port resolves to %d, want -1", got)
	}

	if err := d.AssignPort(owner, Assignment{PhysPort: -1, VDev: "l2", VIngress: 1}); err != nil {
		t.Fatal(err)
	}
	if err := d.AssignPort(owner, Assignment{PhysPort: 2, VDev: "fw", VIngress: 2}); err != nil {
		t.Fatal(err)
	}
	if got := d.PIDForPort(1); got != l2.PID {
		t.Fatalf("wildcard port: pid %d, want %d", got, l2.PID)
	}
	if got := d.PIDForPort(2); got != fw.PID {
		t.Fatalf("specific beats wildcard: pid %d, want %d", got, fw.PID)
	}

	// Rollback restores the assignment shadow along with the rows.
	cp := d.Checkpoint()
	d.ClearAssignments()
	if got := d.PIDForPort(2); got != -1 {
		t.Fatalf("after clear: pid %d, want -1", got)
	}
	d.Rollback(cp)
	if got := d.PIDForPort(2); got != fw.PID {
		t.Fatalf("after rollback: pid %d, want %d", got, fw.PID)
	}

	// Snapshot activation replaces the assignment set wholesale.
	if err := d.SaveSnapshot("fwAll", []Assignment{{PhysPort: -1, VDev: "fw", VIngress: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := d.ActivateSnapshot("fwAll"); err != nil {
		t.Fatal(err)
	}
	if got := d.PIDForPort(1); got != fw.PID {
		t.Fatalf("after snapshot: pid %d, want %d", got, fw.PID)
	}
}
