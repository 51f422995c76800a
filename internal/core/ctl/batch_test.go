package ctl

import (
	"reflect"
	"strconv"
	"sync"
	"testing"

	"hyper4/internal/core/dpmu"
	"hyper4/internal/core/hp4c"
	"hyper4/internal/functions"
	"hyper4/internal/pkt"
)

// mustBatch applies a batch that is expected to succeed.
func mustBatch(t *testing.T, c *Ctl, owner string, ops []Op) []Result {
	t.Helper()
	results, err := c.WriteBatch(owner, ops)
	if err != nil {
		t.Fatalf("batch failed: %v", err)
	}
	return results
}

// configuredCtl is a control plane with one populated l2 device — the
// pre-batch state the atomicity tests snapshot.
func configuredCtl(t *testing.T, quota int) *Ctl {
	t.Helper()
	c := newPersonaCtl(t)
	ops := []Op{
		{Kind: OpLoadVDev, VDev: "l2", Function: "l2_switch", Quota: quota},
		{Kind: OpTableAdd, VDev: "l2", Table: "smac", Action: "_nop", Match: []string{"00:00:00:00:00:01"}},
		{Kind: OpTableAdd, VDev: "l2", Table: "dmac", Action: "forward", Match: []string{"00:00:00:00:00:02"}, Args: []string{"2"}},
		{Kind: OpAssign, VDev: "l2", PhysPort: 1, VIngress: 1},
		{Kind: OpMapVPort, VDev: "l2", VPort: 2, PhysPort: 2},
	}
	mustBatch(t, c, "op", ops)
	return c
}

// TestWriteBatchApplies checks the happy path: one batch configures a whole
// forwarding function, results line up with ops, and traffic flows.
func TestWriteBatchApplies(t *testing.T) {
	c := configuredCtl(t, 0)
	outs, _, err := c.D.SW.Process(tcpFrame(80), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 1 || outs[0].Port != 2 {
		t.Fatalf("batch-configured forwarding: %+v", outs)
	}
}

// TestCtlSwitchMatchesInstaller proves an l2 device configured through one
// WriteBatch of textual ops — the wire shape hp4ctl ships — is the same
// device as one configured by direct DPMU installer calls: the full switch
// dump (persona table contents, defaults, precedence) is identical, and so
// is forwarding.
func TestCtlSwitchMatchesInstaller(t *testing.T) {
	hosts := []struct {
		mac  pkt.MAC
		port int
	}{{mac1, 1}, {mac2, 2}}

	direct := newPersonaCtl(t).D
	prog, err := functions.Load(functions.L2Switch)
	if err != nil {
		t.Fatal(err)
	}
	comp, err := hp4c.Compile(prog, direct.Config())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := direct.Load("l2", comp, "op", 0); err != nil {
		t.Fatal(err)
	}
	l2 := functions.NewL2ControllerFunc(direct.Installer("op", "l2"))
	for _, h := range hosts {
		if err := l2.AddHost(h.mac, h.port); err != nil {
			t.Fatal(err)
		}
	}
	if err := direct.AssignPort("op", dpmu.Assignment{PhysPort: -1, VDev: "l2", VIngress: 0}); err != nil {
		t.Fatal(err)
	}
	for _, h := range hosts {
		if err := direct.MapVPort("op", "l2", h.port, h.port); err != nil {
			t.Fatal(err)
		}
	}

	viaCtl := newPersonaCtl(t)
	ops := []Op{{Kind: OpLoadVDev, VDev: "l2", Function: functions.L2Switch}}
	for _, h := range hosts {
		mac := h.mac.String()
		ops = append(ops,
			Op{Kind: OpTableAdd, VDev: "l2", Table: "smac", Action: "_nop", Match: []string{mac}},
			Op{Kind: OpTableAdd, VDev: "l2", Table: "dmac", Action: "forward", Match: []string{mac}, Args: []string{strconv.Itoa(h.port)}},
		)
	}
	ops = append(ops, Op{Kind: OpAssign, VDev: "l2", PhysPort: -1, VIngress: 0})
	for _, h := range hosts {
		ops = append(ops, Op{Kind: OpMapVPort, VDev: "l2", VPort: h.port, PhysPort: h.port})
	}
	mustBatch(t, viaCtl, "op", ops)

	if !reflect.DeepEqual(direct.SW.Dump(), viaCtl.D.SW.Dump()) {
		t.Fatalf("ctl-configured switch differs from installer-configured:\ndirect %+v\nctl    %+v",
			direct.SW.Dump(), viaCtl.D.SW.Dump())
	}
	frame := tcpFrame(80)
	want, _, err := direct.SW.Process(frame, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := viaCtl.D.SW.Process(frame, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("forwarding differs: direct %+v, ctl %+v", want, got)
	}
	if len(got) != 1 || got[0].Port != 2 {
		t.Fatalf("h1->h2 frame should egress port 2: %+v", got)
	}
}

// failingBatches enumerates the required failure classes: a structurally
// fine batch whose k-th op fails at apply for semantic reasons.
func failingBatches(owner string) map[string]struct {
	owner string
	ops   []Op
	k     int
	code  Code
} {
	good1 := Op{Kind: OpTableAdd, VDev: "l2", Table: "dmac", Action: "forward", Match: []string{"00:00:00:00:00:0a"}, Args: []string{"2"}}
	good2 := Op{Kind: OpTableAdd, VDev: "l2", Table: "smac", Action: "_nop", Match: []string{"00:00:00:00:00:0b"}}
	return map[string]struct {
		owner string
		ops   []Op
		k     int
		code  Code
	}{
		"bad action at k=1": {
			owner: owner,
			ops:   []Op{good1, {Kind: OpTableAdd, VDev: "l2", Table: "dmac", Action: "ghost", Match: []string{"00:00:00:00:00:0c"}}, good2},
			k:     1, code: CodeNotFound,
		},
		"quota exhausted at k=2": {
			// The configured device has quota 4 and already holds 2 entries:
			// the first two adds fit, the third trips the quota.
			owner: owner,
			ops:   []Op{good1, good2, {Kind: OpTableAdd, VDev: "l2", Table: "dmac", Action: "forward", Match: []string{"00:00:00:00:00:0d"}, Args: []string{"2"}}},
			k:     2, code: CodeExhausted,
		},
		"wrong owner at k=1": {
			owner: "mallory",
			ops: []Op{
				{Kind: OpLoadVDev, VDev: "intruder", Function: "l2_switch"},
				{Kind: OpTableAdd, VDev: "l2", Table: "dmac", Action: "forward", Match: []string{"00:00:00:00:00:0e"}, Args: []string{"2"}},
			},
			k: 1, code: CodePermissionDenied,
		},
	}
}

// TestWriteBatchAtomicity proves the rollback protocol: a batch whose k-th
// op fails (bad action, quota exhaustion, foreign owner) leaves the entire
// switch dump — table contents with handles, hit counters and precedence
// order, virtual-network links, defaults, mirrors — bit-identical, along
// with the DPMU-level views (device list, per-device stats).
func TestWriteBatchAtomicity(t *testing.T) {
	for name, tc := range failingBatches("op") {
		t.Run(name, func(t *testing.T) {
			quota := 0
			if tc.code == CodeExhausted {
				quota = 4
			}
			c := configuredCtl(t, quota)

			// Run traffic first so hit counters are non-zero: rollback must
			// preserve them, not zero them.
			if _, _, err := c.D.SW.Process(tcpFrame(80), 1); err != nil {
				t.Fatal(err)
			}
			before := c.D.SW.Dump()
			vdevsBefore := c.D.VDevs()
			statsBefore := c.Stats()

			_, err := c.WriteBatch(tc.owner, tc.ops)
			if err == nil {
				t.Fatal("batch should fail")
			}
			ce, ok := err.(*Error)
			if !ok {
				t.Fatalf("error type %T, want *Error", err)
			}
			if ce.Op != tc.k {
				t.Errorf("failing op index = %d, want %d (%v)", ce.Op, tc.k, ce)
			}
			if ce.Code != tc.code {
				t.Errorf("code = %s, want %s (%v)", ce.Code, tc.code, ce)
			}

			after := c.D.SW.Dump()
			if !reflect.DeepEqual(before, after) {
				t.Fatalf("switch state not bit-identical after rollback:\nbefore %+v\nafter  %+v", before, after)
			}
			if got := c.D.VDevs(); !reflect.DeepEqual(got, vdevsBefore) {
				t.Errorf("vdevs changed: %v -> %v", vdevsBefore, got)
			}
			if got := c.Stats(); !reflect.DeepEqual(got, statsBefore) {
				t.Errorf("stats changed:\nbefore %+v\nafter  %+v", statsBefore, got)
			}

			// The rolled-back switch still forwards.
			outs, _, err := c.D.SW.Process(tcpFrame(80), 1)
			if err != nil || len(outs) != 1 || outs[0].Port != 2 {
				t.Fatalf("post-rollback forwarding: %+v %v", outs, err)
			}
		})
	}
}

// TestWriteBatchRollsBackLoads covers rollback across device lifecycle ops:
// a batch that loads a new device, rewires assignments and then fails must
// also unwind the load and the assignment churn.
func TestWriteBatchRollsBackLoads(t *testing.T) {
	c := configuredCtl(t, 0)
	before := c.D.SW.Dump()
	_, err := c.WriteBatch("op", []Op{
		{Kind: OpLoadVDev, VDev: "fw", Function: "firewall"},
		{Kind: OpClearAssignments},
		{Kind: OpAssign, VDev: "fw", PhysPort: 1, VIngress: 1},
		{Kind: OpTableAdd, VDev: "fw", Table: "tcp_filter", Action: "ghost", Match: []string{"0&&&0", "0&&&0"}},
	})
	if err == nil {
		t.Fatal("batch should fail")
	}
	if !reflect.DeepEqual(before, c.D.SW.Dump()) {
		t.Fatal("load/assign churn not rolled back")
	}
	if got := c.D.VDevs(); len(got) != 1 || got[0] != "l2" {
		t.Fatalf("vdevs after rollback: %v", got)
	}
	// The original assignment is restored: traffic still forwards.
	outs, _, err := c.D.SW.Process(tcpFrame(80), 1)
	if err != nil || len(outs) != 1 || outs[0].Port != 2 {
		t.Fatalf("post-rollback forwarding: %+v %v", outs, err)
	}
	// A fresh (valid) load still works after a rolled-back one.
	if _, err := c.WriteBatch("op", []Op{{Kind: OpLoadVDev, VDev: "fw", Function: "firewall"}}); err != nil {
		t.Fatal(err)
	}
}

// TestWriteBatchAtomicityUnderConcurrentReads runs failing batches while a
// reader hammers the data plane and the stats path; meant for -race. The
// final state must still diff clean.
func TestWriteBatchAtomicityUnderConcurrentReads(t *testing.T) {
	c := configuredCtl(t, 0)
	before := c.D.SW.Dump()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_, _, _ = c.D.SW.Process(tcpFrame(80), 1)
		}
	}()
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = c.Stats()
			_, _ = c.D.StatsForVDev("op", "l2")
		}
	}()

	bad := []Op{
		{Kind: OpTableAdd, VDev: "l2", Table: "dmac", Action: "forward", Match: []string{"00:00:00:00:00:33"}, Args: []string{"2"}},
		{Kind: OpTableAdd, VDev: "l2", Table: "dmac", Action: "ghost", Match: []string{"00:00:00:00:00:34"}},
	}
	for i := 0; i < 20; i++ {
		if _, err := c.WriteBatch("op", bad); err == nil {
			t.Fatal("batch should fail")
		}
	}
	close(stop)
	wg.Wait()

	after := c.D.SW.Dump()
	// The reader goroutine keeps incrementing hit counters between batches,
	// so mask them out; everything else must be identical.
	for name, td := range before.Tables {
		for i := range td.Entries {
			td.Entries[i].Hits = 0
		}
		before.Tables[name] = td
	}
	for name, td := range after.Tables {
		for i := range td.Entries {
			td.Entries[i].Hits = 0
		}
		after.Tables[name] = td
	}
	if !reflect.DeepEqual(before, after) {
		t.Fatalf("state (minus hit counters) not identical after concurrent failing batches:\nbefore %+v\nafter  %+v", before, after)
	}
}
