package ctl

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"
)

// serveCtl spins up the management API over a fresh persona control plane.
func serveCtl(t *testing.T) (*Ctl, *Client) {
	t.Helper()
	c := newPersonaCtl(t)
	srv := httptest.NewServer(NewServeMux(c))
	t.Cleanup(srv.Close)
	return c, &Client{Base: srv.URL, Owner: "op"}
}

// TestServerWriteReadStats drives the full remote flow: a batched write
// configures a device, reads and stats report it, and the data plane
// forwards.
func TestServerWriteReadStats(t *testing.T) {
	c, client := serveCtl(t)
	results, err := client.Write([]Op{
		{Kind: OpLoadVDev, VDev: "l2", Function: "l2_switch"},
		{Kind: OpTableAdd, VDev: "l2", Table: "smac", Action: "_nop", Match: []string{"00:00:00:00:00:01"}},
		{Kind: OpTableAdd, VDev: "l2", Table: "dmac", Action: "forward", Match: []string{"00:00:00:00:00:02"}, Args: []string{"2"}},
		{Kind: OpAssign, VDev: "l2", PhysPort: 1, VIngress: 1},
		{Kind: OpMapVPort, VDev: "l2", VPort: 2, PhysPort: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 5 {
		t.Fatalf("results: %+v", results)
	}
	if results[0].PID != 1 || !strings.Contains(results[0].Msg, "loaded l2 as program 1") {
		t.Errorf("load result: %+v", results[0])
	}
	if results[1].Handle == 0 || results[2].Handle == 0 {
		t.Errorf("table_add handles: %+v", results[1:3])
	}

	outs, _, err := c.D.SW.Process(tcpFrame(80), 1)
	if err != nil || len(outs) != 1 || outs[0].Port != 2 {
		t.Fatalf("remote-configured forwarding: %+v %v", outs, err)
	}

	rr, err := client.Read(&Query{Kind: "vdevs"})
	if err != nil || !reflect.DeepEqual(rr.VDevs, []string{"l2"}) {
		t.Errorf("vdevs = %+v, %v", rr, err)
	}
	rr, err = client.Read(&Query{Kind: "stats", VDev: "l2"})
	if err != nil || rr.Stats == nil || rr.Stats.VDev != "l2" {
		t.Fatalf("stats = %+v, %v", rr, err)
	}
	if rr.Stats.Packets == 0 {
		t.Errorf("stats saw no traffic: %+v", rr.Stats)
	}

	sr, err := client.Stats()
	if err != nil || len(sr.VDevs) != 1 || sr.VDevs[0].VDev != "l2" {
		t.Fatalf("global stats = %+v, %v", sr, err)
	}
	var hits int64
	for _, te := range sr.VDevs[0].Tables {
		hits += te.Hits
	}
	if hits == 0 {
		t.Errorf("global stats saw no table hits: %+v", sr.VDevs[0].Tables)
	}
}

// TestServerErrorCodes checks that structured errors survive the HTTP
// round-trip with their code and failing-op index intact, and that a failed
// remote batch rolled back.
func TestServerErrorCodes(t *testing.T) {
	c, client := serveCtl(t)
	if _, err := client.Write([]Op{{Kind: OpLoadVDev, VDev: "l2", Function: "l2_switch"}}); err != nil {
		t.Fatal(err)
	}
	before := c.D.SW.Dump()

	_, err := client.Write([]Op{
		{Kind: OpTableAdd, VDev: "l2", Table: "smac", Action: "_nop", Match: []string{"00:00:00:00:00:01"}},
		{Kind: OpTableAdd, VDev: "l2", Table: "dmac", Action: "ghost", Match: []string{"00:00:00:00:00:02"}},
	})
	ce, ok := err.(*Error)
	if !ok {
		t.Fatalf("error = %v (%T), want *Error", err, err)
	}
	if ce.Code != CodeNotFound || ce.Op != 1 {
		t.Errorf("remote error = %+v, want NOT_FOUND at op 1", ce)
	}
	if !reflect.DeepEqual(before, c.D.SW.Dump()) {
		t.Error("failed remote batch did not roll back")
	}

	// Authorization failures keep their code remotely too.
	mallory := &Client{Base: client.Base, Owner: "mallory"}
	_, err = mallory.Write([]Op{{Kind: OpUnload, VDev: "l2"}})
	if ce, ok := err.(*Error); !ok || ce.Code != CodePermissionDenied {
		t.Errorf("foreign unload error = %v, want PERMISSION_DENIED", err)
	}
	_, err = mallory.Read(&Query{Kind: "stats", VDev: "l2"})
	if ce, ok := err.(*Error); !ok || ce.Code != CodePermissionDenied {
		t.Errorf("foreign stats error = %v, want PERMISSION_DENIED", err)
	}
}

// TestServerWriteBodyCap: a /v1/write body one byte over the cap is refused
// with RESOURCE_EXHAUSTED before any op applies, even though its ops are
// valid.
func TestServerWriteBodyCap(t *testing.T) {
	_, client := serveCtl(t)
	before, err := client.Read(&Query{Kind: "dump"})
	if err != nil {
		t.Fatal(err)
	}
	req, err := json.Marshal(WriteRequest{Owner: "op", Ops: []Op{{Kind: OpLoadVDev, VDev: "l2", Function: "l2_switch"}}})
	if err != nil {
		t.Fatal(err)
	}
	// Pad with whitespace after the value so only the size is wrong.
	body := append(req, bytes.Repeat([]byte(" "), maxWriteBody+1-len(req))...)
	resp, err := http.Post(client.Base+"/v1/write", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var wr WriteResponse
	if err := json.NewDecoder(resp.Body).Decode(&wr); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusTooManyRequests || wr.Error == nil || wr.Error.Code != CodeExhausted {
		t.Fatalf("oversized write: HTTP %d, %+v; want 429 RESOURCE_EXHAUSTED", resp.StatusCode, wr)
	}
	after, err := client.Read(&Query{Kind: "dump"})
	if err != nil {
		t.Fatal(err)
	}
	if after.Dump != before.Dump {
		t.Errorf("oversized write changed state:\nbefore: %s\nafter:  %s", before.Dump, after.Dump)
	}
}

// TestServerEvents long-polls the event stream around a load/unload cycle.
func TestServerEvents(t *testing.T) {
	_, client := serveCtl(t)

	// Nothing yet: a short poll times out empty with the cursor unchanged.
	events, next, err := client.Events(0, 1)
	if err != nil || len(events) != 0 || next != 0 {
		t.Fatalf("idle poll: %v %d %v", events, next, err)
	}

	done := make(chan struct{})
	var got []Event
	go func() {
		defer close(done)
		got, next, err = client.Events(0, 10)
	}()
	time.Sleep(50 * time.Millisecond) // poll is parked before the write lands
	if _, werr := client.Write([]Op{{Kind: OpLoadVDev, VDev: "l2", Function: "l2_switch"}}); werr != nil {
		t.Fatal(werr)
	}
	<-done
	if err != nil || len(got) != 1 || got[0].Kind != "load" || got[0].VDev != "l2" || next != got[0].Seq {
		t.Fatalf("load event: %+v next=%d err=%v", got, next, err)
	}

	if _, err := client.Write([]Op{{Kind: OpUnload, VDev: "l2"}}); err != nil {
		t.Fatal(err)
	}
	events, next2, err := client.Events(next, 10)
	if err != nil || len(events) != 1 || events[0].Kind != "unload" || next2 <= next {
		t.Fatalf("unload event: %+v next=%d err=%v", events, next2, err)
	}
}

// TestServerEventsRestartRewindsCursor simulates a follower whose cursor
// outlives the switch: a fresh server instance (event seq restarted at 0)
// must detect the regression and rewind the cursor immediately, rather than
// parking the follower until the new seq outgrows the stale one.
func TestServerEventsRestartRewindsCursor(t *testing.T) {
	_, old := serveCtl(t)
	for _, op := range []Op{
		{Kind: OpLoadVDev, VDev: "l2", Function: "l2_switch"},
		{Kind: OpUnload, VDev: "l2"},
		{Kind: OpLoadVDev, VDev: "l2", Function: "l2_switch"},
	} {
		if _, err := old.Write([]Op{op}); err != nil {
			t.Fatal(err)
		}
	}
	_, stale, err := old.Events(0, 1)
	if err != nil || stale != 3 {
		t.Fatalf("priming cursor: %d %v", stale, err)
	}

	// "Restart": a brand-new control plane whose event seq starts over.
	_, fresh := serveCtl(t)
	if _, err := fresh.Write([]Op{{Kind: OpLoadVDev, VDev: "l2", Function: "l2_switch"}}); err != nil {
		t.Fatal(err)
	}

	// The stale cursor is ahead of everything the new instance has ever
	// published: the poll must come back right away (not sit out the full
	// wait) with a rewound cursor.
	start := time.Now()
	events, next, err := fresh.Events(stale, 10)
	if err != nil || len(events) != 0 {
		t.Fatalf("stale poll: %+v %v", events, err)
	}
	if next != 0 {
		t.Fatalf("stale cursor not rewound: next=%d", next)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("stale poll parked for %v", elapsed)
	}

	// Following the rewound cursor replays the new instance's buffer.
	events, next, err = fresh.Events(next, 1)
	if err != nil || len(events) != 1 || events[0].Kind != "load" || next != events[0].Seq {
		t.Fatalf("replay after rewind: %+v next=%d err=%v", events, next, err)
	}
}

// TestLocalRemoteParity runs the same script through the local CLI and
// through the HTTP client on two fresh switches; the resulting forwarding
// behavior and dumps must be byte-identical.
func TestLocalRemoteParity(t *testing.T) {
	script := []string{
		"load l2 l2_switch",
		"l2 table_add smac _nop 00:00:00:00:00:01 =>",
		"l2 table_add dmac forward 00:00:00:00:00:02 => 2",
		"assign 1 l2 1",
		"map l2 2 2",
	}

	local := newPersonaCtl(t)
	cli := NewCLI(local, "op")
	for _, line := range script {
		if _, err := cli.Exec(line); err != nil {
			t.Fatalf("local %q: %v", line, err)
		}
	}

	remote, client := serveCtl(t)
	for _, line := range script {
		op, _, err := ParseLine(line)
		if err != nil || op == nil {
			t.Fatalf("parse %q: %v", line, err)
		}
		if _, err := client.Write([]Op{*op}); err != nil {
			t.Fatalf("remote %q: %v", line, err)
		}
	}

	if !reflect.DeepEqual(local.D.SW.Dump(), remote.D.SW.Dump()) {
		t.Fatal("local and remote configuration dumps differ")
	}
	frame := tcpFrame(80)
	lOuts, _, lErr := local.D.SW.Process(append([]byte(nil), frame...), 1)
	rOuts, _, rErr := remote.D.SW.Process(append([]byte(nil), frame...), 1)
	if lErr != nil || rErr != nil || !reflect.DeepEqual(lOuts, rOuts) {
		t.Fatalf("forwarding differs: local %+v (%v) remote %+v (%v)", lOuts, lErr, rOuts, rErr)
	}
}
