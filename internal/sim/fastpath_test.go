package sim

import (
	"bytes"
	"sync"
	"testing"

	"hyper4/internal/bitfield"
	"hyper4/internal/pkt"
)

// TestTableAddDuplicateExactRejected: inserting a second entry with the same
// exact-match key must fail atomically — no entry added, no handle consumed,
// and the original entry still matches.
func TestTableAddDuplicateExactRejected(t *testing.T) {
	sw := load(t, l2Src)
	mac := pkt.MustMAC("00:00:00:00:00:02")
	key := []MatchParam{Exact(bitfield.FromBytes(48, mac[:]))}
	h1, err := sw.TableAdd("dmac", "forward", key, Args(9, 3), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sw.TableAdd("dmac", "forward", key, Args(9, 7), 0); err == nil {
		t.Fatal("duplicate exact key accepted")
	}
	if n, _ := sw.TableEntryCount("dmac"); n != 1 {
		t.Errorf("entry count after rejected dup = %d, want 1", n)
	}
	// The original entry still routes, and a distinct key still inserts with
	// a fresh handle.
	frame := ethFrame("00:00:00:00:00:02", "00:00:00:00:00:01", 0x1234, "hi")
	out, _, err := sw.Process(frame, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].Port != 3 {
		t.Fatalf("outputs = %+v", out)
	}
	mac4 := pkt.MustMAC("00:00:00:00:00:04")
	h2, err := sw.TableAdd("dmac", "forward",
		[]MatchParam{Exact(bitfield.FromBytes(48, mac4[:]))}, Args(9, 4), 0)
	if err != nil {
		t.Fatal(err)
	}
	if h2 == h1 {
		t.Errorf("handle reused after rejected dup: %d", h2)
	}
	// Deleting the original frees its key for reinsertion.
	if err := sw.TableDelete("dmac", h1); err != nil {
		t.Fatal(err)
	}
	if _, err := sw.TableAdd("dmac", "forward", key, Args(9, 5), 0); err != nil {
		t.Fatalf("reinsert after delete: %v", err)
	}
}

const cloneDropSrc = `
header_type ethernet_t { fields { dstAddr : 48; srcAddr : 48; etherType : 16; } }
header ethernet_t ethernet;
parser start { extract(ethernet); return ingress; }
action mirror_and_drop() {
    clone_ingress_pkt_to_egress(7);
    drop();
}
table snoop { reads { ethernet.dstAddr : exact; } actions { mirror_and_drop; } }
control ingress { apply(snoop); }
`

// TestCloneI2EIgnoresParentDrop: an I2E clone starts its egress pass with
// every end-of-pipeline flag cleared, so an ingress drop of the original must
// not drop the mirror copy.
func TestCloneI2EIgnoresParentDrop(t *testing.T) {
	sw := load(t, cloneDropSrc)
	sw.SetMirror(7, 5)
	mac := pkt.MustMAC("00:00:00:00:00:02")
	if _, err := sw.TableAdd("snoop", "mirror_and_drop",
		[]MatchParam{Exact(bitfield.FromBytes(48, mac[:]))}, nil, 0); err != nil {
		t.Fatal(err)
	}
	frame := ethFrame("00:00:00:00:00:02", "00:00:00:00:00:01", 0x1234, "hi")
	out, tr, err := sw.Process(frame, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].Port != 5 {
		t.Fatalf("want only the mirror copy on port 5, got %+v", out)
	}
	if !bytes.Equal(out[0].Data, frame) {
		t.Errorf("mirror copy modified: %x", out[0].Data)
	}
	if tr.ClonesI2E != 1 {
		t.Errorf("ClonesI2E = %d", tr.ClonesI2E)
	}
}

const mixedLPMSrc = `
header_type ipv4_t { fields { proto : 8; dst : 32; } }
header ipv4_t ipv4;
parser start { extract(ipv4); return ingress; }
action route(port) { modify_field(standard_metadata.egress_spec, port); }
table rt {
    reads { ipv4.proto : exact; ipv4.dst : lpm; }
    actions { route; }
}
control ingress { apply(rt); }
`

// TestMixedLPMPrecedenceCached: in a multi-read table with an LPM component
// the longest summed prefix wins at equal priority, regardless of insertion
// order — exercising the prefix sum cached on the entry at insert time.
func TestMixedLPMPrecedenceCached(t *testing.T) {
	sw := load(t, mixedLPMSrc)
	ip := func(s string) bitfield.Value {
		a := pkt.MustIP4(s)
		return bitfield.FromBytes(32, a[:])
	}
	proto := Exact(bitfield.FromUint(8, 6))
	// Shorter prefix inserted first.
	if _, err := sw.TableAdd("rt", "route",
		[]MatchParam{proto, LPM(ip("10.0.0.0"), 8)}, Args(9, 1), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := sw.TableAdd("rt", "route",
		[]MatchParam{proto, LPM(ip("10.1.0.0"), 16)}, Args(9, 2), 0); err != nil {
		t.Fatal(err)
	}
	probe := func(dst string) int {
		t.Helper()
		a := pkt.MustIP4(dst)
		data := append([]byte{6}, a[:]...)
		out, _, err := sw.Process(data, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != 1 {
			t.Fatalf("dst %s: outputs %+v", dst, out)
		}
		return out[0].Port
	}
	if got := probe("10.1.2.3"); got != 2 {
		t.Errorf("10.1.2.3 routed to %d, want 2 (longest prefix)", got)
	}
	if got := probe("10.9.2.3"); got != 1 {
		t.Errorf("10.9.2.3 routed to %d, want 1 (/8 fallback)", got)
	}
}

// TestSingleLPMMixedPrioritiesFallsBack: the per-prefix-length index assumes
// uniform priorities; entries at different priorities must still match in
// priority order (via the sorted scan fallback).
func TestSingleLPMMixedPrioritiesFallsBack(t *testing.T) {
	sw := load(t, `
header_type ipv4_t { fields { dst : 32; } }
header ipv4_t ipv4;
parser start { extract(ipv4); return ingress; }
action route(port) { modify_field(standard_metadata.egress_spec, port); }
table rt { reads { ipv4.dst : lpm; } actions { route; } }
control ingress { apply(rt); }
`)
	ip := func(s string) bitfield.Value {
		a := pkt.MustIP4(s)
		return bitfield.FromBytes(32, a[:])
	}
	// A /8 at priority 0 must beat a /24 at priority 5 (lower value wins).
	if _, err := sw.TableAdd("rt", "route",
		[]MatchParam{LPM(ip("10.1.2.0"), 24)}, Args(9, 2), 5); err != nil {
		t.Fatal(err)
	}
	if _, err := sw.TableAdd("rt", "route",
		[]MatchParam{LPM(ip("10.0.0.0"), 8)}, Args(9, 1), 0); err != nil {
		t.Fatal(err)
	}
	addr := pkt.MustIP4("10.1.2.3")
	out, _, err := sw.Process(addr[:], 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].Port != 1 {
		t.Fatalf("want priority-0 /8 to win, got %+v", out)
	}
}

// TestConcurrentBatchAndControlPlane drives ProcessSeq from several
// goroutines, each over its own disjoint slice of one shared batch (what the
// packet I/O runtime's workers do), while the control plane adds and deletes
// entries. Run under -race this checks the locking discipline; functionally
// each packet must see a consistent table (either port, never a torn entry).
func TestConcurrentBatchAndControlPlane(t *testing.T) {
	sw := load(t, l2Src)
	mac := pkt.MustMAC("00:00:00:00:00:02")
	key := []MatchParam{Exact(bitfield.FromBytes(48, mac[:]))}
	frame := ethFrame("00:00:00:00:00:02", "00:00:00:00:00:01", 0x1234, "hi")

	const workers, rounds = 4, 50
	inputs := make([]Input, 32)
	for i := range inputs {
		inputs[i] = Input{Data: frame, Port: 1}
	}
	results := make([]Result, len(inputs))
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			h, err := sw.TableAdd("dmac", "forward", key, Args(9, uint64(3+i%2)), 0)
			if err != nil {
				t.Error(err)
				return
			}
			if err := sw.TableDelete("dmac", h); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for round := 0; round < rounds; round++ {
		var fan sync.WaitGroup
		per := len(inputs) / workers
		for w := 0; w < workers; w++ {
			lo, hi := w*per, (w+1)*per
			fan.Add(1)
			go func() {
				defer fan.Done()
				if err := sw.ProcessSeq(inputs[lo:hi], results[lo:hi]); err != nil {
					t.Error(err)
				}
			}()
		}
		fan.Wait()
		for _, r := range results {
			for _, o := range r.Outputs {
				if o.Port != 3 && o.Port != 4 {
					t.Fatalf("torn entry: forwarded to port %d", o.Port)
				}
			}
		}
	}
	close(stop)
	wg.Wait()
	st := sw.Stats()
	if st.PacketsIn != rounds*len(inputs) {
		t.Errorf("PacketsIn = %d, want %d", st.PacketsIn, rounds*len(inputs))
	}
}

// TestProcessSteadyStateAllocs guards the zero-alloc fast path: steady-state
// exact-match processing allocates the trace, the output bytes and the
// output slice, and nothing per field or per lookup (the seed needed 39).
func TestProcessSteadyStateAllocs(t *testing.T) {
	sw := load(t, l2Src)
	mac := pkt.MustMAC("00:00:00:00:00:02")
	if _, err := sw.TableAdd("dmac", "forward",
		[]MatchParam{Exact(bitfield.FromBytes(48, mac[:]))}, Args(9, 3), 0); err != nil {
		t.Fatal(err)
	}
	frame := ethFrame("00:00:00:00:00:02", "00:00:00:00:00:01", 0x1234, "hi")
	// Warm the pool.
	if _, _, err := sw.Process(frame, 1); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(200, func() {
		if _, _, err := sw.Process(frame, 1); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 5 {
		t.Errorf("Process allocates %.1f/op, want <= 5", avg)
	}
}
