package sim

import (
	"testing"
	"time"

	"hyper4/internal/bitfield"
	"hyper4/internal/pkt"
)

func TestMetricsTableCounters(t *testing.T) {
	sw := load(t, l2Src)
	mac := pkt.MustMAC("00:00:00:00:00:02")
	h, err := sw.TableAdd("dmac", "forward",
		[]MatchParam{Exact(bitfield.FromBytes(48, mac[:]))}, Args(9, 3), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.TableSetDefault("dmac", "_drop", nil); err != nil {
		t.Fatal(err)
	}
	hit := ethFrame("00:00:00:00:00:02", "00:00:00:00:00:01", 0x1234, "hi")
	miss := ethFrame("00:00:00:00:00:99", "00:00:00:00:00:01", 0x1234, "hi")
	for _, frame := range [][]byte{hit, miss, miss} {
		if _, _, err := sw.Process(frame, 1); err != nil {
			t.Fatal(err)
		}
	}

	snap := sw.Metrics()
	tc := snap.Tables["dmac"]
	want := TableCounters{Hits: 1, Misses: 2, Defaults: 2, Entries: 1}
	if tc != want {
		t.Errorf("dmac counters = %+v, want %+v", tc, want)
	}
	if snap.Actions["forward"] != 1 || snap.Actions["_drop"] != 2 {
		t.Errorf("action counts = %v", snap.Actions)
	}
	if snap.Passes.Normal != 3 || snap.Passes.Resubmit != 0 {
		t.Errorf("passes = %+v", snap.Passes)
	}
	if snap.Latency.Count != 3 {
		t.Errorf("latency count = %d", snap.Latency.Count)
	}
	var bucketSum int64
	for _, c := range snap.Latency.Counts {
		bucketSum += c
	}
	if bucketSum != 3 {
		t.Errorf("latency bucket sum = %d", bucketSum)
	}

	if tm, err := sw.TableMetrics("dmac"); err != nil || tm != want {
		t.Errorf("TableMetrics = %+v, %v", tm, err)
	}
	if _, err := sw.TableMetrics("nope"); err == nil {
		t.Error("TableMetrics on unknown table should error")
	}
	entries, err := sw.TableEntriesOrdered("dmac")
	if err != nil || len(entries) != 1 || entries[0].Handle != h || entries[0].Hits() != 1 {
		t.Errorf("dmac entries = %v, %v; want handle %d with 1 hit", entries, err, h)
	}
}

func TestMetricsPassKinds(t *testing.T) {
	// Resubmit: 1 normal pass + 2 resubmit passes.
	sw := load(t, resubmitSrc)
	for _, round := range []uint64{0, 1} {
		if _, err := sw.TableAdd("t", "again", []MatchParam{ExactUint(8, round)}, nil, 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sw.TableAdd("t", "out", []MatchParam{ExactUint(8, 2)}, nil, 0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := sw.Process([]byte{0xaa}, 0); err != nil {
		t.Fatal(err)
	}
	p := sw.Metrics().Passes
	if p.Normal != 1 || p.Resubmit != 2 {
		t.Errorf("resubmit passes = %+v", p)
	}

	// Clone E2E: the mirror copy is an egress-only pass counted by the
	// instance type carried in its cloned state.
	sw = load(t, cloneE2ESrc)
	sw.SetMirror(3, 7)
	if err := sw.TableSetDefault("t", "fwd", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := sw.TableAdd("e", "mirror", []MatchParam{ExactUint(32, 0)}, nil, 0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := sw.Process([]byte{1}, 0); err != nil {
		t.Fatal(err)
	}
	p = sw.Metrics().Passes
	if p.Normal != 1 || p.CloneE2E != 1 {
		t.Errorf("clone passes = %+v", p)
	}
}

func TestRecordLatencyBucketing(t *testing.T) {
	var m switchMetrics
	m.init(nil)
	cases := []struct {
		d      time.Duration
		bucket int
	}{
		{0, 0},
		{127 * time.Nanosecond, 0},      // < 2^7
		{128 * time.Nanosecond, 1},      // exactly the first bound
		{255 * time.Nanosecond, 1},      // < 2^8
		{1 * time.Microsecond, 3},       // 1000ns: 2^9 <= x < 2^10
		{time.Hour, latencyBuckets - 1}, // overflow clamps to +Inf bucket
	}
	for _, c := range cases {
		before := m.latCounts[c.bucket].Load()
		m.recordLatency(c.d, 1)
		if got := m.latCounts[c.bucket].Load(); got != before+1 {
			t.Errorf("recordLatency(%v) did not land in bucket %d", c.d, c.bucket)
		}
	}
	if m.latCount.Load() != int64(len(cases)) {
		t.Errorf("latCount = %d", m.latCount.Load())
	}

	// A burst of n files its mean n times: 4µs over 4 packets is four
	// 1µs samples, and the sum is the burst's whole duration.
	before, sum := m.latCounts[3].Load(), m.latSumNs.Load()
	m.recordLatency(4*time.Microsecond, 4)
	if got := m.latCounts[3].Load(); got != before+4 {
		t.Errorf("a 4-packet 4µs burst put %d samples in the 1µs bucket, want 4", got-before)
	}
	if got := m.latSumNs.Load() - sum; got != 4000 {
		t.Errorf("a 4-packet 4µs burst added %dns to the sum, want 4000", got)
	}
	if m.latCount.Load() != int64(len(cases))+4 {
		t.Errorf("latCount = %d after the burst", m.latCount.Load())
	}
}

func TestLatencyQuantile(t *testing.T) {
	h := LatencyHistogram{Bounds: LatencyBucketBounds(), Counts: make([]int64, latencyBuckets)}
	if h.Quantile(0.5) != 0 {
		t.Error("empty histogram quantile should be 0")
	}
	// 100 samples uniformly in bucket 3 (bounds 512ns..1024ns).
	h.Counts[3] = 100
	h.Count = 100
	if q := h.Quantile(0.5); q < 512*time.Nanosecond || q > 1024*time.Nanosecond {
		t.Errorf("p50 = %v, want within (512ns, 1024ns]", q)
	}
	// Quantiles are monotone.
	if h.Quantile(0.9) < h.Quantile(0.5) {
		t.Error("quantiles not monotone")
	}
	// Split across two buckets: p25 in the lower, p75 in the upper.
	h.Counts[3] = 50
	h.Counts[5] = 50
	if p25, p75 := h.Quantile(0.25), h.Quantile(0.75); p25 > 1024*time.Nanosecond || p75 <= 2048*time.Nanosecond {
		t.Errorf("p25 = %v, p75 = %v", p25, p75)
	}
}

// validationSrc declares three actions but lets the table use only two —
// binding the third must be rejected by every table op, not just TableAdd.
const validationSrc = `
header_type h_t { fields { v : 8; } }
header h_t h;
parser start { extract(h); return ingress; }
action allowed(p) { modify_field(standard_metadata.egress_spec, p); }
action also_allowed() { drop(); }
action undeclared() { drop(); }
table t { reads { h.v : exact; } actions { allowed; also_allowed; } }
control ingress { apply(t); }
`

func TestTableModifyRejectsUndeclaredAction(t *testing.T) {
	sw := load(t, validationSrc)
	h, err := sw.TableAdd("t", "allowed", []MatchParam{ExactUint(8, 1)}, Args(9, 2), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.TableModify("t", h, "undeclared", nil); err == nil {
		t.Fatal("TableModify accepted an action the table does not declare")
	}
	// The entry must be untouched by the failed modify.
	out, _, err := sw.Process([]byte{1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].Port != 2 {
		t.Fatalf("entry changed by rejected modify: %+v", out)
	}
	// A declared action still works.
	if err := sw.TableModify("t", h, "also_allowed", nil); err != nil {
		t.Fatal(err)
	}
}

func TestTableSetDefaultRejectsUndeclaredAction(t *testing.T) {
	sw := load(t, validationSrc)
	if err := sw.TableSetDefault("t", "undeclared", nil); err == nil {
		t.Fatal("TableSetDefault accepted an action the table does not declare")
	}
	if err := sw.TableSetDefault("t", "missing_entirely", nil); err == nil {
		t.Fatal("TableSetDefault accepted an unknown action")
	}
	if err := sw.TableSetDefault("t", "also_allowed", nil); err != nil {
		t.Fatal(err)
	}
}

// ternaryEgressSrc applies a ternary table in the egress pipeline, so the
// Table 4 accounting is exercised outside ingress.
const ternaryEgressSrc = `
header_type h_t { fields { a : 16; } }
header h_t h;
parser start { extract(h); return ingress; }
action fwd() { modify_field(standard_metadata.egress_spec, 1); }
table ig { actions { fwd; } }
action nop() { no_op(); }
table tern { reads { h.a : ternary; } actions { nop; } }
control ingress { apply(ig); }
control egress { apply(tern); }
`

func TestTraceTernaryEgress(t *testing.T) {
	sw := load(t, ternaryEgressSrc)
	if err := sw.TableSetDefault("ig", "fwd", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := sw.TableAdd("tern", "nop", []MatchParam{TernaryUint(16, 0xab00, 0xff0f)}, nil, 1); err != nil {
		t.Fatal(err)
	}
	_, tr, err := sw.Process([]byte{0xab, 0x00}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tr.TernaryMatches != 1 || tr.TernaryBitsTotal != 16 || tr.TernaryBitsActive != 12 {
		t.Errorf("egress ternary trace: matches=%d total=%d active=%d",
			tr.TernaryMatches, tr.TernaryBitsTotal, tr.TernaryBitsActive)
	}
	var egressApply *TableApply
	for i := range tr.ApplyLog {
		if tr.ApplyLog[i].Table == "tern" {
			egressApply = &tr.ApplyLog[i]
		}
	}
	if egressApply == nil || !egressApply.Egress || !egressApply.Hit {
		t.Errorf("apply log missing egress hit for tern: %+v", tr.ApplyLog)
	}
}

func TestTraceTernaryDefaultMiss(t *testing.T) {
	sw := load(t, ternaryEgressSrc)
	if err := sw.TableSetDefault("ig", "fwd", nil); err != nil {
		t.Fatal(err)
	}
	if err := sw.TableSetDefault("tern", "nop", nil); err != nil {
		t.Fatal(err)
	}
	// Entry that cannot match; the default action runs on the miss.
	if _, err := sw.TableAdd("tern", "nop", []MatchParam{TernaryUint(16, 0xffff, 0xffff)}, nil, 1); err != nil {
		t.Fatal(err)
	}
	_, tr, err := sw.Process([]byte{0x00, 0x01}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// A miss must not contribute to the Table 4 ternary columns, even though
	// the table has ternary reads and a default action ran.
	if tr.TernaryMatches != 0 || tr.TernaryBitsActive != 0 {
		t.Errorf("miss bumped ternary counters: matches=%d active=%d", tr.TernaryMatches, tr.TernaryBitsActive)
	}
	// Both applies missed: ig ran its default, tern ran its default.
	if tr.Misses != 2 || tr.Hits != 0 {
		t.Errorf("hits=%d misses=%d", tr.Hits, tr.Misses)
	}
	tc, err := sw.TableMetrics("tern")
	if err != nil {
		t.Fatal(err)
	}
	if tc.Misses != 1 || tc.Defaults != 1 || tc.Hits != 0 {
		t.Errorf("tern counters = %+v", tc)
	}
}
