package sim

import (
	"math/bits"
	"sort"
	"sync/atomic"
	"time"
)

// This file is the switch's metrics registry. Everything incremented on the
// packet path is a plain atomic counter owned by a structure that exists
// before the first packet arrives (tables, the action list, fixed histogram
// buckets), so recording a sample never allocates and never takes a lock —
// the same constraint the pooled packet state obeys (DESIGN.md §7, §8).

// latencyBuckets is the number of fixed histogram buckets. Bucket i counts
// packets with latency < 2^(minLatShift+i) ns; the last bucket is the
// +Inf overflow. With minLatShift 7 the bounds run 128ns .. ~17s, which spans
// everything from a native exact-match hit to a pathological recirculation
// storm.
const (
	latencyBuckets = 28
	minLatShift    = 7
)

// tableMetrics is the per-table counter block, embedded in table.
type tableMetrics struct {
	hits     atomic.Int64
	misses   atomic.Int64
	defaults atomic.Int64 // misses on which a configured default action ran
}

// switchMetrics is the registry half living on the Switch.
type switchMetrics struct {
	// passes counts pipeline passes by bmv2 instance type.
	passNormal      atomic.Int64
	passResubmit    atomic.Int64
	passRecirculate atomic.Int64
	passCloneI2E    atomic.Int64
	passCloneE2E    atomic.Int64

	// actionCounts is indexed by compiled action id; actionNames names
	// each id. Both are immutable after New.
	actionCounts []atomic.Int64
	actionNames  []string

	latCounts [latencyBuckets]atomic.Int64
	latSumNs  atomic.Int64
	latCount  atomic.Int64

	// Fault containment counters (fault.go): packets failed by kind, plus
	// passes dropped by quarantine enforcement.
	faultPanic     atomic.Int64
	faultPassBound atomic.Int64
	faultParse     atomic.Int64
	faultPipeline  atomic.Int64
	faultDeparse   atomic.Int64
	quarDrops      atomic.Int64
}

// recordFault counts one packet fault by kind.
func (m *switchMetrics) recordFault(kind FaultKind) {
	switch kind {
	case FaultPanic:
		m.faultPanic.Add(1)
	case FaultPassBound:
		m.faultPassBound.Add(1)
	case FaultParse:
		m.faultParse.Add(1)
	case FaultDeparse:
		m.faultDeparse.Add(1)
	default:
		m.faultPipeline.Add(1)
	}
}

func (m *switchMetrics) init(actions []*action) {
	m.actionCounts = make([]atomic.Int64, len(actions))
	m.actionNames = make([]string, len(actions))
	for _, a := range actions {
		m.actionNames[a.id] = a.name
	}
}

// recordLatency files the duration d of n packets into the histogram: one
// sample per packet, each of d/n, so _count stays the packet count and
// _sum the time spent. A Process call is n = 1; a ProcessSeq burst files
// its mean once per packet it ran.
func (m *switchMetrics) recordLatency(d time.Duration, n int) {
	ns := uint64(d.Nanoseconds())
	// bits.Len64(mean>>minLatShift) is 0 for a mean < 2^minLatShift, else
	// the position of the highest set bit above the shift.
	i := bits.Len64(ns / uint64(n) >> minLatShift)
	if i >= latencyBuckets {
		i = latencyBuckets - 1
	}
	m.latCounts[i].Add(int64(n))
	m.latSumNs.Add(int64(ns))
	m.latCount.Add(int64(n))
}

// recordPass counts one pipeline pass by instance type.
func (m *switchMetrics) recordPass(instanceType uint64) {
	switch instanceType {
	case instResubmit:
		m.passResubmit.Add(1)
	case instRecirculate:
		m.passRecirculate.Add(1)
	case instCloneI2E:
		m.passCloneI2E.Add(1)
	case instCloneE2E:
		m.passCloneE2E.Add(1)
	default:
		m.passNormal.Add(1)
	}
}

// --- snapshot types ---

// TableCounters is one table's lifetime match statistics.
type TableCounters struct {
	Hits     int64 // lookups that matched an installed entry
	Misses   int64 // lookups that matched nothing
	Defaults int64 // misses on which a configured default action ran
	Entries  int   // currently installed entries
}

// FaultCounters aggregates the fault-containment counters: packets failed by
// fault kind plus pipeline passes dropped by quarantine enforcement.
type FaultCounters struct {
	Panic           int64
	PassBound       int64
	Parse           int64
	Pipeline        int64
	Deparse         int64
	QuarantineDrops int64
}

// ByKind returns the per-kind fault counts keyed by FaultKind string (the
// exposition shape for Prometheus labels).
func (f FaultCounters) ByKind() map[FaultKind]int64 {
	return map[FaultKind]int64{
		FaultPanic:     f.Panic,
		FaultPassBound: f.PassBound,
		FaultParse:     f.Parse,
		FaultPipeline:  f.Pipeline,
		FaultDeparse:   f.Deparse,
	}
}

// Total is the lifetime packet-fault count across kinds.
func (f FaultCounters) Total() int64 {
	return f.Panic + f.PassBound + f.Parse + f.Pipeline + f.Deparse
}

// PassCounters splits pipeline passes by bmv2 instance type.
type PassCounters struct {
	Normal      int64
	Resubmit    int64
	Recirculate int64
	CloneI2E    int64
	CloneE2E    int64
}

// LatencyHistogram is a fixed-bucket histogram of per-packet wall time: a
// Process call's own, or the mean of the ProcessSeq burst the packet ran in.
// Counts[i] is the number of observations with duration < Bounds[i]; the
// last bucket is unbounded (Bounds holds latencyBuckets-1 finite bounds).
type LatencyHistogram struct {
	Bounds []time.Duration
	Counts []int64
	Count  int64
	SumNs  int64
}

// Quantile estimates the q-th latency quantile (0 < q <= 1) by linear
// interpolation within the winning bucket, the way Prometheus's
// histogram_quantile does. Returns 0 when the histogram is empty.
func (h LatencyHistogram) Quantile(q float64) time.Duration {
	if h.Count == 0 || q <= 0 {
		return 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(h.Count)
	var cum float64
	for i, c := range h.Counts {
		prev := cum
		cum += float64(c)
		if cum < rank || c == 0 {
			continue
		}
		lo := time.Duration(0)
		if i > 0 {
			lo = h.Bounds[i-1]
		}
		hi := 2 * lo
		if i < len(h.Bounds) {
			hi = h.Bounds[i]
		}
		return lo + time.Duration(float64(hi-lo)*(rank-prev)/float64(c))
	}
	return h.Bounds[len(h.Bounds)-1]
}

// LatencyBucketBounds returns the finite upper bounds of the latency
// histogram, ascending.
func LatencyBucketBounds() []time.Duration {
	out := make([]time.Duration, latencyBuckets-1)
	for i := range out {
		out[i] = time.Duration(1) << (minLatShift + i)
	}
	return out
}

// MetricsSnapshot is a point-in-time copy of every registry counter.
type MetricsSnapshot struct {
	Tables  map[string]TableCounters
	Actions map[string]int64 // action name -> invocation count
	Passes  PassCounters
	Faults  FaultCounters
	Latency LatencyHistogram
}

// Metrics snapshots the registry. Counters are read individually with atomic
// loads; a snapshot taken while packets are in flight is internally
// consistent per counter, not across counters — the standard scrape
// semantics of a live system.
func (sw *Switch) Metrics() MetricsSnapshot {
	sw.mu.RLock()
	defer sw.mu.RUnlock()
	snap := MetricsSnapshot{
		Tables:  make(map[string]TableCounters, len(sw.tables)),
		Actions: make(map[string]int64, len(sw.metrics.actionNames)),
		Passes: PassCounters{
			Normal:      sw.metrics.passNormal.Load(),
			Resubmit:    sw.metrics.passResubmit.Load(),
			Recirculate: sw.metrics.passRecirculate.Load(),
			CloneI2E:    sw.metrics.passCloneI2E.Load(),
			CloneE2E:    sw.metrics.passCloneE2E.Load(),
		},
		Faults: FaultCounters{
			Panic:           sw.metrics.faultPanic.Load(),
			PassBound:       sw.metrics.faultPassBound.Load(),
			Parse:           sw.metrics.faultParse.Load(),
			Pipeline:        sw.metrics.faultPipeline.Load(),
			Deparse:         sw.metrics.faultDeparse.Load(),
			QuarantineDrops: sw.metrics.quarDrops.Load(),
		},
	}
	for name, t := range sw.tables {
		snap.Tables[name] = TableCounters{
			Hits:     t.metrics.hits.Load(),
			Misses:   t.metrics.misses.Load(),
			Defaults: t.metrics.defaults.Load(),
			Entries:  len(t.entries),
		}
	}
	for i, name := range sw.metrics.actionNames {
		snap.Actions[name] = sw.metrics.actionCounts[i].Load()
	}
	snap.Latency.Bounds = LatencyBucketBounds()
	snap.Latency.Counts = make([]int64, latencyBuckets)
	for i := range sw.metrics.latCounts {
		snap.Latency.Counts[i] = sw.metrics.latCounts[i].Load()
	}
	snap.Latency.Count = sw.metrics.latCount.Load()
	snap.Latency.SumNs = sw.metrics.latSumNs.Load()
	return snap
}

// TableMetrics returns one table's counters.
func (sw *Switch) TableMetrics(name string) (TableCounters, error) {
	sw.mu.RLock()
	defer sw.mu.RUnlock()
	t, err := sw.table(name)
	if err != nil {
		return TableCounters{}, err
	}
	return TableCounters{
		Hits:     t.metrics.hits.Load(),
		Misses:   t.metrics.misses.Load(),
		Defaults: t.metrics.defaults.Load(),
		Entries:  len(t.entries),
	}, nil
}

// sortedNames returns map keys in sorted order (shared by exposition code).
func sortedNames[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
