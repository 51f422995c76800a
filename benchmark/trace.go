package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	pktio "hyper4/internal/runtime"
	"hyper4/internal/sim"
)

var runBase = time.Now()

// nowNs is the one clock of a run: nanoseconds since the process began.
func nowNs() int64 { return int64(time.Since(runBase)) }

// span is one traced interval. Spans of one frame share its sequence tag.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent string `json:"parent,omitempty"`
	Frame  int64  `json:"frame"` // sequence tag; -1 for spans not tied to a frame
}

// The stamps a traced frame collects on its way through the rig. Adjacent
// stamps bound the six wire segments, so per frame the segments sum to the
// wire latency by construction.
const (
	stSent      = iota // generator: about to put the frame on the wire
	stRecvRet          // port 1 transport: Recv returned
	stProcStart        // processor entered
	stProcEnd          // processor returned
	stSendStart        // port 2 transport: Send entered
	stSendEnd          // port 2 transport: Send returned
	stDelivered        // generator: frame read off the wire
	numStamps
)

var segmentNames = [numStamps - 1]string{
	"runtime.rx_wire", "runtime.ring_rx_wait", "sim.process",
	"runtime.ring_tx_wait", "runtime.tx_send", "runtime.tx_wire",
}

// maxSpanFrames bounds how many frames keep their spans for the trace file;
// every sampled frame still feeds the segment statistics.
const maxSpanFrames = 2048

// tracer collects the stamps of sampled frames (one in `stride`), keyed by
// sequence tag. Stamps are written by five different goroutines, hence the
// atomics; the receiver folds a finished frame into the statistics.
type tracer struct {
	stride atomic.Uint32
	stamps [slots][numStamps]atomic.Int64

	// Receiver-owned until the phase that filled them has been drained.
	cur    phaseStats
	name   string // the open phase; "" between phases
	gaps   int64  // sampled frames whose stamps were not in order
	spans  []span
	frames int // frames of this phase that kept their spans
	phase  map[string]phaseStats

	// Counted by the processor wrapper.
	pkts, fast atomic.Int64
}

// phaseStats is what the sampled frames of one phase measured.
type phaseStats struct {
	segNs  [numStamps - 1][]float64
	wireUs []float64
	// worstSumErr is the largest per-frame difference between the sum of the
	// six segments and the wire latency; zero by construction.
	worstSumErr float64
}

func newTracer() *tracer {
	t := &tracer{phase: map[string]phaseStats{}}
	t.stride.Store(1)
	return t
}

func (t *tracer) sampled(seq uint32) bool { return seq%t.stride.Load() == 0 }

func (t *tracer) stamp(seq uint32, which int, now int64) {
	if t.sampled(seq) {
		t.stamps[seq%slots][which].Store(now)
	}
}

// delivered closes a frame's trace. Called by the generator's receiver.
func (t *tracer) delivered(seq uint32, now int64) {
	if !t.sampled(seq) || t.name == "" {
		return
	}
	row := &t.stamps[seq%slots]
	row[stDelivered].Store(now)
	var at [numStamps]int64
	for i := range at {
		at[i] = row[i].Load()
		// The wire can deliver a frame before the transport's Send has
		// returned (or has stamped its return): Send then ends, for this
		// frame, at the delivery, and nothing is left for tx_wire.
		if i == stSendEnd && (at[i] < at[i-1] || at[i] > now) {
			at[i] = now
		}
		if i > 0 && at[i] < at[i-1] {
			t.gaps++
			return
		}
	}
	sum := 0.0
	for i := range t.cur.segNs {
		seg := float64(at[i+1] - at[i])
		t.cur.segNs[i] = append(t.cur.segNs[i], seg)
		sum += seg
	}
	wire := float64(at[stDelivered] - at[stSent])
	t.cur.wireUs = append(t.cur.wireUs, wire/1e3)
	t.cur.worstSumErr = max(t.cur.worstSumErr, math.Abs(sum-wire))
	if t.frames < maxSpanFrames {
		t.frames++
		t.spans = append(t.spans, span{Name: "wire", Start: at[stSent], End: at[stDelivered], Frame: int64(seq)})
		for i, name := range segmentNames {
			t.spans = append(t.spans, span{Name: name, Start: at[i], End: at[i+1], Parent: "wire", Frame: int64(seq)})
		}
	}
}

// open files the statistics of the phase that just drained under its name
// (slices of one phase add up) and starts the next, sampling one frame in
// stride; spans accumulate across phases. Only between phases, when no frame
// is in flight.
func (t *tracer) open(name string, stride uint32) {
	if t.name != "" {
		sum := t.phase[t.name]
		for i := range sum.segNs {
			sum.segNs[i] = append(sum.segNs[i], t.cur.segNs[i]...)
		}
		sum.wireUs = append(sum.wireUs, t.cur.wireUs...)
		sum.worstSumErr = max(sum.worstSumErr, t.cur.worstSumErr)
		t.phase[t.name] = sum
	}
	t.name, t.cur, t.frames = name, phaseStats{}, 0
	t.stride.Store(stride)
}

// tracedWire stamps a transport's Recv return and Send entry/exit. It wraps
// the public runtime.Transport interface and nothing else.
type tracedWire struct {
	inner pktio.Transport
	tr    *tracer
}

func (w *tracedWire) Recv(f *pktio.Frame) error {
	err := w.inner.Recv(f)
	if err == nil && len(f.Data) >= tagLen {
		w.tr.stamp(getTag(f.Data), stRecvRet, nowNs())
	}
	return err
}

func (w *tracedWire) Send(f pktio.Frame) error {
	if len(f.Data) < tagLen {
		return w.inner.Send(f)
	}
	seq := getTag(f.Data)
	w.tr.stamp(seq, stSendStart, nowNs())
	err := w.inner.Send(f)
	w.tr.stamp(seq, stSendEnd, nowNs())
	return err
}

func (w *tracedWire) Close() error { return w.inner.Close() }

// CloseRecv keeps the two-phase shutdown of the wrapped transport, so a
// traced runtime drains exactly like an untraced one.
func (w *tracedWire) CloseRecv() error {
	if rc, ok := w.inner.(pktio.RecvCloser); ok {
		return rc.CloseRecv()
	}
	return w.inner.Close()
}

// tracedProcessor stamps entry and exit of the processor per frame and
// counts which frames the fused fast path took (a fused packet's trace
// records no table applies; an interpreted one always does). It implements
// ProcessSeq like *sim.Switch, so the runtime drives the traced processor
// down the same batch path as the untraced one.
type tracedProcessor struct {
	inner pktio.Processor
	tr    *tracer
}

func (p *tracedProcessor) Process(data []byte, port int) ([]sim.Output, *sim.Trace, error) {
	if len(data) < tagLen {
		return p.inner.Process(data, port)
	}
	seq := getTag(data)
	p.tr.stamp(seq, stProcStart, nowNs())
	outs, trace, err := p.inner.Process(data, port)
	p.tr.stamp(seq, stProcEnd, nowNs())
	p.tr.pkts.Add(1)
	if trace != nil && trace.Applies == 0 {
		p.tr.fast.Add(1)
	}
	return outs, trace, err
}

func (p *tracedProcessor) ProcessSeq(pkts []sim.Input, results []sim.Result) error {
	var first error
	for i := range pkts {
		results[i].Outputs, results[i].Trace, results[i].Err = p.Process(pkts[i].Data, pkts[i].Port)
		if first == nil {
			first = results[i].Err
		}
	}
	return first
}

// traceFile is what a traced run leaves in <out>/trace-<workload>.json.
type traceFile struct {
	Workload string      `json:"workload"`
	Env      environment `json:"env"`
	Spans    []span      `json:"spans"`
}

func writeTrace(dir string, tf traceFile) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+tf.Workload+".json")
	data, err := json.Marshal(tf)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
