package main

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"hyper4/internal/core/ctl"
	"hyper4/internal/core/dpmu"
	"hyper4/internal/core/persona"
	"hyper4/internal/p4/hlir"
	"hyper4/internal/sim"
	simrt "hyper4/internal/sim/runtime"
)

const owner = "bench"

// installed is one entry a batch added, as the later table_delete names it.
type installed struct {
	vdev, table string
	handle      int
}

// controlPlane is the management surface of a measured switch: ctl with a
// journal on a persona switch, the bmv2-style CLI on a native one.
type controlPlane interface {
	// write applies one batch — the adds, then the deletes — and returns
	// what the adds installed. The call returns when the switch acks.
	write(id string, adds []entry, dels []installed) ([]installed, error)
	// recover rebuilds a fresh switch from what the live one made durable
	// and checks that its control state equals the live switch's. It
	// returns the time the rebuild took and the batches it replayed.
	recover() (time.Duration, int, error)
	// walBytes is the current size of the write-ahead log (0 without one).
	walBytes() int64
	close()
}

func tableOf(line string) string { return strings.Fields(line)[1] }

// personaControl drives a persona switch through ctl, every line parsed by
// ctl.ParseLine exactly as hp4switch parses its -commands script.
type personaControl struct {
	cp      *ctl.Ctl
	d       *dpmu.DPMU
	journal *ctl.Journal // nil on a journal-less twin
	dir     string
	pers    *persona.Persona // for the switches recover builds
}

func parseLines(lines []string) ([]ctl.Op, error) {
	ops := make([]ctl.Op, 0, len(lines))
	for _, line := range lines {
		op, _, err := ctl.ParseLine(line)
		if err != nil {
			return nil, fmt.Errorf("%q: %w", line, err)
		}
		if op == nil {
			return nil, fmt.Errorf("%q: not a write", line)
		}
		ops = append(ops, *op)
	}
	return ops, nil
}

func (c *personaControl) write(id string, adds []entry, dels []installed) ([]installed, error) {
	lines := make([]string, 0, len(adds)+len(dels))
	for _, e := range adds {
		lines = append(lines, e.vdev+" "+e.line)
	}
	for _, in := range dels {
		lines = append(lines, fmt.Sprintf("%s table_delete %s %d", in.vdev, in.table, in.handle))
	}
	ops, err := parseLines(lines)
	if err != nil {
		return nil, err
	}
	results, err := c.cp.WriteBatchID(owner, id, ops)
	if err != nil {
		return nil, err
	}
	out := make([]installed, len(adds))
	for i, e := range adds {
		out[i] = installed{e.vdev, tableOf(e.line), results[i].Handle}
	}
	return out, nil
}

func (c *personaControl) recover() (time.Duration, int, error) {
	if err := c.journal.Close(); err != nil {
		return 0, 0, fmt.Errorf("closing the live journal: %w", err)
	}
	live, err := c.d.DumpControl()
	if err != nil {
		return 0, 0, err
	}
	_, d, err := newPersonaSwitch(c.pers)
	if err != nil {
		return 0, 0, err
	}
	fresh := ctl.New(d)
	defer fresh.Close()
	start := time.Now()
	j, err := ctl.OpenJournal(c.dir, ctl.DefaultSnapshotEvery)
	if err != nil {
		return 0, 0, err
	}
	sum, err := fresh.AttachJournal(j)
	took := time.Since(start)
	if err != nil {
		return 0, 0, fmt.Errorf("recovery: %w", err)
	}
	if err := j.Close(); err != nil {
		return 0, 0, err
	}
	if len(sum.Warnings) > 0 || sum.Truncated {
		return 0, 0, fmt.Errorf("recovery diverged: truncated=%v warnings=%v", sum.Truncated, sum.Warnings)
	}
	recovered, err := d.DumpControl()
	if err != nil {
		return 0, 0, err
	}
	if recovered != live {
		return 0, 0, fmt.Errorf("recovered control state differs from the live switch's (%d vs %d bytes of dump)", len(recovered), len(live))
	}
	return took, sum.Replayed, nil
}

func (c *personaControl) walBytes() int64 {
	st, err := os.Stat(filepath.Join(c.dir, "wal.log"))
	if err != nil {
		return 0
	}
	return st.Size()
}

func (c *personaControl) close() {
	c.cp.Close()
	if c.journal != nil {
		_ = c.journal.Close() // reads are done; a second Close is a no-op
		os.RemoveAll(c.dir)
	}
}

// nativeControl drives a native switch through the bmv2-style CLI. Native
// mode has no journal: what is durable is the command script itself, so
// recovery is re-executing every command the switch acked.
type nativeControl struct {
	sw   *sim.Switch
	cli  *simrt.Runtime
	prog *hlir.Program
	log  []string
}

func (c *nativeControl) exec(line string) (string, error) {
	out, err := c.cli.Exec(line)
	if err == nil {
		c.log = append(c.log, line)
	}
	return out, err
}

func (c *nativeControl) write(_ string, adds []entry, dels []installed) ([]installed, error) {
	out := make([]installed, len(adds))
	for i, e := range adds {
		res, err := c.exec(e.line)
		if err != nil {
			return nil, err
		}
		h, err := strconv.Atoi(strings.TrimPrefix(res, "handle "))
		if err != nil {
			return nil, fmt.Errorf("table_add answered %q", res)
		}
		out[i] = installed{"", tableOf(e.line), h}
	}
	for _, in := range dels {
		if _, err := c.exec(fmt.Sprintf("table_delete %s %d", in.table, in.handle)); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func controlDump(sw *sim.Switch) *sim.SwitchDump {
	d := sw.Dump()
	for _, t := range d.Tables {
		for i := range t.Entries {
			t.Entries[i].Hits = 0
		}
	}
	return d
}

func (c *nativeControl) recover() (time.Duration, int, error) {
	sw, err := sim.New("recovered", c.prog)
	if err != nil {
		return 0, 0, err
	}
	start := time.Now()
	err = simrt.New(sw).ExecAll(strings.Join(c.log, "\n"))
	took := time.Since(start)
	if err != nil {
		return 0, 0, fmt.Errorf("recovery: %w", err)
	}
	if !reflect.DeepEqual(controlDump(sw), controlDump(c.sw)) {
		return 0, 0, fmt.Errorf("recovered control state differs from the live switch's")
	}
	return took, len(c.log), nil
}

func (c *nativeControl) walBytes() int64 { return 0 }
func (c *nativeControl) close()          {}

// controlResult is what the control phase measured, over all its slices.
type controlResult struct {
	batches   int
	failed    int       // batches that errored, or acked more than 1 s after they were due
	writeMs   []float64 // due → ack
	lateMs    []float64 // due → the controller actually started the batch
	walBytes  []float64 // log growth per batch (traced runs)
	firstFail error
}

// controller is the one writer of a control phase. Batch i adds
// churnEntries(i) and deletes what batch i-1 added, so the table size stays
// put; the numbering carries over from one slice of the phase to the next.
type controller struct {
	cp      controlPlane
	w       *workload
	withWAL bool // also record log growth

	next int
	prev []installed
	res  controlResult
}

// run issues paced batches until stop is set: the k-th batch of this slice
// is due at start + k/churnRate. Latency is taken from the due time, so a
// stall delays — and is charged to — every batch queued behind it.
func (c *controller) run(stop *atomic.Bool) {
	period := time.Second / time.Duration(c.w.churnRate)
	start := time.Now()
	for k := 0; !stop.Load(); k++ {
		due := start.Add(time.Duration(k) * period)
		// The controller sleeps, as a real one would. An idle Go process wakes
		// a sleeper ~0.6 ms late (the netpoller waits in whole milliseconds),
		// and that is part of due → ack; lateMs says how much of it. Spinning
		// up to the due time instead takes it out, but what is left of a
		// native batch (~0.04 ms, every cache cold) spreads 17–37 % from run
		// to run on this runner.
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
			if stop.Load() {
				return
			}
		}
		c.batch(due)
	}
}

// batch issues the next batch, which was due at due, and records it.
func (c *controller) batch(due time.Time) {
	began := time.Now()
	var wal0 int64
	if c.withWAL {
		wal0 = c.cp.walBytes()
	}
	added, err := c.cp.write(fmt.Sprintf("%s-%d", c.w.name, c.next), c.w.churnEntries(c.next), c.prev)
	acked := time.Now()
	c.next++
	c.res.batches++
	if err != nil {
		c.res.failed++
		if c.res.firstFail == nil {
			c.res.firstFail = fmt.Errorf("batch %d: %w", c.next-1, err)
		}
		return // prev stays: the rolled-back batch deleted nothing
	}
	if acked.Sub(due) > time.Second {
		c.res.failed++
	}
	c.prev = added
	c.res.writeMs = append(c.res.writeMs, float64(acked.Sub(due))/1e6)
	c.res.lateMs = append(c.res.lateMs, float64(began.Sub(due))/1e6)
	if grew := c.cp.walBytes() - wal0; c.withWAL && grew > 0 {
		c.res.walBytes = append(c.res.walBytes, float64(grew))
	}
}

// start runs a slice on its own goroutine; the returned function stops it
// and waits for the batch in progress.
func (c *controller) start() (finish func()) {
	var stop atomic.Bool
	done := make(chan struct{})
	go func() { defer close(done); c.run(&stop) }()
	return func() { stop.Store(true); <-done }
}
