package main

import (
	"bytes"
	"fmt"
	"os"
	"strings"

	"hyper4/internal/core/ctl"
	"hyper4/internal/core/dpmu"
	"hyper4/internal/core/hp4c"
	"hyper4/internal/core/persona"
	"hyper4/internal/functions"
	pktio "hyper4/internal/runtime"
	"hyper4/internal/sim"
	simrt "hyper4/internal/sim/runtime"
)

// stopwatch cuts one stretch of wall time into contiguous named spans, so
// the spans sum to the stretch by construction.
type stopwatch struct {
	parent string
	last   int64
	spans  []span
}

func newStopwatch(parent string) *stopwatch { return &stopwatch{parent: parent, last: nowNs()} }

func (s *stopwatch) lap(name string) {
	now := nowNs()
	s.spans = append(s.spans, span{Name: name, Start: s.last, End: now, Parent: s.parent, Frame: -1})
	s.last = now
}

// spanMs sums the spans of one name, in milliseconds.
func spanMs(spans []span, name string) float64 {
	var ns int64
	for _, sp := range spans {
		if sp.Name == name {
			ns += sp.End - sp.Start
		}
	}
	return float64(ns) / 1e6
}

func newPersonaSwitch(p *persona.Persona) (*sim.Switch, *dpmu.DPMU, error) {
	sw, err := sim.New("s", p.Program)
	if err != nil {
		return nil, nil, err
	}
	d, err := dpmu.New(sw, p)
	return sw, d, err
}

// populationLines is the persona population as a -commands script: entries,
// then wiring, optionally preceded by the loads.
func (w *workload) populationLines(withLoads bool) []string {
	var lines []string
	if withLoads {
		for _, v := range w.vdevs {
			lines = append(lines, "load "+v.name+" "+v.function)
		}
	}
	for _, e := range w.entries {
		lines = append(lines, e.vdev+" "+e.line)
	}
	return append(lines, w.wiring...)
}

// rig is a measured switch with its control plane, and — while attached —
// the I/O runtime, wires and load generator around it.
type rig struct {
	w    *workload
	sw   *sim.Switch
	d    *dpmu.DPMU // nil on a native switch
	cp   controlPlane
	proc pktio.Processor

	rt  *pktio.Runtime
	gen *generator

	spans  []span  // the set-up, cut into contiguous spans
	setupS float64 // cold start → first forwarded frame
}

// setUp is the cold start the way hp4switch does it — persona mode: generate
// the persona, build switch and DPMU, open the journal, run the population
// script through ctl (which parses each P4 program, compiles it and loads
// it), fuse, attach; native mode: parse the program, build the switch, run
// the population script through the CLI, attach — up to the first forwarded
// frame. pers is only for the switches recovery builds later.
func setUp(w *workload, bufs, expect [][]byte, pers *persona.Persona, tmp string) (*rig, error) {
	r := &rig{w: w}
	clock := newStopwatch("setup")
	begin := clock.last
	if w.native {
		prog, err := functions.Load(w.nativeFn)
		if err != nil {
			return nil, err
		}
		clock.lap("p4.parse")
		if r.sw, err = sim.New("s", prog); err != nil {
			return nil, err
		}
		clock.lap("sim.new")
		nc := &nativeControl{sw: r.sw, cli: simrt.New(r.sw), prog: prog}
		for _, line := range w.nativeEntries {
			if _, err := nc.exec(line); err != nil {
				return nil, fmt.Errorf("%q: %w", line, err)
			}
		}
		r.cp = nc
		clock.lap("ctl.populate")
	} else {
		p, err := persona.Generate(persona.Reference)
		if err != nil {
			return nil, err
		}
		clock.lap("persona.gen")
		if r.sw, r.d, err = newPersonaSwitch(p); err != nil {
			return nil, err
		}
		clock.lap("dpmu.new")
		dir, err := os.MkdirTemp(tmp, "journal-")
		if err != nil {
			return nil, err
		}
		pc := &personaControl{cp: ctl.New(r.d), d: r.d, dir: dir, pers: pers}
		r.cp = pc
		if pc.journal, err = ctl.OpenJournal(dir, ctl.DefaultSnapshotEvery); err != nil {
			r.close()
			return nil, err
		}
		if _, err := pc.cp.AttachJournal(pc.journal); err != nil {
			r.close()
			return nil, err
		}
		clock.lap("ctl.journal_open")
		ops, err := parseLines(w.populationLines(true))
		if err == nil {
			_, err = pc.cp.WriteBatch(owner, ops)
		}
		if err != nil {
			r.close()
			return nil, fmt.Errorf("population: %w", err)
		}
		clock.lap("ctl.populate")
		r.d.SetFusion(true)
		clock.lap("fuse.enable")
	}
	r.proc = r.sw
	if err := r.attach(bufs, expect, nil); err != nil {
		r.close()
		return nil, err
	}
	clock.lap("runtime.attach")
	first := 0
	for expect[first] == nil {
		first++
	}
	if err := r.gen.one(first); err != nil {
		r.close()
		return nil, fmt.Errorf("first frame: %w", err)
	}
	clock.lap("runtime.first_frame")
	r.spans = clock.spans
	r.setupS = float64(clock.last-begin) / 1e9
	return r, nil
}

// attach puts the rig's switch behind a fresh I/O runtime with one worker
// and lossy rings, as on a real wire. With a tracer, both transports and the
// processor are wrapped in the benchmark's stamping types.
func (r *rig) attach(bufs, expect [][]byte, tr *tracer) error {
	w := newChanWires()
	if r.w.udp {
		var err error
		if w, err = newUDPWires(); err != nil {
			return err
		}
	}
	proc, port1, port2 := r.proc, w.port1, w.port2
	if tr != nil {
		proc = &tracedProcessor{inner: proc, tr: tr}
		port1, port2 = &tracedWire{port1, tr}, &tracedWire{port2, tr}
	}
	r.rt = pktio.New(proc, pktio.Config{Workers: 1, RingSize: 1024})
	r.rt.Start()
	r.gen = newGenerator(w, bufs, expect, tr)
	if err := r.rt.Attach(1, port1); err != nil {
		r.detach()
		return err
	}
	if err := r.rt.Attach(2, port2); err != nil {
		r.detach()
		return err
	}
	return nil
}

// detach drains and closes the runtime (which closes the switch side of the
// wires), then the generator's side.
func (r *rig) detach() {
	if r.rt != nil {
		r.rt.Close()
		r.gen.close()
		r.rt, r.gen = nil, nil
	}
}

func (r *rig) close() {
	r.detach()
	if r.cp != nil {
		r.cp.close()
	}
}

// twins are the reference switches every pool frame is run through before
// anything is timed: the native program, and the persona interpreted and
// fused. They are built by direct calls into each layer, which is also where
// the per-layer set-up costs are read.
type twins struct {
	native, interp, fused *sim.Switch
	fusedD                *dpmu.DPMU
	fusedCtl              *personaControl // journal-less
	pers                  *persona.Persona

	spans   []span // direct-call costs of building the fused twin
	entries int    // persona rows its population installed
}

func buildTwins(w *workload) (*twins, error) {
	t := &twins{}
	prog, err := functions.Load(w.nativeFn)
	if err != nil {
		return nil, err
	}
	if t.native, err = sim.New("native", prog); err != nil {
		return nil, err
	}
	if err := simrt.New(t.native).ExecAll(strings.Join(w.nativeEntries, "\n")); err != nil {
		return nil, fmt.Errorf("native population: %w", err)
	}
	if t.pers, err = persona.Generate(persona.Reference); err != nil {
		return nil, err
	}
	interp, _, err := buildPersonaTwin(w, t.pers, newStopwatch("twin"))
	if err != nil {
		return nil, err
	}
	interp.cp.Close()
	t.interp = interp.d.SW
	clock := newStopwatch("twin")
	if t.fusedCtl, t.entries, err = buildPersonaTwin(w, t.pers, clock); err != nil {
		return nil, err
	}
	t.fused, t.fusedD = t.fusedCtl.d.SW, t.fusedCtl.d
	t.fusedD.SetFusion(true)
	clock.lap("fuse.enable")
	t.spans = clock.spans
	return t, nil
}

// buildPersonaTwin loads and populates a persona switch layer by layer:
// parse, compile, dpmu.Load, then the population batch through a
// journal-less ctl. It also returns the persona rows all that installed.
func buildPersonaTwin(w *workload, pers *persona.Persona, clock *stopwatch) (*personaControl, int, error) {
	sw, d, err := newPersonaSwitch(pers)
	if err != nil {
		return nil, 0, err
	}
	clock.lap("dpmu.new")
	base := rowCount(sw)
	for _, v := range w.vdevs {
		prog, err := functions.Load(v.function)
		if err != nil {
			return nil, 0, err
		}
		clock.lap("p4.parse")
		comp, err := hp4c.Compile(prog, persona.Reference)
		if err != nil {
			return nil, 0, err
		}
		clock.lap("hp4c.compile")
		if _, err := d.Load(v.name, comp, owner, 0); err != nil {
			return nil, 0, err
		}
		clock.lap("dpmu.load")
	}
	cp := ctl.New(d)
	ops, err := parseLines(w.populationLines(false))
	if err == nil {
		_, err = cp.WriteBatch(owner, ops)
	}
	if err != nil {
		return nil, 0, fmt.Errorf("twin population: %w", err)
	}
	clock.lap("dpmu.load")
	return &personaControl{cp: cp, d: d}, rowCount(sw) - base, nil
}

func (t *twins) close() { t.fusedCtl.close() }

func rowCount(sw *sim.Switch) int {
	n := 0
	for _, name := range sw.TableNames() {
		c, _ := sw.TableEntryCount(name) // name comes from the switch itself
		n += c
	}
	return n
}

// agree runs every pool frame through the switches and refuses unless all
// of them emit the same thing: at most one frame, out of port 2, with equal
// bytes. It returns what each pool frame must become (nil = dropped).
func agree(pool [][]byte, names []string, switches []*sim.Switch) ([][]byte, error) {
	expect := make([][]byte, len(pool))
	for i, frame := range pool {
		for k, sw := range switches {
			outs, _, err := sw.Process(append([]byte(nil), frame...), 1)
			if err != nil {
				return nil, fmt.Errorf("pool frame %d on %s: %w", i, names[k], err)
			}
			if len(outs) > 1 || (len(outs) == 1 && outs[0].Port != 2) {
				return nil, fmt.Errorf("pool frame %d on %s: want at most one frame out of port 2, got %v", i, names[k], outs)
			}
			var got []byte
			if len(outs) == 1 {
				got = outs[0].Data
			}
			if k == 0 {
				expect[i] = got
			} else if (got == nil) != (expect[i] == nil) || !bytes.Equal(got, expect[i]) {
				return nil, fmt.Errorf("pool frame %d: %s and %s disagree (%d vs %d bytes out)", i, names[0], names[k], len(expect[i]), len(got))
			}
		}
	}
	forwarded := 0
	for _, e := range expect {
		if e != nil {
			forwarded++
		}
	}
	if forwarded == 0 {
		return nil, fmt.Errorf("the reference forwards no pool frame")
	}
	return expect, nil
}
