package dpmu

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"hyper4/internal/bitfield"
	"hyper4/internal/functions"
	"hyper4/internal/p4/ast"
	"hyper4/internal/sim"
)

// TestPriorityRangeFitsBand pins the reason caller priorities stop at
// sim.MaxPriority: a replica row's priority is its path base plus the
// caller's priority plus Σ(width − prefix) over LPM reads, and for every
// builtin table that sum stays below the slot's catch-all, so no accepted
// priority loses to its own miss row or crosses into the next path band.
func TestPriorityRangeFitsBand(t *testing.T) {
	for _, fn := range functions.Names() {
		prog, err := functions.Load(fn)
		if err != nil {
			t.Fatal(err)
		}
		for name := range prog.Tables {
			reads, err := sim.TableReads(prog, name)
			if err != nil {
				t.Fatal(err)
			}
			lpm := 0
			for _, r := range reads {
				if r.Kind == ast.MatchLPM {
					lpm += r.Width
				}
			}
			if sim.MaxPriority+lpm >= catchAllOff {
				t.Errorf("%s.%s: MaxPriority %d + LPM widths %d reaches the catch-all at %d", fn, name, sim.MaxPriority, lpm, catchAllOff)
			}
		}
	}
}

// admissionTarget is one builtin loaded as a vdev beside a native switch of
// the same program, with its tables and declared actions sorted so fuzz
// bytes index them.
type admissionTarget struct {
	native  *sim.Switch
	vdev    string
	tables  []string
	actions []string
}

// admissionSeed names one FuzzEntryAdmission input: kinds holds three bits
// per read (0–4 pick exact, ternary, LPM, range or valid; 5–7 keep the
// read's own kind), deltas one byte per read (its width offset), and shape
// adds (1) or drops (2) one action arg in bits 0–1 and one match param in
// bits 2–3. An unknown table or action name indexes past the sorted list.
type admissionSeed struct {
	fn, table, action string
	kinds, deltas     uint32
	shape             uint8
	priority          int
}

var matchKinds = []ast.MatchKind{ast.MatchExact, ast.MatchTernary, ast.MatchLPM, ast.MatchRange, ast.MatchValid}

// FuzzEntryAdmission draws entry specs for the four builtins — any declared
// table and action, random match kinds, key widths within ±16 bits of the
// read's, arg and param counts one off, priorities from the whole int range
// — and holds the DPMU to native admission: it accepts an entry iff native
// sim.TableAdd does and the priority is in [0, sim.MaxPriority].
func FuzzEntryAdmission(f *testing.F) {
	d := newPersonaDPMU(f)
	targets := make([]admissionTarget, len(functions.Names()))
	for i, fn := range functions.Names() {
		native, err := functions.NewSwitch("native", fn)
		if err != nil {
			f.Fatal(err)
		}
		if _, err := d.Load(fn, compileFn(f, fn), "fz", 0); err != nil {
			f.Fatal(err)
		}
		prog := native.Program()
		tg := admissionTarget{native: native, vdev: fn}
		for name := range prog.Tables {
			tg.tables = append(tg.tables, name)
		}
		for name := range prog.Actions {
			tg.actions = append(tg.actions, name)
		}
		sort.Strings(tg.tables)
		sort.Strings(tg.actions)
		targets[i] = tg
	}
	index := func(names []string, name string) uint8 {
		if i := slices.Index(names, name); i >= 0 {
			return uint8(i)
		}
		return uint8(len(names))
	}
	const own = ^uint32(0) // every read keeps its kind
	for _, s := range []admissionSeed{
		{fn: functions.L2Switch, table: "dmac", action: "forward", kinds: own},
		{fn: functions.L2Switch, table: "smac", action: "forward", kinds: own},
		{fn: functions.L2Switch, table: "dmac", action: "forward", kinds: own, deltas: 0xf0}, // 32-bit key
		{fn: functions.L2Switch, table: "dmac", action: "forward", kinds: own, deltas: 0x10}, // 64-bit key
		{fn: functions.Firewall, table: "tcp_filter", action: "_drop", kinds: own &^ 0o77},   // exact, exact
		{fn: functions.L2Switch, table: "dmac", action: "forward", kinds: own, shape: 1 << 2},
		{fn: functions.L2Switch, table: "dmac", action: "forward", kinds: own, shape: 1},
		{fn: functions.L2Switch, table: "dmac", action: "ghost", kinds: own},
		{fn: functions.L2Switch, table: "ghost", action: "forward", kinds: own},
		{fn: functions.Firewall, table: "tcp_filter", action: "_drop", kinds: own, priority: -5},
		{fn: functions.Firewall, table: "tcp_filter", action: "_drop", kinds: own, priority: 99_995},
		{fn: functions.Firewall, table: "tcp_filter", action: "_drop", kinds: own, priority: 100_001},
		{fn: functions.Firewall, table: "tcp_filter", action: "_drop", kinds: own, priority: 250_000},
		{fn: functions.Firewall, table: "tcp_filter", action: "_drop", kinds: own, priority: 1},
		{fn: functions.Firewall, table: "tcp_filter", action: "_drop", kinds: own, priority: sim.MaxPriority},
		{fn: functions.Router, table: "ipv4_lpm", action: "set_nhop", kinds: own, priority: 7},
	} {
		fi := uint8(slices.Index(functions.Names(), s.fn))
		tg := targets[fi]
		f.Add(fi, index(tg.tables, s.table), index(tg.actions, s.action), s.shape, s.kinds, s.deltas, s.priority, int64(1))
	}
	f.Fuzz(func(t *testing.T, fn, table, action, shape uint8, kinds, deltas uint32, priority int, seed int64) {
		tg := targets[int(fn)%len(targets)]
		prog := tg.native.Program()
		spec := EntrySpec{Table: "ghost", Action: "ghost", Priority: priority}
		if int(table) < len(tg.tables) {
			spec.Table = tg.tables[table]
		}
		if int(action) < len(tg.actions) {
			spec.Action = tg.actions[action]
		}
		rng := rand.New(rand.NewSource(seed))
		value := func(w int) bitfield.Value {
			b := make([]byte, (w+7)/8)
			rng.Read(b)
			return bitfield.FromBytes(w, b)
		}
		reads, _ := sim.TableReads(prog, spec.Table)
		for i, r := range reads {
			kind := r.Kind
			if k := kinds >> (3 * i) & 7; k < 5 {
				kind = matchKinds[k]
			}
			w := max(1, r.Width+int(int8(deltas>>(8*i)))%17)
			p := sim.MatchParam{Kind: kind, Value: value(w)}
			switch kind {
			case ast.MatchTernary:
				p.Mask = value(w)
			case ast.MatchLPM:
				p.PrefixLen = rng.Intn(w + 1)
			case ast.MatchRange:
				p.Hi = value(w)
			case ast.MatchValid:
				p.Value, p.ValidWant = bitfield.Value{}, rng.Intn(2) == 1
			}
			spec.Params = append(spec.Params, p)
		}
		nargs, _ := sim.ActionArity(prog, spec.Action)
		for range nargs {
			spec.Args = append(spec.Args, value(9))
		}
		spec.Params, spec.Args = offByOne(spec.Params, shape>>2&3), offByOne(spec.Args, shape&3)

		nh, nerr := tg.native.TableAdd(spec.Table, spec.Action, spec.Params, spec.Args, spec.Priority)
		if nerr == nil {
			if err := tg.native.TableDelete(spec.Table, nh); err != nil {
				t.Fatal(err)
			}
		}
		dh, derr := d.TableAdd("fz", tg.vdev, spec)
		if derr == nil {
			if err := d.TableDelete("fz", tg.vdev, spec.Table, dh); err != nil {
				t.Fatal(err)
			}
		}
		want := nerr == nil && sim.CheckPriority(spec.Priority) == nil
		if (derr == nil) != want {
			t.Fatalf("%s %s %s priority %d: dpmu err %v, native err %v", tg.vdev, spec.Table, spec.Action, spec.Priority, derr, nerr)
		}
	})
}

// offByOne adds a copy of the last element (op 1) or drops it (op 2).
func offByOne[T any](s []T, op uint8) []T {
	switch {
	case op == 1 && len(s) > 0:
		return append(s, s[len(s)-1])
	case op == 2 && len(s) > 0:
		return s[:len(s)-1]
	}
	return s
}
