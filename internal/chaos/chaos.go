// Package chaos provides deterministic, seeded fault injectors for the sim
// switch. An Injector implements sim.Injector and decides per call site
// whether to misbehave: panic inside an action, force a table-lookup miss,
// tighten the pipeline-pass budget, or sleep. Decisions are derived from a
// seed hashed with a per-site call counter (splitmix64), so a given spec
// replays the same fault schedule on every serial run, and under concurrent
// drivers the *count* of injected faults is still exact — "panic on the
// first K matching calls" means exactly K panics no matter the
// interleaving.
//
// The zero Spec injects nothing; attaching such an injector still exercises
// the hook overhead (within noise of no injector: EXPERIMENTS.md, "Retired
// throughput rows").
package chaos

import (
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// Spec configures an Injector. All rates are "every Nth matching call,
// jittered by the seed" (0 disables that fault class); Attr restricts
// injection to passes attributed to one program ID so a single tenant can be
// targeted on a shared switch.
type Spec struct {
	Seed int64  // schedule seed (0 is a valid seed)
	Attr uint64 // only inject when the pass is attributed to this value; 0 = any

	PanicEvery  int    // panic on ~every Nth matching action call
	PanicFirst  int    // cap on total injected panics (0 = unlimited)
	PanicAction string // restrict panics to this action name ("" = any)

	MissEvery int    // force a miss on ~every Nth matching table apply
	MissTable string // restrict forced misses to this table ("" = any)

	PassBound int // pipeline-pass budget override (0 = keep sim.MaxPasses)

	DelayEvery int           // sleep on ~every Nth Process call
	Delay      time.Duration // how long to sleep

	// Transport-level fault classes, consumed by TransportInjector (io.go)
	// wrapped around a runtime.Transport. IOPort restricts injection to one
	// switch port, mirroring Attr's tenant filter (0 = any port; port 0
	// itself cannot be singled out).
	IOPort       int           // target port for I/O faults (0 = any)
	RecvErrEvery int           // fail ~every Nth Recv with an injected error
	RecvErrFirst int           // cap on total injected recv errors (0 = unlimited)
	SendErrEvery int           // fail ~every Nth Send with an injected error
	SendErrFirst int           // cap on total injected send errors (0 = unlimited)
	DropEvery    int           // silently swallow ~every Nth frame (both directions)
	DupEvery     int           // duplicate ~every Nth received frame
	StallEvery   int           // stall ~every Nth Recv for StallFor
	StallFor     time.Duration // how long a stall holds the RX path
}

// Enabled reports whether the spec injects anything at all.
func (s Spec) Enabled() bool {
	return s.PanicEvery > 0 || s.MissEvery > 0 || s.PassBound > 0 || s.DelayEvery > 0 || s.IOEnabled()
}

// IOEnabled reports whether any transport-level fault class is configured.
func (s Spec) IOEnabled() bool {
	return s.RecvErrEvery > 0 || s.SendErrEvery > 0 || s.DropEvery > 0 ||
		s.DupEvery > 0 || s.StallEvery > 0
}

// ParseSpec parses the flag syntax "key=value,key=value". Keys: seed, attr,
// panic_every, panic_first, panic_action, miss_every, miss_table,
// pass_bound, delay_every, delay (a Go duration); transport fault classes:
// io_port, recv_err_every, recv_err_first, send_err_every, send_err_first,
// io_drop_every, io_dup_every, stall_every, stall_for (a Go duration). An
// empty string yields the zero (inject-nothing) spec.
func ParseSpec(text string) (Spec, error) {
	var s Spec
	if strings.TrimSpace(text) == "" {
		return s, nil
	}
	for _, kv := range strings.Split(text, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return Spec{}, fmt.Errorf("chaos: bad spec element %q (want key=value)", kv)
		}
		var err error
		switch key {
		case "seed":
			s.Seed, err = strconv.ParseInt(val, 10, 64)
		case "attr":
			s.Attr, err = strconv.ParseUint(val, 10, 64)
		case "panic_every":
			s.PanicEvery, err = strconv.Atoi(val)
		case "panic_first":
			s.PanicFirst, err = strconv.Atoi(val)
		case "panic_action":
			s.PanicAction = val
		case "miss_every":
			s.MissEvery, err = strconv.Atoi(val)
		case "miss_table":
			s.MissTable = val
		case "pass_bound":
			s.PassBound, err = strconv.Atoi(val)
		case "delay_every":
			s.DelayEvery, err = strconv.Atoi(val)
		case "delay":
			s.Delay, err = time.ParseDuration(val)
		case "io_port":
			s.IOPort, err = strconv.Atoi(val)
		case "recv_err_every":
			s.RecvErrEvery, err = strconv.Atoi(val)
		case "recv_err_first":
			s.RecvErrFirst, err = strconv.Atoi(val)
		case "send_err_every":
			s.SendErrEvery, err = strconv.Atoi(val)
		case "send_err_first":
			s.SendErrFirst, err = strconv.Atoi(val)
		case "io_drop_every":
			s.DropEvery, err = strconv.Atoi(val)
		case "io_dup_every":
			s.DupEvery, err = strconv.Atoi(val)
		case "stall_every":
			s.StallEvery, err = strconv.Atoi(val)
		case "stall_for":
			s.StallFor, err = time.ParseDuration(val)
		default:
			return Spec{}, fmt.Errorf("chaos: unknown spec key %q", key)
		}
		if err != nil {
			return Spec{}, fmt.Errorf("chaos: bad value for %q: %v", key, err)
		}
	}
	return s, nil
}

// Stats counts what an injector has actually done.
type Stats struct {
	Panics int64 // panics injected
	Misses int64 // lookups forced to miss
	Delays int64 // sleeps injected

	RecvErrs int64 // receive errors injected
	SendErrs int64 // send errors injected
	Drops    int64 // frames silently swallowed
	Dups     int64 // frames duplicated
	Stalls   int64 // RX stalls injected
}

// Injector is a deterministic sim.Injector. Safe for concurrent use: all
// state is atomic counters.
type Injector struct {
	spec Spec

	actionCalls atomic.Uint64 // matching Action calls seen
	missCalls   atomic.Uint64 // matching ForceMiss calls seen
	delayCalls  atomic.Uint64 // Delay calls seen

	// Transport schedule counters, shared across every wrapped transport
	// (io.go) so fault counts stay exact switch-wide.
	recvCalls  atomic.Uint64
	sendCalls  atomic.Uint64
	dropCalls  atomic.Uint64
	dupCalls   atomic.Uint64
	stallCalls atomic.Uint64

	panics atomic.Int64
	misses atomic.Int64
	delays atomic.Int64

	recvErrs atomic.Int64
	sendErrs atomic.Int64
	drops    atomic.Int64
	dups     atomic.Int64
	stalls   atomic.Int64
}

// New builds an injector for the spec.
func New(spec Spec) *Injector { return &Injector{spec: spec} }

// Spec returns the injector's configuration.
func (in *Injector) Spec() Spec { return in.spec }

// Stats snapshots the injected-fault counters.
func (in *Injector) Stats() Stats {
	return Stats{
		Panics:   in.panics.Load(),
		Misses:   in.misses.Load(),
		Delays:   in.delays.Load(),
		RecvErrs: in.recvErrs.Load(),
		SendErrs: in.sendErrs.Load(),
		Drops:    in.drops.Load(),
		Dups:     in.dups.Load(),
		Stalls:   in.stalls.Load(),
	}
}

// Per-site salts so the same call index makes independent decisions at each
// fault class.
const (
	siteAction = 0x61637469 // "acti"
	siteMiss   = 0x6d697373 // "miss"
	siteDelay  = 0x646c6179 // "dlay"
)

// splitmix64 is the standard 64-bit finalizer; one multiply-xor-shift chain
// turns (seed, site, call index) into an effectively random draw without any
// locking or shared rand.Source.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// draw decides whether call number n at the given site fires for rate
// "every" (≈1/every of calls fire, schedule fixed by the seed).
func (in *Injector) draw(site, n uint64, every int) bool {
	if every <= 0 {
		return false
	}
	return splitmix64(uint64(in.spec.Seed)^site^(n*0x9e3779b97f4a7c15))%uint64(every) == 0
}

// attrMatch applies the tenant filter.
func (in *Injector) attrMatch(attr uint64) bool {
	return in.spec.Attr == 0 || attr == in.spec.Attr
}

// Action implements sim.Injector: panics on scheduled calls to simulate a
// defect inside an action body. The panic is recovered by sim.Process and
// surfaces as a FaultPanic attributed to the current program.
func (in *Injector) Action(attr uint64, action string) {
	s := &in.spec
	if s.PanicEvery == 0 || !in.attrMatch(attr) {
		return
	}
	if s.PanicAction != "" && action != s.PanicAction {
		return
	}
	n := in.actionCalls.Add(1) - 1
	if !in.draw(siteAction, n, s.PanicEvery) {
		return
	}
	c := in.panics.Add(1)
	if s.PanicFirst > 0 && c > int64(s.PanicFirst) {
		in.panics.Add(-1)
		return
	}
	panic(fmt.Sprintf("chaos: injected panic #%d in action %s (attr %d, seed %d)", c, action, attr, s.Seed))
}

// ForceMiss implements sim.Injector: reports whether this table apply should
// behave as a lookup miss.
func (in *Injector) ForceMiss(attr uint64, table string) bool {
	s := &in.spec
	if s.MissEvery == 0 || !in.attrMatch(attr) {
		return false
	}
	if s.MissTable != "" && table != s.MissTable {
		return false
	}
	n := in.missCalls.Add(1) - 1
	if !in.draw(siteMiss, n, s.MissEvery) {
		return false
	}
	in.misses.Add(1)
	return true
}

// PassBound implements sim.Injector: the pipeline-pass budget override.
func (in *Injector) PassBound() int { return in.spec.PassBound }

// Delay implements sim.Injector: sleeps on scheduled Process calls.
func (in *Injector) Delay() {
	s := &in.spec
	if s.DelayEvery == 0 || s.Delay <= 0 {
		return
	}
	n := in.delayCalls.Add(1) - 1
	if !in.draw(siteDelay, n, s.DelayEvery) {
		return
	}
	in.delays.Add(1)
	time.Sleep(s.Delay)
}
