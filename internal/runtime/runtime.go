package runtime

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hyper4/internal/sim"
)

// Processor is the packet-processing core the runtime drives — satisfied by
// *sim.Switch (whose Process consults the fused fast path before the
// interpreter) and by netsim's overhead-modelling wrapper.
type Processor interface {
	Process(data []byte, port int) ([]sim.Output, *sim.Trace, error)
}

// BatchProcessor is an optional Processor extension: workers that drain a
// burst of frames from their rings hand the whole burst over in one call,
// amortizing per-call overhead. *sim.Switch implements it via ProcessSeq.
type BatchProcessor interface {
	ProcessSeq(pkts []sim.Input, results []sim.Result) error
}

// Config tunes a Runtime.
type Config struct {
	// Workers is the number of worker loops (and the ring fan-out per
	// port). Defaults to 1.
	Workers int
	// RingSize is the per-(port,worker) ring capacity, rounded up to a
	// power of two. Defaults to 512.
	RingSize int
	// Lossless makes full rings backpressure the producer (bounded retry
	// sleep) instead of dropping — the in-process netsim contract, where
	// links are reliable. Wire-facing runtimes leave it false: a full ring
	// drops the frame and counts it, and the switch is never blocked.
	Lossless bool
	// ShardKey maps an ingress port to a sharding key; frames go to worker
	// key%Workers. The default is the port number itself. Persona switches
	// pass the DPMU's port→PID resolution so every frame of one virtual
	// device lands on one worker and its breaker/health/metrics state stays
	// worker-local.
	ShardKey func(port int) int
	// Health tunes the per-port circuit breakers (health.go). Zero fields
	// take defaults.
	Health HealthConfig
	// TransportFactory builds transports from textual specs for AttachSpec
	// and for quarantine auto-reattach (so reattached transports come back
	// through the same wrapping). Defaults to NewTransport; hp4switch points
	// it at a chaos.TransportInjector under -chaos-io, tests at scripted
	// fakes. The port number is passed for per-port fault filters.
	TransportFactory func(port int, spec string) (Transport, error)
}

// burst is how many frames a worker or TX loop moves per ring visit before
// giving the next ring a turn.
const burst = 64

// lossless producers retry a full ring at this interval.
const retrySleep = 20 * time.Microsecond

// port is one attached transport and its ring fan-out.
type port struct {
	num  int
	spec string
	tr   Transport

	rx []*ring // rx[w]: produced by this port's RX loop, consumed by worker w
	tx []*ring // tx[w]: produced by worker w, consumed by this port's TX loop

	txNotify chan struct{}
	txStop   chan struct{}
	// txStopOnce guards close(txStop): Detach and a SIGINT-driven Close can
	// tear the same port down concurrently (Detach moves it to draining and
	// releases the lock before closing txStop; Close snapshots active and
	// draining ports alike).
	txStopOnce sync.Once
	rxStop     atomic.Bool
	rxDone     chan struct{}
	txDone     chan struct{}

	rxFrames atomic.Uint64
	txFrames atomic.Uint64
	rxDrops  atomic.Uint64
	txDrops  atomic.Uint64
	txErrors atomic.Uint64
}

// stopTx signals the port's TX loop to flush its backlog and exit. Safe to
// call from Detach and Close concurrently.
func (p *port) stopTx() {
	p.txStopOnce.Do(func() { close(p.txStop) })
	select {
	case p.txNotify <- struct{}{}:
	default:
	}
}

// portMap is the copy-on-write port table workers and routing read with one
// atomic load. active maps port number → port; draining holds detached
// ports whose rings are still being emptied.
type portMap struct {
	active   map[int]*port
	draining []*port
	// list is every active port in stable order, for worker sweeps.
	list []*port
}

// Runtime owns packet I/O for one switch: RX loops feeding per-worker
// rings, worker loops draining them through the Processor, TX loops writing
// results back out. Ports attach and detach at any time, including under
// live traffic.
type Runtime struct {
	cfg   Config
	proc  Processor
	batch BatchProcessor // non-nil when proc implements it

	ports atomic.Pointer[portMap]

	mu      sync.Mutex // attach/detach/start/close state machine
	started bool
	closed  bool

	stop     chan struct{}
	wake     []chan struct{}
	workerWg sync.WaitGroup

	processed     atomic.Uint64
	procErrs      atomic.Uint64
	unrouted      atomic.Uint64
	drainTimeouts atomic.Uint64

	health ioHealth
}

// New builds a runtime over a processor. Start launches the workers; ports
// may attach before or after.
func New(proc Processor, cfg Config) *Runtime {
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	if cfg.RingSize < 2 {
		cfg.RingSize = 512
	}
	if cfg.ShardKey == nil {
		cfg.ShardKey = func(port int) int { return port }
	}
	if cfg.TransportFactory == nil {
		cfg.TransportFactory = func(_ int, spec string) (Transport, error) { return NewTransport(spec) }
	}
	cfg.Health = cfg.Health.sanitize()
	rt := &Runtime{cfg: cfg, proc: proc, stop: make(chan struct{})}
	rt.health.cfg = cfg.Health
	rt.health.now = time.Now
	rt.health.recs = map[int]*portHealthRec{}
	rt.batch, _ = proc.(BatchProcessor)
	rt.wake = make([]chan struct{}, cfg.Workers)
	for i := range rt.wake {
		rt.wake[i] = make(chan struct{}, 1)
	}
	rt.ports.Store(&portMap{active: map[int]*port{}})
	return rt
}

// Workers returns the configured worker count.
func (rt *Runtime) Workers() int { return rt.cfg.Workers }

// Start launches the worker loops. Idempotent.
func (rt *Runtime) Start() {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.started || rt.closed {
		return
	}
	rt.started = true
	rt.workerWg.Add(rt.cfg.Workers)
	for w := 0; w < rt.cfg.Workers; w++ {
		go rt.worker(w)
	}
	if rt.cfg.Health.SyncEvery > 0 {
		go rt.healthSyncer(rt.cfg.Health.SyncEvery)
	}
}

// newTransport builds a transport from a spec through the configured
// factory.
func (rt *Runtime) newTransport(portNum int, spec string) (Transport, error) {
	return rt.cfg.TransportFactory(portNum, spec)
}

// attach origins: an operator attach resets the port's breaker (manual
// override); a health-driven reattach leaves the record to tryReattach,
// which moves it to probing.
const (
	attachWire = iota // operator, spec-built (reattachable)
	attachChan        // operator, programmatic transport (never auto-dropped)
	attachReattach
)

// AttachSpec parses a transport spec and attaches it to a port — the
// control plane's "port attach" op. Attaching over a quarantine-parked port
// is a manual override: it resets the breaker.
func (rt *Runtime) AttachSpec(portNum int, spec string) error {
	tr, err := rt.newTransport(portNum, spec)
	if err != nil {
		return err
	}
	if err := rt.attach(portNum, spec, tr, attachWire); err != nil {
		tr.Close()
		return err
	}
	return nil
}

// Attach binds an already-built transport (e.g. a ChanTransport endpoint)
// to a port and starts its RX/TX loops.
func (rt *Runtime) Attach(portNum int, tr Transport) error {
	return rt.attach(portNum, "chan", tr, attachChan)
}

func (rt *Runtime) attach(portNum int, spec string, tr Transport, origin int) error {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.closed {
		return ErrClosed
	}
	pm := rt.ports.Load()
	if pm.active[portNum] != nil {
		return fmt.Errorf("port %d: %w", portNum, ErrPortBusy)
	}
	p := &port{
		num:      portNum,
		spec:     spec,
		tr:       tr,
		rx:       make([]*ring, rt.cfg.Workers),
		tx:       make([]*ring, rt.cfg.Workers),
		txNotify: make(chan struct{}, 1),
		txStop:   make(chan struct{}),
		rxDone:   make(chan struct{}),
		txDone:   make(chan struct{}),
	}
	for w := range p.rx {
		p.rx[w] = newRing(rt.cfg.RingSize)
		p.tx[w] = newRing(rt.cfg.RingSize)
	}
	rt.ports.Store(pm.withAttached(p))
	if origin != attachReattach {
		rt.health.onAttach(portNum, spec, origin == attachWire)
	}
	go rt.rxLoop(p)
	go rt.txLoop(p)
	return nil
}

// Detach stops a port's ingestion, lets queued work drain (its ingress
// backlog is still processed, its egress backlog still transmitted), closes
// the transport, and removes the port. Safe under live traffic; frames
// routed to the port during the drain window count as unrouted drops.
// Detaching a quarantine-parked port (already off the active list) cancels
// its pending auto-reattach.
func (rt *Runtime) Detach(portNum int) error {
	if err := rt.detachPort(portNum); err != nil {
		if errors.Is(err, ErrNoPort) && rt.health.forgetParked(portNum) {
			return nil
		}
		return err
	}
	rt.health.forget(portNum)
	return nil
}

// detachPort is the drain-ordered teardown machinery shared by operator
// Detach and quarantine enforcement; it does not touch breaker records.
func (rt *Runtime) detachPort(portNum int) error {
	rt.mu.Lock()
	if rt.closed {
		rt.mu.Unlock()
		return ErrClosed
	}
	pm := rt.ports.Load()
	p := pm.active[portNum]
	if p == nil {
		rt.mu.Unlock()
		return fmt.Errorf("port %d: %w", portNum, ErrNoPort)
	}
	// Egress routing stops finding the port immediately; its rx rings keep
	// draining via the draining list.
	rt.ports.Store(pm.withDetached(p))
	started := rt.started
	rt.mu.Unlock()

	rt.stopRecv(p)
	<-p.rxDone
	rt.drainPortRx(p, started)
	p.stopTx()
	<-p.txDone
	p.tr.Close()

	rt.mu.Lock()
	rt.ports.Store(rt.ports.Load().withoutDraining(p))
	rt.mu.Unlock()
	return nil
}

// drainPortRx waits until a detached port's ingress rings are empty and the
// workers have handled every frame they popped from them, so the outputs
// sit in TX rings before the port's TX loop is stopped. With workers
// running they do the draining; before Start the detacher flushes the rings
// itself (no competing consumer exists yet).
//
// If workers make no progress within the deadline (wedged in the processor),
// the backlog is abandoned: whatever is left is counted as rx drops so the
// loss stays attributed, and DrainTimeouts records that it happened. The
// detacher must not pop the rings itself — workers are their sole consumer —
// so it counts pending frames instead; a worker racing the count can only
// forward a frame that was also counted dropped (overcount), never lose one
// silently.
func (rt *Runtime) drainPortRx(p *port, started bool) {
	if !started {
		var f Frame
		for w := range p.rx {
			for p.rx[w].pop(&f) {
				p.rxDrops.Add(1)
			}
		}
		return
	}
	rt.wakeAll()
	deadline := time.Now().Add(5 * time.Second)
	for {
		empty := true
		for w := range p.rx {
			if p.rx[w].pending() != 0 {
				empty = false
				break
			}
		}
		if empty {
			return
		}
		if time.Now().After(deadline) {
			var left uint64
			for w := range p.rx {
				left += p.rx[w].pending()
			}
			p.rxDrops.Add(left)
			rt.drainTimeouts.Add(1)
			return
		}
		rt.wakeAll()
		time.Sleep(200 * time.Microsecond)
	}
}

// stopRecv shuts a port's receive side down, preferring the two-phase
// CloseRecv so egress can still flush through the transport afterwards.
func (rt *Runtime) stopRecv(p *port) {
	p.rxStop.Store(true)
	if rc, ok := p.tr.(RecvCloser); ok {
		rc.CloseRecv()
		return
	}
	p.tr.Close()
}

// Close drains and stops the whole runtime: ingestion stops first, workers
// finish the ring backlog, TX loops flush queued egress, then transports
// close. Idempotent.
func (rt *Runtime) Close() {
	rt.mu.Lock()
	if rt.closed {
		rt.mu.Unlock()
		return
	}
	rt.closed = true
	started := rt.started
	pm := rt.ports.Load()
	rt.mu.Unlock()

	all := append(append([]*port{}, pm.list...), pm.draining...)
	for _, p := range all {
		rt.stopRecv(p)
	}
	for _, p := range all {
		<-p.rxDone
	}
	close(rt.stop)
	if started {
		rt.wakeAll()
		rt.workerWg.Wait()
	}
	for _, p := range all {
		p.stopTx()
	}
	for _, p := range all {
		<-p.txDone
		p.tr.Close()
	}
}

func (rt *Runtime) wakeAll() {
	for _, ch := range rt.wake {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
}

// shardOf picks the worker for a frame arriving on a port.
func (rt *Runtime) shardOf(portNum int) int {
	key := rt.cfg.ShardKey(portNum)
	if key < 0 {
		key = -key
	}
	return key % rt.cfg.Workers
}

// rxLoop is a port's dedicated ingestion goroutine: Recv, stamp the ingress
// port, shard onto the owning worker's ring.
func (rt *Runtime) rxLoop(p *port) {
	defer close(p.rxDone)
	var f Frame
	var errDelay time.Duration
	for {
		if err := p.tr.Recv(&f); err != nil {
			if p.rxStop.Load() || err == ErrClosed {
				return
			}
			p.rxDrops.Add(1)
			if errors.Is(err, ErrFrameTooBig) {
				// Oversized frame: counted and discarded, but a flood of
				// them must not throttle the port.
				continue
			}
			rt.health.noteError(p.num, errKindRecv, err)
			// Transient receive error: drop and keep listening, with a
			// per-port backoff that doubles while errors persist so a
			// permanently failing socket cannot burn a core, and resets on
			// the first successful receive.
			if errDelay == 0 {
				errDelay = rt.cfg.Health.RecvErrBase
			} else if errDelay < rt.cfg.Health.RecvErrMax {
				errDelay *= 2
				if errDelay > rt.cfg.Health.RecvErrMax {
					errDelay = rt.cfg.Health.RecvErrMax
				}
			}
			time.Sleep(errDelay)
			continue
		}
		errDelay = 0
		f.Port = p.num
		p.rxFrames.Add(1)
		w := rt.shardOf(p.num)
		if !rt.pushRing(p.rx[w], f, &p.rxDrops, &p.rxStop) {
			continue
		}
		select {
		case rt.wake[w] <- struct{}{}:
		default:
		}
	}
}

// pushRing pushes with the configured backpressure policy: drop-and-count
// (default) or bounded-sleep retry (lossless). stop aborts a lossless wait.
func (rt *Runtime) pushRing(r *ring, f Frame, drops *atomic.Uint64, stop *atomic.Bool) bool {
	if r.push(f) {
		return true
	}
	if !rt.cfg.Lossless {
		drops.Add(1)
		return false
	}
	for {
		time.Sleep(retrySleep)
		if r.push(f) {
			return true
		}
		if stop != nil && stop.Load() {
			drops.Add(1)
			return false
		}
		select {
		case <-rt.stop:
			drops.Add(1)
			return false
		default:
		}
	}
}

// worker is one forwarding loop: drain my ring at every port, process, route.
func (rt *Runtime) worker(w int) {
	defer rt.workerWg.Done()
	in := make([]sim.Input, 0, burst)
	results := make([]sim.Result, burst)
	frames := make([]Frame, burst)
	for {
		if rt.sweep(w, &in, results, frames) {
			continue
		}
		select {
		case <-rt.wake[w]:
		case <-rt.stop:
			// Graceful drain: ingestion has stopped, so the rings only
			// shrink; sweep until a full pass moves nothing.
			for rt.sweep(w, &in, results, frames) {
			}
			return
		}
	}
}

// sweep visits every port's ring for worker w once, processing up to burst
// frames per ring. It reports whether any frame moved.
func (rt *Runtime) sweep(w int, in *[]sim.Input, results []sim.Result, frames []Frame) bool {
	pm := rt.ports.Load()
	worked := false
	for _, p := range pm.list {
		n := 0
		for n < burst && p.rx[w].pop(&frames[n]) {
			n++
		}
		if n > 0 {
			worked = true
			rt.processBurst(w, pm, frames[:n], in, results)
			p.rx[w].finish()
		}
	}
	// Draining (detached) ports: their backlog is still forwarded — the
	// frames were accepted while the port was live.
	for _, p := range pm.draining {
		n := 0
		for n < burst && p.rx[w].pop(&frames[n]) {
			n++
		}
		if n > 0 {
			worked = true
			rt.processBurst(w, pm, frames[:n], in, results)
			p.rx[w].finish()
		}
	}
	return worked
}

// processBurst runs a burst through the processor and routes the outputs.
func (rt *Runtime) processBurst(w int, pm *portMap, frames []Frame, in *[]sim.Input, results []sim.Result) {
	*in = (*in)[:0]
	for _, f := range frames {
		*in = append(*in, sim.Input{Data: f.Data, Port: f.Port})
	}
	if rt.batch != nil {
		_ = rt.batch.ProcessSeq(*in, results)
	} else {
		for i, p := range *in {
			results[i].Outputs, results[i].Trace, results[i].Err = rt.proc.Process(p.Data, p.Port)
		}
	}
	rt.processed.Add(uint64(len(frames)))
	for i := range frames {
		if results[i].Err != nil {
			rt.procErrs.Add(1)
		} else {
			for _, o := range results[i].Outputs {
				rt.route(w, pm, o)
			}
		}
		// Every slot is cleared, faulted ones too: the reused backing must
		// not pin a packet's outputs, fault or inline trace until the slot
		// comes round again.
		results[i] = sim.Result{}
	}
}

// route hands one output to its egress port's TX ring.
func (rt *Runtime) route(w int, pm *portMap, o sim.Output) {
	p := pm.active[o.Port]
	if p == nil {
		rt.unrouted.Add(1)
		return
	}
	if !rt.pushRing(p.tx[w], Frame{Data: o.Data, Port: o.Port}, &p.txDrops, nil) {
		return
	}
	select {
	case p.txNotify <- struct{}{}:
	default:
	}
}

// txLoop is a port's dedicated egress goroutine: drain the per-worker TX
// rings and write frames out the transport.
func (rt *Runtime) txLoop(p *port) {
	defer close(p.txDone)
	var f Frame
	sweep := func() bool {
		worked := false
		for _, r := range p.tx {
			for i := 0; i < burst && r.pop(&f); i++ {
				worked = true
				if err := p.tr.Send(f); err != nil {
					p.txErrors.Add(1)
					// ErrNoPeer (reply mode before any ingress) is an
					// addressing gap, not a wire fault; closed is teardown.
					if err != ErrClosed && !errors.Is(err, ErrNoPeer) {
						rt.health.noteError(p.num, errKindSend, err)
					}
					continue
				}
				p.txFrames.Add(1)
			}
		}
		return worked
	}
	for {
		if sweep() {
			continue
		}
		select {
		case <-p.txNotify:
		case <-p.txStop:
			for sweep() {
			}
			return
		}
	}
}

// --- port map copy-on-write ---

func (pm *portMap) withAttached(p *port) *portMap {
	n := &portMap{active: make(map[int]*port, len(pm.active)+1), draining: pm.draining}
	for k, v := range pm.active {
		n.active[k] = v
	}
	n.active[p.num] = p
	n.rebuildList()
	return n
}

func (pm *portMap) withDetached(p *port) *portMap {
	n := &portMap{active: make(map[int]*port, len(pm.active))}
	for k, v := range pm.active {
		if v != p {
			n.active[k] = v
		}
	}
	n.draining = append(append([]*port{}, pm.draining...), p)
	n.rebuildList()
	return n
}

func (pm *portMap) withoutDraining(p *port) *portMap {
	n := &portMap{active: pm.active, list: pm.list}
	for _, d := range pm.draining {
		if d != p {
			n.draining = append(n.draining, d)
		}
	}
	return n
}

func (pm *portMap) rebuildList() {
	pm.list = pm.list[:0]
	nums := make([]int, 0, len(pm.active))
	for num := range pm.active {
		nums = append(nums, num)
	}
	sort.Ints(nums)
	pm.list = make([]*port, len(nums))
	for i, num := range nums {
		pm.list[i] = pm.active[num]
	}
}
