package sim

import (
	"fmt"
	"sync"

	"hyper4/internal/bitfield"
	"hyper4/internal/p4/ast"
)

// Stateful externs carry per-array mutexes: bmv2 serializes extern accesses,
// and these locks reproduce that model without serializing whole packets.
// They are independent of Switch.mu (always acquired while Process holds the
// read side, never the other way around, so ordering is acyclic).

// registerArray is the runtime state of one register declaration.
type registerArray struct {
	mu    sync.Mutex
	width int
	cells []bitfield.Value
}

// counterArray is the runtime state of one counter declaration.
type counterArray struct {
	mu      sync.Mutex
	kind    ast.CounterKind
	packets []uint64
	bytes   []uint64
}

// Meter colors, matching the P4 convention.
const (
	MeterGreen  = 0
	MeterYellow = 1
	MeterRed    = 2
)

// meterCell is a simple two-threshold packet/byte bucket: usage above the
// yellow threshold within the current window marks yellow, above the red
// threshold marks red. Windows advance on Tick.
type meterCell struct {
	used     uint64
	yellowAt uint64
	redAt    uint64
}

type meterArray struct {
	mu    sync.Mutex
	kind  ast.MeterKind
	cells []meterCell
}

func newMeterArray(kind ast.MeterKind, n int) *meterArray {
	m := &meterArray{kind: kind, cells: make([]meterCell, n)}
	for i := range m.cells {
		// Default thresholds are effectively unlimited until configured.
		m.cells[i] = meterCell{yellowAt: ^uint64(0), redAt: ^uint64(0)}
	}
	return m
}

// RegisterRead returns the value of one register cell.
func (sw *Switch) RegisterRead(name string, idx int) (bitfield.Value, error) {
	r, ok := sw.registers[name]
	if !ok {
		return bitfield.Value{}, fmt.Errorf("sim: no register %q", name)
	}
	v := bitfield.New(r.width)
	if err := r.readInto(name, idx, &v); err != nil {
		return bitfield.Value{}, err
	}
	return v, nil
}

// readInto copies one cell into dst, resized to dst's width.
func (r *registerArray) readInto(name string, idx int, dst *bitfield.Value) error {
	if idx < 0 || idx >= len(r.cells) {
		return fmt.Errorf("sim: register %s index %d out of range", name, idx)
	}
	r.mu.Lock()
	dst.SetFrom(r.cells[idx])
	r.mu.Unlock()
	return nil
}

// RegisterWrite stores a value into one register cell, resized to the
// register width. The cell buffer is overwritten in place so the stored value
// never aliases the caller's (Resize returns its receiver when widths match).
func (sw *Switch) RegisterWrite(name string, idx int, v bitfield.Value) error {
	r, ok := sw.registers[name]
	if !ok {
		return fmt.Errorf("sim: no register %q", name)
	}
	return r.write(name, idx, v)
}

func (r *registerArray) write(name string, idx int, v bitfield.Value) error {
	if idx < 0 || idx >= len(r.cells) {
		return fmt.Errorf("sim: register %s index %d out of range", name, idx)
	}
	r.mu.Lock()
	r.cells[idx].SetFrom(v)
	r.mu.Unlock()
	return nil
}

// countInc bumps a counter cell.
func (sw *Switch) countInc(name string, idx, packetBytes int) error {
	c, ok := sw.counters[name]
	if !ok {
		return fmt.Errorf("sim: no counter %q", name)
	}
	return c.inc(name, idx, packetBytes)
}

func (c *counterArray) inc(name string, idx, packetBytes int) error {
	return c.add(name, idx, 1, uint64(packetBytes))
}

func (c *counterArray) add(name string, idx int, packets, bytes uint64) error {
	if idx < 0 || idx >= len(c.packets) {
		return fmt.Errorf("sim: counter %s index %d out of range", name, idx)
	}
	c.mu.Lock()
	c.packets[idx] += packets
	c.bytes[idx] += bytes
	c.mu.Unlock()
	return nil
}

// CounterRead returns (packets, bytes) for one counter cell.
func (sw *Switch) CounterRead(name string, idx int) (uint64, uint64, error) {
	c, ok := sw.counters[name]
	if !ok {
		return 0, 0, fmt.Errorf("sim: no counter %q", name)
	}
	if idx < 0 || idx >= len(c.packets) {
		return 0, 0, fmt.Errorf("sim: counter %s index %d out of range", name, idx)
	}
	c.mu.Lock()
	p, b := c.packets[idx], c.bytes[idx]
	c.mu.Unlock()
	return p, b, nil
}

// CounterReset zeroes one counter cell.
func (sw *Switch) CounterReset(name string, idx int) error {
	c, ok := sw.counters[name]
	if !ok {
		return fmt.Errorf("sim: no counter %q", name)
	}
	if idx < 0 || idx >= len(c.packets) {
		return fmt.Errorf("sim: counter %s index %d out of range", name, idx)
	}
	c.mu.Lock()
	c.packets[idx], c.bytes[idx] = 0, 0
	c.mu.Unlock()
	return nil
}

// MeterSetRates configures the yellow and red thresholds (in packets or
// bytes per window, per the meter's kind) for one meter cell.
func (sw *Switch) MeterSetRates(name string, idx int, yellowAt, redAt uint64) error {
	m, ok := sw.meters[name]
	if !ok {
		return fmt.Errorf("sim: no meter %q", name)
	}
	if idx < 0 || idx >= len(m.cells) {
		return fmt.Errorf("sim: meter %s index %d out of range", name, idx)
	}
	m.mu.Lock()
	m.cells[idx].yellowAt = yellowAt
	m.cells[idx].redAt = redAt
	m.mu.Unlock()
	return nil
}

// MeterTick advances every cell of a meter to a new window, clearing usage.
func (sw *Switch) MeterTick(name string) error {
	m, ok := sw.meters[name]
	if !ok {
		return fmt.Errorf("sim: no meter %q", name)
	}
	m.mu.Lock()
	for i := range m.cells {
		m.cells[i].used = 0
	}
	m.mu.Unlock()
	return nil
}

// meterExecute records usage and returns the color.
func (sw *Switch) meterExecute(name string, idx, packetBytes int) (int, error) {
	m, ok := sw.meters[name]
	if !ok {
		return 0, fmt.Errorf("sim: no meter %q", name)
	}
	return m.execute(name, idx, packetBytes)
}

func (m *meterArray) execute(name string, idx, packetBytes int) (int, error) {
	if idx < 0 || idx >= len(m.cells) {
		return 0, fmt.Errorf("sim: meter %s index %d out of range", name, idx)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	cell := &m.cells[idx]
	if m.kind == ast.MeterBytes {
		cell.used += uint64(packetBytes)
	} else {
		cell.used++
	}
	switch {
	case cell.used > cell.redAt:
		return MeterRed, nil
	case cell.used > cell.yellowAt:
		return MeterYellow, nil
	default:
		return MeterGreen, nil
	}
}
