package dpmu

import (
	"fmt"

	"hyper4/internal/bitfield"
	"hyper4/internal/core/persona"
	"hyper4/internal/sim"
)

// VPortRef names a virtual ingress point: a device and the virtual port the
// packet appears to arrive on.
type VPortRef struct {
	VDev     string
	VIngress int
}

// nextMcastSeq and nextSession counters live on the DPMU.

// MulticastGroup makes traffic a device sends to one of its virtual egress
// ports fan out to several virtual devices — the §4.6 virtual multicast.
// Each delivery consumes one recirculation; the sequence is walked by
// egress-to-egress clones carrying the hp4.mcast loop counter.
func (t *Tx) MulticastGroup(owner, vdev string, vport int, targets []VPortRef) error {
	d := t.d
	from, err := d.auth(owner, vdev)
	if err != nil {
		return err
	}
	if len(targets) == 0 {
		return fmt.Errorf("dpmu: multicast group needs at least one target: %w", ErrInvalid)
	}
	pids := make([]int, len(targets))
	for i, t := range targets {
		tv, ok := d.vdevs[t.VDev]
		if !ok {
			return fmt.Errorf("dpmu: no virtual device %q: %w", t.VDev, ErrNotFound)
		}
		pids[i] = tv.PID
	}
	if len(targets) == 1 {
		// Degenerate group: a plain virtual link.
		return t.LinkVPorts(owner, vdev, vport, targets[0].VDev, targets[0].VIngress)
	}

	// One sequence ID per step and one clone session shared by the group.
	seqs := make([]uint64, len(targets))
	for i := range seqs {
		seqs[i] = uint64(d.newID(&d.nextMcast))
	}
	session := d.newID(&d.nextSession)
	d.tx.SetMirror(session, 0)

	var rows []pentry
	// Entry point: virtnet routes (pid, vport) to the first target and arms
	// sequence step 1.
	params := []sim.MatchParam{
		sim.ExactUint(persona.ProgramWidth, uint64(from.PID)),
		sim.ExactUint(persona.VPortWidth, uint64(vport)),
	}
	args := []bitfield.Value{
		bitfield.FromUint(persona.ProgramWidth, uint64(pids[0])),
		bitfield.FromUint(persona.VPortWidth, uint64(targets[0].VIngress)),
		bitfield.FromUint(persona.McastWidth, seqs[0]),
		bitfield.FromUint(9, 0),
	}
	if err := d.addRow(&rows, persona.TblVirtnet, persona.ActMcastStart, params, args, 0); err != nil {
		return err
	}
	// The original of the first egress pass just spawns the clone.
	if err := d.addRow(&rows, persona.TblMcastOrig, persona.ActMcastClone,
		[]sim.MatchParam{sim.ExactUint(persona.McastWidth, seqs[0])},
		[]bitfield.Value{bitfield.FromUint(32, uint64(session))}, 0); err != nil {
		return err
	}
	// Each clone pass steps the sequence to the next target; the final step
	// stops cloning.
	for i := 1; i < len(targets); i++ {
		key := []sim.MatchParam{sim.ExactUint(persona.McastWidth, seqs[i-1])}
		if i < len(targets)-1 {
			args := []bitfield.Value{
				bitfield.FromUint(persona.ProgramWidth, uint64(pids[i])),
				bitfield.FromUint(persona.VPortWidth, uint64(targets[i].VIngress)),
				bitfield.FromUint(persona.McastWidth, seqs[i]),
				bitfield.FromUint(32, uint64(session)),
			}
			if err := d.addRow(&rows, persona.TblMcastClone, persona.ActMcastStep, key, args, 0); err != nil {
				return err
			}
		} else {
			args := []bitfield.Value{
				bitfield.FromUint(persona.ProgramWidth, uint64(pids[i])),
				bitfield.FromUint(persona.VPortWidth, uint64(targets[i].VIngress)),
			}
			if err := d.addRow(&rows, persona.TblMcastClone, persona.ActMcastLast, key, args, 0); err != nil {
				return err
			}
		}
	}
	keepVal(d.tx, &from.links)
	from.links = append(from.links, rows...)
	return nil
}

// SetRateLimit configures the §4.5 ingress meter for a virtual device:
// above yellowAt packets per window the device's traffic is marked yellow,
// above redAt it is dropped before it can consume further pipeline passes.
// Windows advance with TickMeters.
func (t *Tx) SetRateLimit(owner, vdev string, yellowAt, redAt uint64) error {
	d := t.d
	v, err := d.auth(owner, vdev)
	if err != nil {
		return err
	}
	return d.tx.MeterSetRates(persona.MeterIngress, v.PID, yellowAt, redAt)
}

// TickMeters starts a new metering window for every virtual device.
func (d *DPMU) TickMeters() error {
	return d.SW.MeterTick(persona.MeterIngress)
}
