// Quickstart: generate the HyPer4 persona, load it on a software switch,
// make it emulate the L2 switch through the DPMU, and pass a frame — the
// minimal end-to-end tour of Figure 2's operational flow.
package main

import (
	"fmt"
	"log"

	"hyper4/internal/core/dpmu"
	"hyper4/internal/core/hp4c"
	"hyper4/internal/core/persona"
	"hyper4/internal/functions"
	"hyper4/internal/pkt"
	"hyper4/internal/sim"
)

func main() {
	// 1. Generate the persona (Figure 2(a)): the P4 program that emulates
	// other P4 programs. This is real P4_14 source.
	p, err := persona.Generate(persona.Reference)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("generated persona: %d lines of P4, %d tables, %d actions\n",
		p.LoC(), p.TableCount, p.ActionCount)

	// 2. Configure a P4 target with the persona and attach the DPMU.
	sw, err := sim.New("s1", p.Program)
	if err != nil {
		log.Fatal(err)
	}
	d, err := dpmu.New(sw, p)
	if err != nil {
		log.Fatal(err)
	}

	// 3. Compile the L2 switch for this persona (Figure 2(b)).
	prog, err := functions.Load(functions.L2Switch)
	if err != nil {
		log.Fatal(err)
	}
	comp, err := hp4c.Compile(prog, persona.Reference)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("compiled %s: %d parse entries, %d parse paths, %d stage slots\n",
		comp.Name, len(comp.ParseEntries), len(comp.Paths), len(comp.SlotList))

	// 4. Load it as a virtual device and populate its tables through the
	// DPMU (Figure 2(c)) using the function's ordinary controller.
	if _, err := d.Load("l2", comp, "quickstart", 0); err != nil {
		log.Fatal(err)
	}
	ctl := functions.NewL2ControllerFunc(d.Installer("quickstart", "l2"))
	h1 := pkt.MustMAC("00:00:00:00:00:01")
	h2 := pkt.MustMAC("00:00:00:00:00:02")
	if err := ctl.AddHost(h1, 1); err != nil {
		log.Fatal(err)
	}
	if err := ctl.AddHost(h2, 2); err != nil {
		log.Fatal(err)
	}

	// 5. Wire the virtual device to the physical ports.
	if err := d.AssignPort("quickstart", dpmu.Assignment{PhysPort: -1, VDev: "l2", VIngress: 0}); err != nil {
		log.Fatal(err)
	}
	for _, port := range []int{1, 2} {
		if err := d.MapVPort("quickstart", "l2", port, port); err != nil {
			log.Fatal(err)
		}
	}

	// 6. Send a frame: the persona behaves exactly like the L2 switch.
	frame := pkt.Pad(pkt.Serialize(
		&pkt.Ethernet{Dst: h2, Src: h1, EtherType: 0x0800},
		pkt.Payload("hello, virtualized data plane"),
	))
	outs, tr, err := sw.Process(frame, 1)
	if err != nil {
		log.Fatal(err)
	}
	for _, o := range outs {
		fmt.Printf("emitted on port %d: %s\n", o.Port, pkt.Summary(o.Data))
	}
	fmt.Printf("emulation cost: %d match-action stages (native L2 switch: 2; paper Table 1: 13)\n",
		tr.Applies)

	// An unknown destination is dropped, exactly as natively.
	unknown := pkt.Pad(pkt.Serialize(
		&pkt.Ethernet{Dst: pkt.MustMAC("00:00:00:00:00:99"), Src: h1, EtherType: 0x0800},
	))
	outs, _, err = sw.Process(unknown, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("unknown destination: %d packets emitted (dropped, as native)\n", len(outs))
}
