package fuse_test

import (
	"fmt"
	"os"
	"testing"

	"hyper4/internal/core/ctl"
	"hyper4/internal/core/dpmu"
	"hyper4/internal/core/fuse"
	"hyper4/internal/core/persona"
)

// BenchmarkBuild is one fuse.Build — the write path's compile step, which a
// ctl batch (and so l2_churn's every write) pays once — over an l2_switch
// vdev at growing station counts and over the paper's Example 1 C chain.
// Run with -benchmem: B/op and allocs/op are the plan's build footprint.
func BenchmarkBuild(b *testing.B) {
	for _, n := range []int{64, 512, 2048} {
		b.Run(fmt.Sprintf("stations=%d", n), func(b *testing.B) {
			d, v, _ := l2Stations(b, n)
			benchBuild(b, d, []fuse.VDev{{Name: "l2", PID: v.PID}})
		})
	}
	b.Run("composed", func(b *testing.B) {
		d := newDPMU(b)
		script, err := os.ReadFile("../../../examples/scripts/composition.txt")
		if err != nil {
			b.Fatal(err)
		}
		if err := ctl.NewCLI(ctl.New(d), "op").ExecAll(string(script)); err != nil {
			b.Fatal(err)
		}
		var vds []fuse.VDev
		for _, name := range d.VDevs() {
			v, err := d.VDev(name)
			if err != nil {
				b.Fatal(err)
			}
			vds = append(vds, fuse.VDev{Name: name, PID: v.PID})
		}
		benchBuild(b, d, vds)
	})
}

func benchBuild(b *testing.B, d *dpmu.DPMU, vds []fuse.VDev) {
	if eng, _ := fuse.Build(d.SW, persona.Reference, vds); eng == nil || eng.Plans() != len(vds) {
		b.Fatalf("fused %v of %d vdevs", eng, len(vds))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fuse.Build(d.SW, persona.Reference, vds)
	}
}
