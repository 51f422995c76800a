package dpmu

import (
	"bytes"
	"os"
	"testing"
)

// FuzzRestoreState feeds arbitrary bytes to RestoreState, as a CRC-valid but
// corrupt snap.bin would at boot, seeded with the golden snapshot. No input
// may panic — a state the switch cannot hold is an error — and a state that
// is accepted must re-encode to a fixpoint: restoring its encoding encodes
// to the same bytes. The fused fast path is on, so every accepted state
// also compiles plans, as a -fuse boot does.
func FuzzRestoreState(f *testing.F) {
	golden, err := os.ReadFile(goldenStatePath)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	d := newPersonaDPMU(f)
	d.SetFusion(true)
	compile := compileReference()
	f.Fuzz(func(t *testing.T, data []byte) {
		if d.RestoreState(data, compile) != nil {
			return
		}
		enc, err := d.EncodeState()
		if err != nil {
			t.Fatal(err)
		}
		if err := d.RestoreState(enc, compile); err != nil {
			t.Fatalf("an accepted state does not restore from its own encoding: %v", err)
		}
		again, err := d.EncodeState()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, again) {
			t.Fatalf("encoding is not a fixpoint:\n first %s\nsecond %s", enc, again)
		}
	})
}
