package prove

import (
	"reflect"
	"testing"

	"hyper4/internal/functions"
)

// TestCubeAlgebra pins the cube primitives the whole partition rests on:
// fix contradiction, conjunction, and cover.
func TestCubeAlgebra(t *testing.T) {
	c := trueCube()
	c, ok := c.fix(3, 1)
	if !ok {
		t.Fatal("fixing a free bit contradicted")
	}
	if _, ok := c.fix(3, 0); ok {
		t.Fatal("re-fixing bit 3 to the opposite value should contradict")
	}
	d, _ := trueCube().fix(5, 0)
	cd, ok := c.and(d)
	if !ok || cd.val.Bit(3) != 1 || cd.mask.Bit(5) != 1 || cd.val.Bit(5) != 0 {
		t.Fatalf("conjunction lost a constraint: %v %v", cd.val, cd.mask)
	}
	if !c.covers(cd) {
		t.Fatal("a cube must cover its own refinement")
	}
	if cd.covers(c) {
		t.Fatal("a refinement must not cover its generalization")
	}
}

// TestRegionWitness checks the cube-avoidance search: a region with
// negatives yields a point inside the positive cube and outside every
// negative, and a region whose negatives blanket it is reported empty.
func TestRegionWitness(t *testing.T) {
	const nbits = 8
	r := fullRegion()
	r.pos, _ = r.pos.fix(0, 1) // bit 0 = 1
	// Subtract "bit 1 = 0" and "bit 1 = 1, bit 2 = 0": only points with
	// bits 1 and 2 set survive.
	n1, _ := trueCube().fix(1, 0)
	n2, _ := trueCube().fix(1, 1)
	n2, _ = n2.fix(2, 0)
	r = r.subtract(n1).subtract(n2)
	budget := 10_000
	w, ok, decided := r.witness(nbits, func(int) uint { return 0 }, &budget)
	if !decided || !ok {
		t.Fatalf("witness search failed (ok=%v decided=%v)", ok, decided)
	}
	for _, bit := range []int{0, 1, 2} {
		if w.Bit(bit) != 1 {
			t.Fatalf("witness %b violates the region", w)
		}
	}

	// Blanket the region: subtracting both values of bit 0 empties it.
	e := fullRegion()
	z, _ := trueCube().fix(0, 0)
	o, _ := trueCube().fix(0, 1)
	e = e.subtract(z).subtract(o)
	budget = 10_000
	if _, ok, decided := e.witness(nbits, func(int) uint { return 0 }, &budget); !decided || ok {
		t.Fatalf("blanketed region should be decidedly empty (ok=%v decided=%v)", ok, decided)
	}
}

// TestIdentityPortRegion confirms the proof window: every witness of the
// restricted space decodes to an ingress port in [8, 16).
func TestIdentityPortRegion(t *testing.T) {
	const L = 4
	r := IdentityPortRegion(L)
	// Force each of the 3 free low port bits both ways and check the
	// decoded port stays inside the window.
	for v := 0; v < 8; v++ {
		c := r
		ok := true
		for j := 0; j < 3; j++ {
			c.pos, ok = c.pos.fix(portVar(L)+6+j, uint(v>>(2-j))&1)
			if !ok {
				t.Fatalf("identity window rejected low bits %03b", v)
			}
		}
		budget := 10_000
		w, ok, decided := c.witness(L*8+9, preferPort(L), &budget)
		if !decided || !ok {
			t.Fatalf("no witness for low bits %03b", v)
		}
		if _, port := witnessFrame(w, L); port < 8 || port > 15 {
			t.Fatalf("witness port %d escapes the identity window", port)
		}
	}
	// Port 0 (all port bits zero) must contradict the window.
	c := r
	ok := true
	for j := 0; j < 9 && ok; j++ {
		c.pos, ok = c.pos.fix(portVar(L)+j, 0)
	}
	if ok {
		t.Fatal("port 0 fits the identity window; the by-design native/persona gap would leak into proofs")
	}
}

// TestSynthesizeDeterministic: the synthesized entry program is a pure
// function of (program, seed) — TestProveSmoke's reproducibility (cmd/hp4lint) and the
// -prove-seed flag depend on it — and never duplicates a match key (the
// native simulator would reject the row the DPMU accepts, manufacturing a
// one-sided divergence).
func TestSynthesizeDeterministic(t *testing.T) {
	prog, err := functions.Load(functions.L2Switch)
	if err != nil {
		t.Fatal(err)
	}
	a, b := Synthesize(prog, 7), Synthesize(prog, 7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed, different entry programs")
	}
	if len(a) == 0 {
		t.Fatal("no rows synthesized")
	}
	seen := map[string]bool{}
	for _, r := range a {
		k := r.Table + "|" + paramsKey(r.Params)
		if seen[k] {
			t.Fatalf("duplicate match key synthesized in %s", r.Table)
		}
		seen[k] = true
	}
}
