package sim

import (
	"fmt"
	"math/rand"
	"testing"

	"hyper4/internal/bitfield"
)

// This file is a differential property test for table lookup: the shared
// mask-grouped index (internal/tuple) must agree with the reference
// semantics — a linear scan of the precedence-sorted entry list using
// Entry.matches. Randomized over key widths (including non-byte-aligned
// ones), read kinds, priorities, entry sets, deletes, modifies, clears and
// dump/restore round trips, with probe packets biased to land near
// installed entries.

// linearLookup is the reference implementation: first match in the sorted
// entry list wins.
func linearLookup(t *table, ps *packetState) (*Entry, error) {
	key, err := t.keyOf(ps)
	if err != nil {
		return nil, err
	}
	for _, e := range t.entries {
		if e.matches(key) {
			return e, nil
		}
	}
	return nil, nil
}

// randValue returns a canonical random value of the given width.
func randValue(rng *rand.Rand, width int) bitfield.Value {
	b := make([]byte, (width+7)/8)
	rng.Read(b)
	return bitfield.FromBytes(width, b)
}

// packetFor packs field values (widths summing to a byte multiple) into wire
// bytes in declaration order, MSB first — the layout extract() consumes.
func packetFor(widths []int, vals []bitfield.Value) []byte {
	total := 0
	for _, w := range widths {
		total += w
	}
	hv := bitfield.New(total)
	off := 0
	for i, w := range widths {
		for bit := 0; bit < w; bit++ {
			hv.SetBit(off+bit, vals[i].Bit(bit))
		}
		off += w
	}
	return hv.Bytes()
}

// checkLookup drives one probe through both implementations and compares.
func checkLookup(t *testing.T, sw *Switch, tbl *table, data []byte, desc string) {
	t.Helper()
	ps := sw.getState(data, 1)
	defer sw.putState(ps)
	tr := &Trace{}
	if err := sw.parse(ps, tr); err != nil {
		t.Fatalf("%s: parse: %v", desc, err)
	}
	got, err := tbl.lookup(ps)
	if err != nil {
		t.Fatalf("%s: lookup: %v", desc, err)
	}
	want, err := linearLookup(tbl, ps)
	if err != nil {
		t.Fatalf("%s: linear lookup: %v", desc, err)
	}
	if got != want {
		gh, wh := -1, -1
		if got != nil {
			gh = got.Handle
		}
		if want != nil {
			wh = want.Handle
		}
		t.Fatalf("%s: fast path returned handle %d, linear scan handle %d (packet %x)", desc, gh, wh, data)
	}
}

// lpmWidths mixes byte-aligned and non-byte-aligned key widths.
var lpmWidths = []int{3, 4, 7, 8, 12, 13, 16, 17, 24, 31, 32, 33, 48}

func lpmProgram(width int) string {
	pad := (8 - width%8) % 8
	fields := fmt.Sprintf("f : %d;", width)
	if pad > 0 {
		fields += fmt.Sprintf(" pad : %d;", pad)
	}
	return fmt.Sprintf(`
header_type h_t { fields { %s } }
header h_t h;
parser start { extract(h); return ingress; }
action act(p) { modify_field(standard_metadata.egress_spec, p); }
table tt { reads { h.f : lpm; } actions { act; } }
control ingress { apply(tt); }
`, fields)
}

// probeData builds a packet whose field either reuses an installed entry's
// bits near the prefix boundary (the interesting case) or is fully random.
func probeData(rng *rand.Rand, width, pad int, entries []*Entry) []byte {
	widths := []int{width}
	if pad > 0 {
		widths = append(widths, pad)
	}
	fv := randValue(rng, width)
	if len(entries) > 0 && rng.Intn(4) != 0 {
		e := entries[rng.Intn(len(entries))]
		p := e.Params[0]
		// Start from the entry's value, then flip a few random bits —
		// sometimes inside the prefix (should miss this entry), sometimes in
		// the tail (should still match it).
		for i := 0; i < width; i++ {
			fv.SetBit(i, p.Value.Bit(i))
		}
		for flips := rng.Intn(3); flips > 0; flips-- {
			fv.SetBit(rng.Intn(width), byte(rng.Intn(2)))
		}
	}
	vals := []bitfield.Value{fv}
	if pad > 0 {
		vals = append(vals, randValue(rng, pad))
	}
	return packetFor(widths, vals)
}

func TestLookupDifferentialLPM(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	probes := 0
	for shape := 0; shape < 70; shape++ {
		width := lpmWidths[rng.Intn(len(lpmWidths))]
		pad := (8 - width%8) % 8
		sw := load(t, lpmProgram(width))
		tbl := sw.tables["tt"]

		// Mixed-priority shapes let a shorter prefix outrank a longer one.
		mixedPrio := shape%5 == 4
		n := 1 + rng.Intn(24)
		for i := 0; i < n; i++ {
			v := randValue(rng, width)
			plen := rng.Intn(width + 1)
			switch rng.Intn(6) {
			case 0:
				plen = 0
			case 1:
				plen = width
			}
			prio := 0
			if mixedPrio {
				prio = rng.Intn(3)
			}
			if _, err := sw.TableAdd("tt", "act", []MatchParam{LPM(v, plen)}, Args(9, 1), prio); err != nil {
				t.Fatal(err)
			}
			// Occasionally delete a random entry.
			if rng.Intn(8) == 0 && len(tbl.entries) > 0 {
				h := tbl.entries[rng.Intn(len(tbl.entries))].Handle
				if err := sw.TableDelete("tt", h); err != nil {
					t.Fatal(err)
				}
			}
		}
		for probe := 0; probe < 100; probe++ {
			data := probeData(rng, width, pad, tbl.entries)
			checkLookup(t, sw, tbl, data, fmt.Sprintf("lpm width=%d shape=%d probe=%d", width, shape, probe))
			probes++
		}
	}
	if probes < 7000 {
		t.Fatalf("only %d LPM probes ran", probes)
	}
}

func exactProgram(widths []int) string {
	fields := ""
	reads := ""
	for i, w := range widths {
		fields += fmt.Sprintf("f%d : %d; ", i, w)
		reads += fmt.Sprintf("h.f%d : exact; ", i)
	}
	total := 0
	for _, w := range widths {
		total += w
	}
	if pad := (8 - total%8) % 8; pad > 0 {
		fields += fmt.Sprintf("pad : %d; ", pad)
	}
	return fmt.Sprintf(`
header_type h_t { fields { %s } }
header h_t h;
parser start { extract(h); return ingress; }
action act(p) { modify_field(standard_metadata.egress_spec, p); }
table tt { reads { %s } actions { act; } }
control ingress { apply(tt); }
`, fields, reads)
}

func TestLookupDifferentialExact(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	probes := 0
	for shape := 0; shape < 40; shape++ {
		nf := 1 + rng.Intn(3)
		widths := make([]int, nf)
		total := 0
		for i := range widths {
			widths[i] = 1 + rng.Intn(40)
			total += widths[i]
		}
		pad := (8 - total%8) % 8
		sw := load(t, exactProgram(widths))
		tbl := sw.tables["tt"]

		n := 1 + rng.Intn(24)
		for i := 0; i < n; i++ {
			params := make([]MatchParam, nf)
			for j := range params {
				params[j] = Exact(randValue(rng, widths[j]))
			}
			// Duplicate exact keys are rejected; that's fine, keep going.
			if _, err := sw.TableAdd("tt", "act", params, Args(9, 1), 0); err != nil {
				continue
			}
			if rng.Intn(10) == 0 && len(tbl.entries) > 0 {
				h := tbl.entries[rng.Intn(len(tbl.entries))].Handle
				if err := sw.TableDelete("tt", h); err != nil {
					t.Fatal(err)
				}
			}
		}
		allWidths := append([]int(nil), widths...)
		if pad > 0 {
			allWidths = append(allWidths, pad)
		}
		for probe := 0; probe < 90; probe++ {
			vals := make([]bitfield.Value, len(allWidths))
			if len(tbl.entries) > 0 && rng.Intn(3) != 0 {
				// Reuse an installed entry's key, sometimes perturbing one field.
				e := tbl.entries[rng.Intn(len(tbl.entries))]
				for j := 0; j < nf; j++ {
					vals[j] = e.Params[j].Value.Clone()
				}
				if rng.Intn(2) == 0 {
					j := rng.Intn(nf)
					vals[j].SetBit(rng.Intn(widths[j]), byte(rng.Intn(2)))
				}
			} else {
				for j := 0; j < nf; j++ {
					vals[j] = randValue(rng, widths[j])
				}
			}
			if pad > 0 {
				vals[len(vals)-1] = randValue(rng, pad)
			}
			data := packetFor(allWidths, vals)
			checkLookup(t, sw, tbl, data, fmt.Sprintf("exact shape=%d probe=%d", shape, probe))
			probes++
		}
	}
	if probes < 3000 {
		t.Fatalf("only %d exact probes ran", probes)
	}
}

// mixedProgram declares table tt over fields of h, one read per kind, plus a
// valid(g) read when withValid; h.sel = 1 makes the parser extract g.
func mixedProgram(kinds []string, widths []int, withValid bool) string {
	fields, reads := "", ""
	total := 8
	for i, w := range widths {
		fields += fmt.Sprintf("f%d : %d; ", i, w)
		reads += fmt.Sprintf("h.f%d : %s; ", i, kinds[i])
		total += w
	}
	if pad := (8 - total%8) % 8; pad > 0 {
		fields += fmt.Sprintf("pad : %d; ", pad)
	}
	if withValid {
		reads += "valid(g) : exact; "
	}
	return fmt.Sprintf(`
header_type h_t { fields { %s sel : 8; } }
header_type g_t { fields { x : 8; } }
header h_t h;
header g_t g;
parser start { extract(h); return select(latest.sel) { 1 : parse_g; default : ingress; } }
parser parse_g { extract(g); return ingress; }
action act(p) { modify_field(standard_metadata.egress_spec, p); }
action other(p) { modify_field(standard_metadata.egress_spec, p); }
table tt { reads { %s } actions { act; other; } }
control ingress { apply(tt); }
`, fields, reads)
}

// diffTable is one randomized table shape under differential test.
type diffTable struct {
	rng       *rand.Rand
	sw        *Switch
	tbl       *table
	kinds     []string
	widths    []int
	withValid bool
}

// randParams draws an entry's match params. Ternary masks come from a pool
// where few-bit (wide-matching) and many-bit (narrow-matching) masks overlap.
func (d *diffTable) randParams() []MatchParam {
	var ps []MatchParam
	for i, k := range d.kinds {
		w := d.widths[i]
		v := randValue(d.rng, w)
		switch k {
		case "exact":
			ps = append(ps, Exact(v))
		case "ternary":
			masks := []bitfield.Value{
				bitfield.New(w),
				bitfield.Ones(w),
				bitfield.MaskRange(w, 0, 1),
				bitfield.MaskRange(w, 0, (w+1)/2),
				bitfield.MaskRange(w, w/2, w-w/2),
				randValue(d.rng, w),
			}
			ps = append(ps, Ternary(v, masks[d.rng.Intn(len(masks))]))
		case "lpm":
			ps = append(ps, LPM(v, d.rng.Intn(w+1)))
		}
	}
	if d.withValid {
		ps = append(ps, Valid(d.rng.Intn(2) == 0))
	}
	return ps
}

// probe builds a packet near an installed entry — its values, a few bits
// flipped — or a random one.
func (d *diffTable) probe() []byte {
	vals := make([]bitfield.Value, len(d.widths))
	for i, w := range d.widths {
		vals[i] = randValue(d.rng, w)
	}
	sel := d.rng.Intn(2)
	if es := d.tbl.entries; len(es) > 0 && d.rng.Intn(4) != 0 {
		e := es[d.rng.Intn(len(es))]
		for i := range d.widths {
			vals[i] = e.Params[i].Value.Clone()
		}
		if d.withValid && e.Params[len(d.widths)].ValidWant {
			sel = 1
		} else {
			sel = 0
		}
		for flips := d.rng.Intn(3); flips > 0; flips-- {
			i := d.rng.Intn(len(d.widths))
			vals[i].SetBit(d.rng.Intn(d.widths[i]), byte(d.rng.Intn(2)))
		}
	}
	widths := append(append([]int(nil), d.widths...), 8)
	vals = append(vals, bitfield.FromUint(8, uint64(sel)))
	total := 0
	for _, w := range widths {
		total += w
	}
	if pad := (8 - total%8) % 8; pad > 0 {
		widths = append(widths, pad)
		vals = append(vals, randValue(d.rng, pad))
	}
	data := packetFor(widths, vals)
	if sel == 1 {
		data = append(data, 0x5a)
	}
	return data
}

// runDiff drives one table shape through interleaved adds, deletes,
// modifies, clears and Dump→RestoreDump round trips, checking probes against
// linearLookup after each step. It returns how many probes ran.
func runDiff(t *testing.T, d *diffTable, desc string) int {
	probes := 0
	for step := 0; step < 60; step++ {
		switch r := d.rng.Intn(40); {
		case r < 24:
			if _, err := d.sw.TableAdd("tt", "act", d.randParams(), Args(9, 1), d.rng.Intn(4)); err != nil {
				t.Fatalf("%s: %v", desc, err)
			}
		case r < 30 && len(d.tbl.entries) > 0:
			h := d.tbl.entries[d.rng.Intn(len(d.tbl.entries))].Handle
			if err := d.sw.TableDelete("tt", h); err != nil {
				t.Fatalf("%s: %v", desc, err)
			}
		case r < 34 && len(d.tbl.entries) > 0:
			h := d.tbl.entries[d.rng.Intn(len(d.tbl.entries))].Handle
			if err := d.sw.TableModify("tt", h, "other", Args(9, 2)); err != nil {
				t.Fatalf("%s: %v", desc, err)
			}
		case r == 34:
			if err := d.sw.TableClear("tt"); err != nil {
				t.Fatalf("%s: %v", desc, err)
			}
		case r >= 35:
			// Writes after the dump are undone by the restore.
			dump := d.sw.Dump()
			if _, err := d.sw.TableAdd("tt", "act", d.randParams(), Args(9, 3), d.rng.Intn(4)); err != nil {
				t.Fatalf("%s: %v", desc, err)
			}
			d.sw.RestoreDump(dump)
		}
		for i := 0; i < 5; i++ {
			checkLookup(t, d.sw, d.tbl, d.probe(), fmt.Sprintf("%s step=%d", desc, step))
			probes++
		}
	}
	return probes
}

func TestLookupDifferentialTernary(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	probes := 0
	for shape := 0; shape < 30; shape++ {
		d := &diffTable{rng: rng}
		for n := 1 + rng.Intn(2); n > 0; n-- {
			d.kinds = append(d.kinds, "ternary")
			d.widths = append(d.widths, 1+rng.Intn(40))
		}
		d.sw = load(t, mixedProgram(d.kinds, d.widths, false))
		d.tbl = d.sw.tables["tt"]
		probes += runDiff(t, d, fmt.Sprintf("ternary widths=%v shape=%d", d.widths, shape))
	}
	if probes < 8000 {
		t.Fatalf("only %d ternary probes ran", probes)
	}
}

func TestLookupDifferentialMixed(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	probes := 0
	for shape := 0; shape < 30; shape++ {
		d := &diffTable{rng: rng, withValid: true}
		d.kinds = []string{"exact", "ternary", "lpm"}
		rng.Shuffle(len(d.kinds), func(i, j int) { d.kinds[i], d.kinds[j] = d.kinds[j], d.kinds[i] })
		for range d.kinds {
			d.widths = append(d.widths, 1+rng.Intn(24))
		}
		d.sw = load(t, mixedProgram(d.kinds, d.widths, true))
		d.tbl = d.sw.tables["tt"]
		probes += runDiff(t, d, fmt.Sprintf("mixed kinds=%v widths=%v shape=%d", d.kinds, d.widths, shape))
	}
	if probes < 8000 {
		t.Fatalf("only %d mixed probes ran", probes)
	}
}

// TestTableLookupGroupsIndependentOfEntries pins what makes an interpreted
// lookup cost the same at any table size: a ternary table's rows grow, its
// mask groups — the probes a lookup makes — do not.
func TestTableLookupGroupsIndependentOfEntries(t *testing.T) {
	groups := map[int]int{}
	for _, n := range []int{64, 2048} {
		_, tbl := ternaryTable(t, n)
		if len(tbl.entries) != n {
			t.Fatalf("%d entries installed, want %d", len(tbl.entries), n)
		}
		groups[n] = tbl.ix.Groups()
	}
	if groups[64] != groups[2048] || groups[64] != 3 {
		t.Fatalf("mask groups: %d at 64 entries, %d at 2048; want 3 at both", groups[64], groups[2048])
	}
}

// ternaryTable loads a two-field ternary table holding n entries over three
// masks: exact /32 rows, /16 prefixes with a wildcarded port, and a
// low-precedence catch-all.
func ternaryTable(tb testing.TB, n int) (*Switch, *table) {
	sw := load(tb, mixedProgram([]string{"ternary", "ternary"}, []int{32, 16}, false))
	for i := 0; i < n; i++ {
		var ps []MatchParam
		prio := 1
		switch {
		case i == n-1:
			ps = []MatchParam{TernaryUint(32, 0, 0), TernaryUint(16, 0, 0)}
			prio = 9
		case i%4 == 0:
			ps = []MatchParam{TernaryUint(32, uint64(i)<<16, 0xffff0000), TernaryUint(16, 0, 0)}
			prio = 2
		default:
			ps = []MatchParam{TernaryUint(32, uint64(i), 0xffffffff), TernaryUint(16, uint64(i), 0xffff)}
		}
		if _, err := sw.TableAdd("tt", "act", ps, Args(9, 1), prio); err != nil {
			tb.Fatal(err)
		}
	}
	return sw, sw.tables["tt"]
}

// BenchmarkTableLookup is one interpreted ternary lookup at growing table
// sizes; the ns/op should not move with the entry count.
func BenchmarkTableLookup(b *testing.B) {
	for _, n := range []int{64, 512, 2048} {
		b.Run(fmt.Sprintf("entries=%d", n), func(b *testing.B) {
			sw, tbl := ternaryTable(b, n)
			// The last exact row: every mask group is probed before it wins.
			last := uint64(n - 2)
			data := packetFor([]int{32, 16, 8}, []bitfield.Value{
				bitfield.FromUint(32, last), bitfield.FromUint(16, last), bitfield.New(8)})
			ps := sw.getState(data, 1)
			defer sw.putState(ps)
			if err := sw.parse(ps, &Trace{}); err != nil {
				b.Fatal(err)
			}
			if e, err := tbl.lookup(ps); err != nil || e == nil || e.Priority != 1 {
				b.Fatalf("warm-up lookup: %+v, %v", e, err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := tbl.lookup(ps); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
