package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"

	"hyper4/internal/rmt"
)

// countsGoldenPath pins every counted result of the evaluation: match and
// pass counts, persona sizes, table sharing and the RMT mapping. Timing
// fields are zeroed before comparison, so only a change in what a scenario
// installs or how a packet travels moves it.
const countsGoldenPath = "testdata/counts_golden.json"

type countsGolden struct {
	Table1                []Table1Row
	Table23               []Table23Cell
	Table4                []Table4Row
	PassCounts            []PassCountRow
	FigureSweep           []FigurePoint
	Space                 SpaceRow
	RMTAnalysis           *rmt.Analysis
	GridAblation          []GridAblationRow
	DeviceDensity         []DensityRow
	PartialVirtualization []PartialRow
}

// TestCountsGolden checks the counted results against countsGoldenPath.
// After a deliberate change, replace the file's contents with the JSON the
// failure prints.
func TestCountsGolden(t *testing.T) {
	var g countsGolden
	var err error
	check := func(e error) {
		t.Helper()
		if e != nil {
			t.Fatal(e)
		}
	}
	g.Table1, err = Table1()
	check(err)
	g.Table23, err = Table23()
	check(err)
	g.Table4, err = Table4()
	check(err)
	g.PassCounts, err = PassCounts()
	check(err)
	g.FigureSweep, err = FigureSweep()
	check(err)
	g.Space, err = Space()
	check(err)
	g.RMTAnalysis, err = RMTAnalysis()
	check(err)
	g.GridAblation, err = GridAblation()
	check(err)
	g.DeviceDensity, err = DeviceDensity([]int{1, 2, 4, 8, 16})
	check(err)
	for i := range g.DeviceDensity {
		g.DeviceDensity[i].NsPerPkt = 0
	}
	g.PartialVirtualization, err = PartialVirtualization()
	check(err)
	for i := range g.PartialVirtualization {
		g.PartialVirtualization[i].FullNsPerPkt = 0
		g.PartialVirtualization[i].PartNsPerPkt = 0
	}
	got, err := json.MarshalIndent(g, "", "  ")
	check(err)
	got = append(got, '\n')
	want, err := os.ReadFile(countsGoldenPath)
	check(err)
	if !bytes.Equal(got, want) {
		t.Fatalf("counted results drifted from %s; got:\n%s", countsGoldenPath, got)
	}
}
