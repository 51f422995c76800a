// Package hotfix is the hotpath analyzer's fixture: a marked hot root, a
// root recognized by name (Switch.ProcessSeq), transitively hot helpers,
// suppressed exceptions and cold code.
package hotfix

import (
	"errors"
	"fmt"
	"time"
)

// process is the fixture's packet loop.
//
//hp4:hotpath
func process(p []byte) (int, error) {
	start := time.Now()      // want: time.Now in process
	scratch := map[int]int{} // want: map literal in process
	scratch[0] = len(p)
	if err := helper(p); err != nil {
		return 0, err
	}
	_ = start
	return scratch[0], nil
}

// helper is hot only because process calls it.
func helper(p []byte) error {
	if len(p) == 0 {
		msg := fmt.Sprintf("empty packet") // want: fmt.Sprintf in helper
		return errors.New(msg)
	}
	if len(p) > 9000 {
		return fmt.Errorf("jumbo: %d bytes", len(p)) // Errorf is exempt
	}
	deadline := time.Now() //hp4:allow hotpath (fixture's sanctioned clock read)
	_ = deadline
	idx := make(map[string]int, len(p)) // want: map allocation in helper
	_ = idx
	return nil
}

// Switch stands in for sim.Switch: its ProcessSeq is a hot root by name,
// with no directive.
type Switch struct{}

// ProcessSeq is the fixture's batch entry point.
func (sw *Switch) ProcessSeq(pkts [][]byte) {
	start := time.Now() //hp4:allow hotpath (fixture's sanctioned per-burst clock pair)
	for _, p := range pkts {
		sw.one(p)
	}
	_ = time.Since(start) //hp4:allow hotpath (see above)
}

// one is hot only because ProcessSeq calls it.
func (sw *Switch) one(p []byte) {
	stamp := time.Now() // want: time.Now in Switch.one, reachable from hot path root Switch.ProcessSeq
	_, _ = stamp, p
}

// cold is never reached from a hot root; nothing here is flagged.
func cold() string {
	return fmt.Sprintf("booted at %v", time.Now())
}
