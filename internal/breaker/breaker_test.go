package breaker

import (
	"testing"
	"time"
)

var t0 = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// step applies one operation at t0+at and checks what it did: moved is the
// operation's report (Fault: a non-empty transition, which must name the new
// state; Reset: always true), state the breaker's state afterwards.
type step struct {
	op    string // fault | decay | probe | close | reset
	at    time.Duration
	moved bool
	state State
}

func fault(at time.Duration, moved bool, state State) step { return step{"fault", at, moved, state} }

// tripped is the three faults that trip a Trip=3 breaker at 0, 1s and 2s.
var tripped = []step{
	fault(0, true, Degraded),
	fault(time.Second, false, Degraded),
	fault(2*time.Second, true, Quarantined),
}

func steps(groups ...[]step) []step {
	var out []step
	for _, g := range groups {
		out = append(out, g...)
	}
	return out
}

func TestBreakerGraph(t *testing.T) {
	cfg := Config{Window: 10 * time.Second, Trip: 3, OpenFor: 5 * time.Second}
	for _, tc := range []struct {
		name          string
		trip          int // overrides cfg.Trip when set
		startAttempts int // Attempts before the first step
		steps         []step
		// after the last step, counting the window at its time
		trips     int64
		attempts  int
		count     int
		trippedAt time.Duration // checked when trips > 0
	}{
		{name: "healthy to degraded", steps: []step{fault(0, true, Degraded)}, count: 1},
		{name: "trip-1 faults only degrade",
			steps: tripped[:2], count: 2},
		{name: "trip-th fault trips and the window is kept",
			steps: tripped, trips: 1, count: 3, trippedAt: 2 * time.Second},
		{name: "healthy straight to quarantined", trip: 1,
			steps: []step{fault(time.Second, true, Quarantined)}, trips: 1, count: 1, trippedAt: time.Second},
		{name: "fault while quarantined counts and stays",
			steps: steps(tripped, []step{fault(3*time.Second, false, Quarantined)}), trips: 1, count: 4, trippedAt: 2 * time.Second},
		{name: "fault exactly Window old is pruned",
			steps: []step{
				fault(0, true, Degraded),
				fault(time.Second, false, Degraded),
				fault(10*time.Second, false, Degraded),
			}, count: 2},
		{name: "fault just inside Window still counts",
			steps: []step{
				fault(0, true, Degraded),
				fault(time.Second, false, Degraded),
				fault(10*time.Second-time.Nanosecond, true, Quarantined),
			}, trips: 1, count: 3, trippedAt: 10*time.Second - time.Nanosecond},
		{name: "degraded decays once the window empties", startAttempts: 2,
			steps: []step{
				fault(0, true, Degraded),
				{"decay", 10*time.Second - time.Nanosecond, false, Degraded},
				{"decay", 10 * time.Second, true, Healthy},
			}},
		{name: "decay leaves other states alone",
			steps: steps(tripped, []step{{"decay", time.Hour, false, Quarantined}}), trips: 1, trippedAt: 2 * time.Second},
		{name: "probe clears the window",
			steps: steps(tripped, []step{{"probe", 7 * time.Second, true, Probing}}), trips: 1, trippedAt: 2 * time.Second},
		{name: "probe needs quarantine",
			steps: []step{fault(0, true, Degraded), {"probe", time.Second, false, Degraded}}, count: 1},
		{name: "fault while probing re-trips and counts an attempt",
			steps: steps(tripped, []step{
				{"probe", 7 * time.Second, true, Probing},
				fault(8*time.Second, true, Quarantined),
			}), trips: 2, attempts: 1, count: 1, trippedAt: 8 * time.Second},
		{name: "close after a clean probe zeroes attempts",
			steps: steps(tripped, []step{
				{"probe", 7 * time.Second, true, Probing},
				fault(8*time.Second, true, Quarantined),
				{"probe", 20 * time.Second, true, Probing},
				{"close", 23 * time.Second, true, Healthy},
			}), trips: 2, trippedAt: 8 * time.Second},
		{name: "close needs probing",
			steps: steps(tripped, []step{{"close", 3 * time.Second, false, Quarantined}}), trips: 1, count: 3, trippedAt: 2 * time.Second},
		{name: "reset keeps trips",
			steps: steps(tripped, []step{
				{"probe", 7 * time.Second, true, Probing},
				fault(8*time.Second, true, Quarantined),
				{"reset", 9 * time.Second, true, Healthy},
			}), trips: 2, trippedAt: 8 * time.Second},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := cfg
			if tc.trip != 0 {
				c.Trip = tc.trip
			}
			var b Breaker
			if b.State() != Healthy {
				t.Fatalf("zero breaker is %q", b.State())
			}
			b.Attempts = tc.startAttempts
			var now time.Time
			for i, s := range tc.steps {
				now = t0.Add(s.at)
				var moved bool
				switch s.op {
				case "fault":
					got := b.Fault(c, now)
					moved = got != ""
					if moved && got != s.state {
						t.Fatalf("step %d: Fault returned %q, want %q", i, got, s.state)
					}
				case "decay":
					moved = b.Decay(c, now)
				case "probe":
					moved = b.Probe(now)
					if moved && !b.ProbeStart.Equal(now) {
						t.Fatalf("step %d: ProbeStart = %v, want %v", i, b.ProbeStart, now)
					}
				case "close":
					moved = b.Close()
				case "reset":
					b.Reset()
					moved = true
				default:
					t.Fatalf("step %d: unknown op %q", i, s.op)
				}
				if moved != s.moved || b.State() != s.state {
					t.Fatalf("step %d (%s @%v): moved=%v state=%q, want moved=%v state=%q",
						i, s.op, s.at, moved, b.State(), s.moved, s.state)
				}
			}
			if b.Trips != tc.trips || b.Attempts != tc.attempts {
				t.Errorf("Trips=%d Attempts=%d, want %d, %d", b.Trips, b.Attempts, tc.trips, tc.attempts)
			}
			if got := b.Count(c, now); got != tc.count {
				t.Errorf("Count = %d, want %d", got, tc.count)
			}
			if tc.trips > 0 && !b.TrippedAt.Equal(t0.Add(tc.trippedAt)) {
				t.Errorf("TrippedAt = %v, want %v", b.TrippedAt, t0.Add(tc.trippedAt))
			}
		})
	}
}

func TestConfigOr(t *testing.T) {
	def := Config{Window: 10 * time.Second, Trip: 5, OpenFor: 5 * time.Second}
	for _, tc := range []struct {
		in, want Config
	}{
		{Config{}, def},
		{Config{Window: -1, Trip: -1, OpenFor: -1}, def},
		{Config{Trip: 3}, Config{Window: 10 * time.Second, Trip: 3, OpenFor: 5 * time.Second}},
		{Config{Window: time.Second, Trip: 1, OpenFor: time.Millisecond}, Config{Window: time.Second, Trip: 1, OpenFor: time.Millisecond}},
	} {
		if got := tc.in.Or(def); got != tc.want {
			t.Errorf("%+v.Or(def) = %+v, want %+v", tc.in, got, tc.want)
		}
	}
}
