//go:build race

package main

// Under the race detector a write stalls forwarding for whole (tiny) smoke
// segments, so the smoke test does not insist on a non-zero median rate.
const raceDetector = true
