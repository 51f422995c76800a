// Package prove is a symbolic equivalence prover for the HyPer4 emulation:
// it checks that a target P4 program and its persona emulation compute the
// same packet-in/packet-out relation over the WHOLE input space, not just
// over sampled traffic (the differential tests' job).
//
// A program is modeled as a finite set of leaves. Each leaf pairs a region
// of the symbolic input space (a positive cube plus negative cubes over the
// bits of an L-byte packet and a 9-bit ingress port) with an effect summary:
// dropped or delivered, the egress port, and the final wire image, all as
// vectors of symbolic bits (input bits, constants, or canonical operation
// terms such as field adds and the IPv4-checksum fix-up).
//
// The native frontend builds leaves from the HLIR program plus the live
// native table state (parse-graph walk, control-flow walk, one world per
// (entry, earlier-entries-miss) combination in match-precedence order). The
// persona frontend is deliberately independent of the compiler's bookkeeping:
// it walks the persona's own installed rows — t_parse_ctrl walks, stage
// a_set_match rows, a_prep_* primitive rows, and the te_csum fix-up — as
// decoded by the row model the fused fast path also builds from
// (internal/core/persona/rows), so bugs in the hp4c/DPMU translation layer
// change the decoded model and surface as inequivalence. The proof's
// independence comes from its two routes, HLIR→native model against
// hp4c→rows→model, not from decoding the same rows twice; a row the model
// cannot decode leaves the proof inconclusive.
//
// Comparison intersects leaf regions pairwise and compares effects bit by
// bit. A divergent region is witnessed by a concrete packet (cube-avoidance
// search) and replayed through both concrete switches: only a divergence the
// replay reproduces is reported as an error — the prover never cries wolf —
// while model/replay disagreement and unsupported constructs degrade to
// warning-severity inconclusive findings that name what was not proven.
package prove
