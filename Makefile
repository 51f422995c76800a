GO ?= go

.PHONY: all build vet test race bench-smoke fuzz-smoke bench-check analyze ci

all: ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The whole suite under the race detector. Its concurrency-heavy parts are
# the interpreter's lookup differential (the shared mask-grouped index,
# internal/tuple, against a linear scan of the precedence-ordered entries),
# the fused-fast-path differential (fused vs interpreted runs agree on every
# output byte, entry hit and vdev counter while plan invalidation races live
# traffic and ProcessSeq bursts race table writes; DESIGN.md §13), the
# in-process fault-containment scenario (concurrent traffic, probes and
# management ops on one switch), and transport fault injection with the
# port breakers (seeded chaos schedules stay exact and breaker walks
# deterministic while racing live RX/TX loops). Allocation-count tests are
# built with //go:build !race and run in test.
race:
	$(GO) test -race ./...

# One pass of each interpreter, fuse and runtime benchmark keeps them
# compiling and running: BenchmarkProcessNative, BenchmarkTableLookup,
# BenchmarkFusedLookup, BenchmarkRunFastComposed, BenchmarkProcessSeqComposed
# (64- and 1-frame bursts), BenchmarkBuild (fuse.Build, the write path's compile step,
# with its B/op and allocs/op), BenchmarkWriteBatchUnderTraffic (a
# 16-op ctl batch on a fused l2 device while ProcessSeq runs beside it,
# without and with the journal, reporting plan compiles per batch),
# BenchmarkAllStats (one per-vdev stats scrape of an l2 device with
# 64, 512 and 2048 stations) and BenchmarkUDPForward (the packet I/O
# runtime around a null forwarder over loopback UDP, reporting pkt/s and
# allocs/frame).
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkProcessNative|BenchmarkTableLookup' -benchtime 1x ./internal/sim/
	$(GO) test -run '^$$' -bench 'BenchmarkFusedLookup|BenchmarkRunFastComposed|BenchmarkProcessSeqComposed|BenchmarkBuild' -benchmem -benchtime 1x ./internal/core/fuse/
	$(GO) test -run '^$$' -bench 'BenchmarkWriteBatchUnderTraffic' -benchtime 1x ./internal/core/ctl/
	$(GO) test -run '^$$' -bench 'BenchmarkAllStats' -benchtime 1x ./internal/core/dpmu/
	$(GO) test -run '^$$' -bench 'BenchmarkUDPForward' -benchtime 1x ./internal/runtime/

# Short fuzz runs over the management-script parser (no panics, and every
# rejection is an ErrUnknown / INVALID_ARGUMENT structured error), over
# the persona-row decoder (no panics, and every prep row it accepts
# re-encodes to the same args), over the P4 front end (no panics, and
# every program it accepts prints to a print/parse fixpoint), over the
# journal's snapshot decoder (no panics, and every state it accepts
# re-encodes to a fixpoint), over the word-wide bit operations (each
# agrees with a bit-at-a-time Bit/SetBit reference), over the shared
# first-match index (every lookup through random insert/delete sequences
# agrees with a first-match scan), over the journal's frame reader (no
# panics, and every payload it returns re-encodes to exactly the bytes it
# consumed), over table-entry admission (the DPMU accepts an entry iff
# native sim.TableAdd does and its priority is in [0, sim.MaxPriority]),
# and over port ownership (after every step of a random assign, clear,
# load/unload, snapshot and rollback sequence, PIDForPort, the interpreter
# and the fused port dispatch name one owner for every port).
# Seeded with a 170 KB snapshot, the snapshot run bounds minimization: at
# the default 60 s per new input it would spend the whole run minimizing.
fuzz-smoke:
	$(GO) test -run FuzzParseLine -fuzz FuzzParseLine -fuzztime 10s ./internal/core/ctl/
	$(GO) test -run FuzzDecodeRow -fuzz FuzzDecodeRow -fuzztime 10s ./internal/core/persona/rows/
	$(GO) test -run FuzzParseP4 -fuzz FuzzParseP4 -fuzztime 10s ./internal/p4/parser/
	$(GO) test -run FuzzRestoreState -fuzz FuzzRestoreState -fuzztime 10s -fuzzminimizetime 50x ./internal/core/dpmu/
	$(GO) test -run FuzzBitOps -fuzz FuzzBitOps -fuzztime 10s ./internal/bitfield/
	$(GO) test -run FuzzIndex -fuzz FuzzIndex -fuzztime 10s ./internal/tuple/
	$(GO) test -run FuzzReadFrame -fuzz FuzzReadFrame -fuzztime 10s ./internal/core/ctl/
	$(GO) test -run FuzzEntryAdmission -fuzz FuzzEntryAdmission -fuzztime 10s ./internal/core/dpmu/
	$(GO) test -run FuzzPortOwner -fuzz FuzzPortOwner -fuzztime 10s ./internal/core/dpmu/

# benchmark/ is its own module importing hyper4/internal/...; the bench
# driver builds it from source, so a PR that deletes or renames a symbol it
# uses must fail here, not there. Reads benchmark/, writes nothing in it.
bench-check:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# Repo-invariant analyzers (internal/analysis): the dpmu lock hierarchy and
# the sim hot-path allocation rules, enforced over the whole module.
analyze:
	$(GO) run ./cmd/hp4analyze ./...

ci: vet build analyze test race bench-smoke fuzz-smoke bench-check
