GO ?= go

.PHONY: all build vet test race lookup-race fuse-diff chaos-race chaos-smoke fuzz-smoke api-smoke io-smoke chaos-io-race bench-check analyze lint-smoke prove-smoke ci

all: ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The interpreter's lookup differential property test, explicitly under the
# race detector: the shared mask-grouped index (internal/tuple) against a
# linear scan of the precedence-ordered entries, over exact, LPM, ternary
# and mixed exact+ternary+LPM+valid tables through adds, deletes, modifies,
# clears and dump/restore round trips. One pass each of
# BenchmarkProcessNative and BenchmarkTableLookup keeps the interpreter's
# benchmarks compiling and running.
lookup-race:
	$(GO) test -race -run TestLookupDifferential ./internal/sim/
	$(GO) test -run '^$$' -bench 'BenchmarkProcessNative|BenchmarkTableLookup' -benchtime 1x ./internal/sim/

# The fused-fast-path differential harness, explicitly under the race
# detector: fused vs interpreted runs must agree on every output byte, every
# entry hit and vdev counter, and plan invalidation must stay safe while
# racing live traffic (DESIGN.md §13). The fuse package's own TestFused*
# cases hold its lookups through the shared mask-grouped index
# (internal/tuple) to a first-match scan and their probe count flat as
# tables grow; TestFusedOutputsOwnTheirBytes holds outputs
# clear of the pooled link-hop buffers. One pass each of BenchmarkFusedLookup,
# BenchmarkRunFastComposed and BenchmarkBuild (fuse.Build, the write path's
# compile step, with its B/op and allocs/op) keeps the benchmarks compiling
# and running.
fuse-diff:
	$(GO) test -race -run 'TestFused' ./internal/core/dpmu/ ./internal/core/fuse/
	$(GO) test -run '^$$' -bench 'BenchmarkFusedLookup|BenchmarkRunFastComposed|BenchmarkBuild' -benchmem -benchtime 1x ./internal/core/fuse/

# The end-to-end fault-containment scenario, explicitly under the race
# detector (concurrent traffic, probes, and management ops on one switch).
chaos-race:
	$(GO) test -race -run TestChaosHarness ./internal/core/ctl/

# Chaos smoke: boot the persona switch with seeded fault injection against
# program 1, drive traffic that panics inside the faulty device's actions,
# and watch /v1/health walk quarantined -> probing -> healthy. Each health
# poll advances the time-based breaker transitions, so the polls are part
# of the choreography: trip at ~1s, open interval 2s, probes at ~5s.
chaos-smoke:
	$(GO) build -o /tmp/hp4switch-ci ./cmd/hp4switch
	$(GO) build -o /tmp/hp4ctl-ci ./cmd/hp4ctl
	printf 'load l2 l2_switch\nassign 1 l2 1\nmap l2 2 2\nl2 table_add smac _nop 00:00:00:00:00:01\nl2 table_add dmac forward 00:00:00:00:00:02 => 2\n' > /tmp/hp4chaos-ci.cmds
	{ sleep 1; for i in 1 2 3; do echo "packet 1 0000000000020000000000010800$$(printf '0%.0s' $$(seq 1 100))"; done; \
	  sleep 4; for i in 1 2; do echo "packet 1 0000000000020000000000010800$$(printf '0%.0s' $$(seq 1 100))"; done; \
	  sleep 2; echo quit; } | \
		/tmp/hp4switch-ci -persona -commands /tmp/hp4chaos-ci.cmds -api-addr 127.0.0.1:19192 \
		-chaos "seed=7,attr=1,panic_every=1,panic_first=3" \
		-health-window 30s -health-trip 3 -health-open 2s -health-probes 2 > /tmp/hp4chaos-ci.out & \
	sleep 2; curl -sf http://127.0.0.1:19192/v1/health > /tmp/hp4chaos-ci.h1; \
	sleep 2; /tmp/hp4ctl-ci -addr http://127.0.0.1:19192 health > /tmp/hp4chaos-ci.h2; \
	sleep 2; /tmp/hp4ctl-ci -addr http://127.0.0.1:19192 health > /tmp/hp4chaos-ci.h3; wait
	grep -q '"state":"quarantined"' /tmp/hp4chaos-ci.h1
	grep -q 'l2: probing' /tmp/hp4chaos-ci.h2
	grep -q 'l2: healthy faults=3 trips=1' /tmp/hp4chaos-ci.h3
	@echo chaos smoke ok

# Short fuzz runs over the management-script parser (no panics, and every
# rejection is an ErrUnknown / INVALID_ARGUMENT structured error), over
# the persona-row decoder (no panics, and every prep row it accepts
# re-encodes to the same args), over the P4 front end (no panics, and
# every program it accepts prints to a print/parse fixpoint), over the
# journal's snapshot decoder (no panics, and every state it accepts
# re-encodes to a fixpoint), over the word-wide bit operations (each
# agrees with a bit-at-a-time Bit/SetBit reference), over the shared
# first-match index (every lookup through random insert/delete sequences
# agrees with a first-match scan), and over the journal's frame reader (no
# panics, and every payload it returns re-encodes to exactly the bytes it
# consumed). Seeded with a 170 KB snapshot, the
# snapshot run bounds minimization: at the default 60 s per new input it
# would spend the whole run minimizing.
fuzz-smoke:
	$(GO) test -run FuzzParseLine -fuzz FuzzParseLine -fuzztime 10s ./internal/core/ctl/
	$(GO) test -run FuzzDecodeRow -fuzz FuzzDecodeRow -fuzztime 10s ./internal/core/persona/rows/
	$(GO) test -run FuzzParseP4 -fuzz FuzzParseP4 -fuzztime 10s ./internal/p4/parser/
	$(GO) test -run FuzzRestoreState -fuzz FuzzRestoreState -fuzztime 10s -fuzzminimizetime 50x ./internal/core/dpmu/
	$(GO) test -run FuzzBitOps -fuzz FuzzBitOps -fuzztime 10s ./internal/bitfield/
	$(GO) test -run FuzzIndex -fuzz FuzzIndex -fuzztime 10s ./internal/tuple/
	$(GO) test -run FuzzReadFrame -fuzz FuzzReadFrame -fuzztime 10s ./internal/core/ctl/

# API smoke: boot the switch with the management API, configure a virtual
# device remotely via hp4ctl — the whole setup as ONE atomic batch — then
# query stats and a raw HTTP read, and assert the remotely-configured device
# forwards a packet injected on the switch side.
api-smoke:
	$(GO) build -o /tmp/hp4switch-ci ./cmd/hp4switch
	$(GO) build -o /tmp/hp4ctl-ci ./cmd/hp4ctl
	printf 'load l2 l2_switch\nassign 1 l2 1\nmap l2 2 2\nl2 table_add smac _nop 00:00:00:00:00:01\nl2 table_add dmac forward 00:00:00:00:00:02 => 2\n' > /tmp/hp4ctl-ci.cmds
	{ sleep 2; echo "packet 1 0000000000020000000000010800$$(printf '0%.0s' $$(seq 1 100))"; echo quit; } | \
		/tmp/hp4switch-ci -persona -api-addr 127.0.0.1:19191 > /tmp/hp4switch-api.out & \
	sleep 1; \
	/tmp/hp4ctl-ci -addr http://127.0.0.1:19191 -batch -f /tmp/hp4ctl-ci.cmds && \
	/tmp/hp4ctl-ci -addr http://127.0.0.1:19191 vdevs > /tmp/hp4ctl-ci.vdevs && \
	/tmp/hp4ctl-ci -addr http://127.0.0.1:19191 stats l2 > /tmp/hp4ctl-ci.stats && \
	curl -sf 'http://127.0.0.1:19191/v1/read?kind=vdevs' > /tmp/hp4ctl-ci.read; wait
	grep -qx 'l2' /tmp/hp4ctl-ci.vdevs
	grep -q '^passes=' /tmp/hp4ctl-ci.stats
	grep -q '"vdevs":\["l2"\]' /tmp/hp4ctl-ci.read
	grep -q 'port 2 <- ' /tmp/hp4switch-api.out
	@echo api smoke ok

# I/O smoke: boot the persona switch with the packet I/O runtime, configure
# the l2 device AND its UDP wire transports remotely via ctl port ops (the
# switch itself gets no traffic flags), then send a real frame over the wire
# with hp4io and assert it is forwarded out the other port's UDP peer and
# that the ring metric families scrape.
io-smoke:
	$(GO) build -o /tmp/hp4switch-ci ./cmd/hp4switch
	$(GO) build -o /tmp/hp4io-ci ./cmd/hp4io
	printf 'load l2 l2_switch\nassign 1 l2 1\nmap l2 2 2\nl2 table_add smac _nop 00:00:00:00:00:01\nl2 table_add dmac forward 00:00:00:00:00:02 => 2\nport attach 1 udp:127.0.0.1:19501\nport attach 2 udp:127.0.0.1:19503/127.0.0.1:19504\n' > /tmp/hp4io-ci.cmds
	{ sleep 5; echo quit; } | \
		/tmp/hp4switch-ci -persona -commands /tmp/hp4io-ci.cmds -metrics-addr 127.0.0.1:19590 > /tmp/hp4io-ci.out & \
	sleep 1; \
	/tmp/hp4io-ci recv -listen 127.0.0.1:19504 -n 1 -timeout 3s > /tmp/hp4io-ci.recv & \
	sleep 1; \
	/tmp/hp4io-ci send -to 127.0.0.1:19501 -hex "0000000000020000000000010800$$(printf '0%.0s' $$(seq 1 100))"; \
	sleep 1; curl -sf http://127.0.0.1:19590/metrics > /tmp/hp4io-ci.metrics; wait
	grep -q '^0000000000020000000000010800' /tmp/hp4io-ci.recv
	grep -q '^hyper4_rx_frames_total{port="1"} 1' /tmp/hp4io-ci.metrics
	grep -q '^hyper4_tx_frames_total{port="2"} 1' /tmp/hp4io-ci.metrics
	grep -q '^hyper4_ring_depth{port="1",worker="0",dir="rx"} 0' /tmp/hp4io-ci.metrics
	grep -q '^hyper4_io_processed_total 1' /tmp/hp4io-ci.metrics
	@echo io smoke ok

# Transport fault injection and the port breakers, explicitly under the race
# detector: seeded chaos schedules must stay exact (same seed, same faults;
# caps exact under concurrency) and breaker walks deterministic while racing
# live RX/TX loops.
chaos-io-race:
	$(GO) test -race ./internal/chaos/ ./internal/runtime/

# benchmark/ is its own module importing hyper4/internal/...; the bench
# driver builds it from source, so a PR that deletes or renames a symbol it
# uses must fail here, not there. Reads benchmark/, writes nothing in it.
bench-check:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# Repo-invariant analyzers (internal/analysis): the dpmu lock hierarchy and
# the sim hot-path allocation rules, enforced over the whole module.
analyze:
	$(GO) run ./cmd/hp4analyze ./...

# Data-plane verifier smoke: every artifact the repo ships must lint clean —
# the four guest functions at the reference persona geometry, the sequential
# composition at its wider pipeline, and the composition example script
# replayed onto a live persona switch.
lint-smoke:
	$(GO) run ./cmd/hp4lint p4src/l2_switch.p4 p4src/firewall.p4 p4src/router.p4 p4src/arp_proxy.p4
	$(GO) run ./cmd/hp4lint -stages 6 p4src/composed.p4
	$(GO) run ./cmd/hp4lint -script examples/scripts/composition.txt
	@echo lint smoke ok

# Equivalence-prover smoke (DESIGN.md §16): every builtin and every shipped
# guest .p4 must prove native = persona under a synthesized entry set, and a
# deliberately planted LPM-priority translation bug must fail the lint (exit
# 1, not a crash) with a replay-confirmed concrete counterexample — the
# prover never cries wolf, so the planted finding must carry a witness packet
# both concrete machines disagree on.
prove-smoke:
	$(GO) run ./cmd/hp4lint -prove -builtin l2_switch
	$(GO) run ./cmd/hp4lint -prove -builtin firewall
	$(GO) run ./cmd/hp4lint -prove -builtin router
	$(GO) run ./cmd/hp4lint -prove -builtin arp_proxy
	$(GO) run ./cmd/hp4lint -prove p4src/l2_switch.p4 p4src/firewall.p4 p4src/router.p4 p4src/arp_proxy.p4
	$(GO) run ./cmd/hp4lint -prove -prove-skew -builtin router > /tmp/hp4prove-ci.out 2>&1; test $$? -eq 1
	grep -q 'confirmed by replay' /tmp/hp4prove-ci.out
	@echo prove smoke ok

ci: vet build analyze race lookup-race fuse-diff chaos-race chaos-smoke fuzz-smoke lint-smoke prove-smoke api-smoke io-smoke chaos-io-race bench-check
