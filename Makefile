GO ?= go

.PHONY: ci vet lint lint-github build test test-short race-all sched-verify svc-smoke crash-smoke dfs-smoke soak bench sim-smoke fuzz-smoke

# Full CI gate: static checks, build, the race-enabled test suite
# (includes every soak), the frame-codec fuzz smoke, and the
# simulator workloads' pinned-fingerprint runs at benchmark scale.
ci: vet lint build race-all fuzz-smoke sim-smoke

vet:
	$(GO) vet ./...

# Project-specific whole-program static analysis: interprocedural
# determinism taint, error taxonomy, lock discipline (unlocks, hooks
# under locks, lock-order cycles, leaf shard locks), context
# propagation, sync/atomic consistency, float equality, map-iteration
# order, Close handling, and the stale-suppression ratchet. Exits non-zero on any finding; suppress
# intentional ones with //lint:ignore <analyzer> <reason> (unused
# directives are themselves findings).
lint:
	$(GO) run ./cmd/adaptlint

# Same suite rendered as GitHub Actions annotations (inline PR
# comments).
lint-github:
	$(GO) run ./cmd/adaptlint -format=github

build:
	$(GO) build ./...

# Tier-1: the plain test suite.
test:
	$(GO) test ./...

# Fast loop: -short skips the churn soak and other long tests.
test-short:
	$(GO) test -short ./...

# The whole test suite under the race detector.
race-all:
	$(GO) test -race ./...

# Coverage-guided fuzz smoke for the frame codec, which is the whole
# wire (calls, replies and errors ride the frames block streams do):
# the decoder fuzz target (arbitrary bytes must never crash, leak
# pooled buffers, or yield an invalid frame) and the chunk-reassembly
# round-trip target, each for 15s on top of the committed seed corpus.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzDecodeFrame -fuzztime 15s ./internal/svc/
	$(GO) test -run '^$$' -fuzz FuzzChunkReassembly -fuzztime 15s ./internal/svc/

# Determinism gate for the headline scheduling experiment: the full
# policy x replication x Table-2 grid must fingerprint identically at
# workers=1 and workers=4, and predictive/dynamic must beat the static
# reactive baseline under the hottest interruption group.
sched-verify:
	$(GO) run ./cmd/adapt-bench -exp sched-verify

# End-to-end smoke of the networked cluster binary: boot a loopback
# NameNode + DataNodes, write a file, partition a replica holder, read
# through failover, heal, and adapt-rebalance from heartbeats.
svc-smoke:
	$(GO) run ./cmd/adapt-fs local-demo -nodes 4 -blocks 8

# Shell-level durability smoke: real daemons on loopback, kill -9 the
# durable NameNode mid-run, restart from the WAL directory, verify the
# acknowledged file byte-for-byte and fsck health.
crash-smoke:
	bash scripts/crash-smoke.sh

# Two seconds of each of the repo benchmark's DFS workloads on seed 1,
# through real loopback DataNodes: every get is checked byte for byte
# against what was put and every put for full replication, and
# small_files ends with a crash, a restart and a re-read. Any failed
# operation exits non-zero.
dfs-smoke:
	for w in bulk_io small_files mixed_rw; do \
		bash benchmark/run.sh --workload $$w --seed 1 --seconds 2 || exit 1; \
	done

# Just the churn-soak invariants (10k chaos events, 32-node DFS).
soak:
	$(GO) test -race -run TestChurnSoak -v ./internal/chaos/

bench:
	$(GO) test -bench=. -benchmem ./...

# Three seconds of each of the repo benchmark's simulator workloads on
# seed 1: sim_scale (3072 trace-derived hosts) and sim_emulation (256
# Table-2 nodes, whose adapt/3rep series is the only pinned k = 3 ADAPT
# placement at benchmark scale). Each exits non-zero unless every cell
# ran and the results fingerprint equal to
# benchmark/testdata/fingerprints.json, so a placement or scheduling
# change that moves one simulated event fails here.
sim-smoke:
	for w in sim_scale sim_emulation; do \
		bash benchmark/run.sh --workload $$w --seed 1 --seconds 3 --trace 0 || exit 1; \
	done
