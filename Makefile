GO ?= go

.PHONY: ci vet lint lint-github lint-json build test test-short race race-all race-engine race-svc race-wal race-sched race-wire race-shard race-load sched-verify svc-smoke crash-smoke soak bench bench-smoke sim-scale-smoke fuzz-smoke bench-svc-smoke bench-meta-smoke bench-load-smoke

# Full CI gate: static checks, build, the race-enabled test suite
# (includes the churn-soak test), the wire-protocol gates, and the
# simulator's pinned-fingerprint run at benchmark scale.
ci: vet lint build race-all fuzz-smoke bench-svc-smoke sim-scale-smoke

vet:
	$(GO) vet ./...

# Project-specific whole-program static analysis: interprocedural
# determinism taint, error taxonomy, lock discipline and lock-order
# cycles, context propagation, sync/atomic consistency, float
# equality, map-iteration order, Close handling, and the
# stale-suppression ratchet. Exits non-zero on any finding; suppress
# intentional ones with //lint:ignore <analyzer> <reason> (unused
# directives are themselves findings).
lint:
	$(GO) run ./cmd/adaptlint

# Same suite rendered as GitHub Actions annotations (inline PR
# comments) and as machine-readable JSON.
lint-github:
	$(GO) run ./cmd/adaptlint -format=github

lint-json:
	$(GO) run ./cmd/adaptlint -format=json

build:
	$(GO) build ./...

# Tier-1: the plain test suite.
test:
	$(GO) test ./...

# Fast loop: -short skips the churn soak and other long tests.
test-short:
	$(GO) test -short ./...

# The whole test suite under the race detector — the canonical
# full-coverage race gate (the focused race-* targets below are the
# fast loops).
race-all:
	$(GO) test -race ./...

race: race-all

# Focused race gate for the parallel experiment engine: the
# parallel≡sequential equivalence suite and the seeded trial runner
# under the race detector.
race-engine:
	$(GO) test -race ./internal/experiments/... ./internal/hadoopsim/...

# Focused race gate for the networked service layer: loopback TCP
# cluster end-to-end, partition survival, heartbeat-driven (λ, μ)
# convergence, and graceful-shutdown ordering under the race detector.
race-svc:
	$(GO) test -race ./internal/svc/...

# Focused race gate for the durability layer: the WAL itself plus the
# crash-recovery, failure-detector, and auto-repair tests in svc.
race-wal:
	$(GO) test -race ./internal/wal/...
	$(GO) test -race -run 'Durable|Crash|Journal|Snapshot|Detector|Repair|Epoch' ./internal/svc/

# Focused race gate for the failure-aware scheduler and the dynamic
# replication controller: speculation-policy properties, sibling-tie
# determinism, the dynamic-RF churn soak, and the scheduling-grid
# worker equivalence, all under the race detector.
race-sched:
	$(GO) test -race -run 'Speculat|Predictive|Redundant|Sibling|DynRF|DynamicRF|Scheduling' \
		./internal/hadoopsim/ ./internal/dfs/ ./internal/experiments/

# Focused race gate for the v2 wire protocol: frame codec, protocol
# equivalence (binary == JSON), the replication pipeline, and the
# chaos soak (3-deep chains under partitions + crashes, zero acked
# writes lost, no orphans), all under the race detector.
race-wire:
	$(GO) test -race -run 'Frame2|Wire|OpenWrite|OpenRead|ReadHdr|Ack|V2|DataPath|Equivalence|Pipeline|Scrub|StreamGet|BenchSvc' \
		./internal/svc/

# Focused race gate for the sharded namespace: the shard primitives
# (hash map, quotas, consistent-hash ring), the multi-directory WAL
# layout, and the sharded crash-recovery soak + meta bench in svc,
# all under the race detector.
race-shard:
	$(GO) test -race ./internal/shard/... ./internal/wal/...
	$(GO) test -race -run 'Shard|BenchMeta|Tenant|Ring|Hashring' ./internal/svc/ ./internal/dfs/ ./internal/placement/

# Focused race gate for the overload/gray-failure robustness stack:
# admission control, circuit breakers, hedged reads, pool-release on
# cancelled streams, and the headline overload soak (10x offered load
# + gray nodes, goodput >= 70% of unloaded, zero acked writes lost),
# all under the race detector.
race-load:
	$(GO) test -race -run 'Admission|Breaker|Hedge|Overload|StreamGetAbandoned|ServeWriteTorn|ClassOf' \
		./internal/svc/ ./internal/dfs/

# Coverage-guided fuzz smoke for the v2 frame codec: the decoder fuzz
# target (arbitrary bytes must never crash, leak pooled buffers, or
# yield an invalid frame) and the chunk-reassembly round-trip target,
# each for 15s on top of the committed seed corpus.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzDecodeFrame -fuzztime 15s ./internal/svc/
	$(GO) test -run '^$$' -fuzz FuzzChunkReassembly -fuzztime 15s ./internal/svc/

# Tiny end-to-end run of the wire benchmark: JSON vs binary data path
# on a loopback cluster must produce a BENCH_svc.json that -svc-verify
# accepts (parses, schema-stable, every cell verified, binary content
# fingerprints identical to JSON).
bench-svc-smoke:
	$(GO) run ./cmd/adapt-bench -exp svc \
		-svc-sizes 4096,65536 -svc-conc 1,2 -svc-ops 4 \
		-svc-out /tmp/BENCH_svc_smoke.json
	$(GO) run ./cmd/adapt-bench -svc-verify /tmp/BENCH_svc_smoke.json

# Tiny end-to-end run of the metadata benchmark: a small shard sweep
# under churn must produce a BENCH_meta.json that -meta-verify accepts
# (schema-stable, bit-deterministic per-shard replay, zero acked
# mutations lost, and shards=4 at least 2x the shards=1 throughput).
bench-meta-smoke:
	$(GO) run ./cmd/adapt-bench -exp meta \
		-meta-shards 1,4 -meta-ops 240 -meta-workers 8 \
		-meta-out /tmp/BENCH_meta_smoke.json
	$(GO) run ./cmd/adapt-bench -meta-verify /tmp/BENCH_meta_smoke.json

# Tiny end-to-end run of the overload benchmark: baseline vs 8x
# offered load with gray DataNodes must produce a BENCH_load.json that
# -load-verify accepts (goodput >= 0.70x baseline, every shed typed
# and fast, zero acknowledged writes lost).
bench-load-smoke:
	$(GO) run ./cmd/adapt-bench -exp load \
		-load-workers 3 -load-factor 8 -load-duration 1500ms \
		-load-out /tmp/BENCH_load_smoke.json
	$(GO) run ./cmd/adapt-bench -load-verify /tmp/BENCH_load_smoke.json

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

# Just the churn-soak invariants (10k chaos events, 32-node DFS).
soak:
	$(GO) test -race -run TestChurnSoak -v ./internal/chaos/

bench:
	$(GO) test -bench=. -benchmem ./...

# Three seconds of the repo benchmark's sim_scale workload (3072
# trace-derived hosts) on seed 1: exits non-zero unless every cell ran
# and the results fingerprint equal to benchmark/testdata/fingerprints.json,
# so a scheduling change that moves one simulated event fails here.
sim-scale-smoke:
	bash benchmark/run.sh --workload sim_scale --seed 1 --seconds 3 --trace 0

# Tiny end-to-end run of the benchmark harness: a small host/worker
# sweep must produce a BENCH_sim.json that -bench-verify accepts
# (parses, schema-stable, bit-identical across worker counts).
bench-smoke:
	$(GO) run ./cmd/adapt-bench -exp bench \
		-bench-hosts 48,96 -bench-workers 1,2 -bench-tasks 5 \
		-bench-out /tmp/BENCH_sim_smoke.json
	$(GO) run ./cmd/adapt-bench -bench-verify /tmp/BENCH_sim_smoke.json
