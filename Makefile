GO ?= go

.PHONY: ci vet lint lint-github build test test-short race-all hedge-stress sched-verify svc-smoke crash-smoke dfs-smoke examples-smoke experiments-smoke soak bench sim-smoke fuzz-smoke bench-pairs

# Full CI gate: static checks, build, the race-enabled test suite
# (includes every soak), the repeated hedged-read race check, the
# frame-codec fuzz smoke, and the simulator workloads'
# pinned-fingerprint runs at benchmark scale. LINT names the adaptlint
# target: CI passes LINT=lint-github for inline annotations, so the
# suite runs once either way.
LINT ?= lint
ci: vet $(LINT) build race-all hedge-stress fuzz-smoke sim-smoke

vet:
	$(GO) vet ./...

# Project-specific whole-program static analysis: interprocedural
# determinism taint, error taxonomy, lock discipline (unlocks, hooks
# under locks, lock-order cycles, leaf shard locks), context
# propagation, sync/atomic consistency, float equality, map-iteration
# order, Close handling, code no program reaches, and the
# stale-suppression ratchet. Exits non-zero on any finding; suppress
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

# Hedged reads and pinned replica reads repeated under the race
# detector. A block read fetches one replica at a time on the reader's
# goroutine, in place in the file being assembled; a hedge's one backup
# runs on its timer's goroutine into a buffer of its own. The file
# comes back exact only because a winning backup is appended after the
# in-place fetch has returned, when nothing can still write past the
# file's end, and a fetch that fails waits for the backup rather than
# starting a third; a served replica stays intact only because its reader's pin keeps the
# buffer out of the replica pool until the stream ends, while the block
# is deleted and re-put into recycled memory beside it. A single
# race-enabled run may not interleave them that way, ten usually do.
hedge-stress:
	$(GO) test -race -count=10 -run 'Hedge|Pinned' ./internal/dfs/ ./internal/svc/

# Coverage-guided fuzz smoke for the decoders that read bytes they did
# not write, 30s in all, each target for 5s on top of its committed
# seed corpus: the frame codec, which is the whole wire (calls, replies
# and errors ride the frames block streams do) — the decoder target
# (arbitrary bytes must never crash, write past the destination, or
# yield an invalid frame) and the chunk-reassembly round trip — the trace CSV
# decoder (never panics; whatever it accepts survives a write and a
# re-read unchanged), the WAL segment decoder (a damaged final
# segment replays a prefix of what was written; a damaged earlier one
# is ErrCorrupt), the WAL root's mark and SHARDS manifest reads
# (ErrCorrupt, or a value that survives its writer unchanged), and the
# snapshot and record payloads a durable NameNode replays (an error, or
# a namespace a checkpoint and a re-open reproduce).
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzDecodeFrame -fuzztime 5s ./internal/svc/
	$(GO) test -run '^$$' -fuzz FuzzChunkReassembly -fuzztime 5s ./internal/svc/
	$(GO) test -run '^$$' -fuzz FuzzReplayNamespace -fuzztime 5s ./internal/svc/
	$(GO) test -run '^$$' -fuzz FuzzReadCSV -fuzztime 5s ./internal/trace/
	$(GO) test -run '^$$' -fuzz FuzzWALSegment -fuzztime 5s ./internal/wal/
	$(GO) test -run '^$$' -fuzz FuzzLoadMark -fuzztime 5s ./internal/wal/

# Determinism gate for the scheduling experiment: the full
# speculation-policy x Table-2-group grid must fingerprint identically
# at workers=1 and workers=4.
sched-verify:
	$(GO) run ./cmd/adapt-bench -exp sched-verify

# End-to-end smoke of the networked cluster binary: boot a loopback
# NameNode + DataNodes, write a file, partition a replica holder, read
# through failover, heal, adapt-rebalance from heartbeats, then delete a
# file with a holder partitioned and run one repair scan. Exits non-zero
# unless the heartbeats taught the NameNode λ > 0 for exactly the two
# flaky nodes, adapt left them fewer replicas per node than the
# reliable ones, and the scan left no block of the deleted file on any
# DataNode.
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

# This checkout against commit BASE on workload W: N alternating pairs
# of benchmark runs at BENCHMARK.json's run length on seeds 1..N, each
# side's medians and quartiles, the pairs won per end-to-end metric,
# and the verdict of the claim rule (scripts/bench-pairs.sh; needs
# jq). BASE is checked out in a temporary git worktree.
N ?= 10
bench-pairs:
	@test -n "$(BASE)" -a -n "$(W)" || { echo "usage: make bench-pairs BASE=<ref> W=<workload> [N=10]" >&2; exit 2; }
	bash scripts/bench-pairs.sh $(BASE) $(W) $(N)

# Every program under examples/ runs to completion and prints, byte
# for byte, the stdout committed as its testdata/stdout.golden. The
# examples are deterministic (fixed seeds), so any diff is a change in
# what the library computes or reports.
examples-smoke:
	out=$$(mktemp) && trap 'rm -f "$$out"' EXIT && \
	for d in examples/*/; do \
		$(GO) run ./$$d > "$$out" || exit 1; \
		diff -u $${d}testdata/stdout.golden "$$out" || exit 1; \
	done

# adapt-bench's whole evaluation, twice: at the default scale with
# charts, and at quarter scale as markdown (which also exercises a
# clamped, deduplicated node sweep). Each run's stdout must match its
# golden under cmd/adapt-bench/testdata byte for byte. Every experiment
# is deterministic per seed at any worker count, so a diff is a change
# in what the experiments compute or how they render it.
experiments-smoke:
	out=$$(mktemp) && trap 'rm -f "$$out"' EXIT && \
	$(GO) run ./cmd/adapt-bench -exp all -charts > "$$out" && \
	diff -u cmd/adapt-bench/testdata/all-charts.golden "$$out" && \
	$(GO) run ./cmd/adapt-bench -exp all -scale 0.25 -markdown > "$$out" && \
	diff -u cmd/adapt-bench/testdata/all-scale025-markdown.golden "$$out"

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
# change that moves one simulated event fails here. One iteration of
# the placement and simulator micro-benchmarks keeps them running.
sim-smoke:
	for w in sim_scale sim_emulation; do \
		bash benchmark/run.sh --workload $$w --seed 1 --seconds 3 --trace 0 || exit 1; \
	done
	$(GO) test -run '^$$' -bench 'BenchmarkPlaceAll|BenchmarkRunScale/hosts=1024|BenchmarkRunEmulation' \
		-benchtime 1x ./internal/placement ./internal/hadoopsim
