#!/usr/bin/env bash
# crash-smoke: end-to-end durability proof for the networked cluster.
#
# Boots two real DataNode daemons and a durable NameNode (-wal-dir) on
# loopback TCP, writes a file, kill -9's the NameNode, restarts it
# from the same WAL directory, and requires that (a) the file reads
# back byte-identical and (b) fsck reports the namespace fully
# replicated (exit 0). This is the shell-level twin of the
# TestCrashRecoverySoak unit test — same binary an operator runs.
#
# The cycle runs twice, each WAL root a SHARDS manifest beside one
# journal directory per shard: once with -shards 1 (one directory,
# shard-000) and once with -shards 4 (the write tenant-prefixed so
# quota accounting is on the recovered path), the twin of
# TestShardedCrashRecoverySoak. A final probe restarts the
# sharded WAL with the wrong -shards value and requires the NameNode
# to refuse: resharding an existing directory must never silently
# rehash the namespace.
set -euo pipefail

cd "$(dirname "$0")/.."

WORK="$(mktemp -d)"
BIN="$WORK/adapt-fs"
NN_ADDR="127.0.0.1:29870"
DN0_ADDR="127.0.0.1:29864"
DN1_ADDR="127.0.0.1:29865"
PIDS=()
NN_PID=""

cleanup() {
  for pid in "${PIDS[@]:-}"; do
    kill "$pid" 2>/dev/null || true
  done
  wait 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

say() { echo "crash-smoke: $*"; }

wait_ready() { # wait_ready NAME -- CMD...: retry CMD until it succeeds
  local name="$1"; shift
  for _ in $(seq 1 50); do
    if "$@" >/dev/null 2>&1; then
      return 0
    fi
    sleep 0.2
  done
  say "$name never became ready"
  return 1
}

go build -o "$BIN" ./cmd/adapt-fs
say "built $BIN"

"$BIN" serve-datanode -id 0 -listen "$DN0_ADDR" -namenode "$NN_ADDR" -heartbeat 300ms &
PIDS+=($!)
"$BIN" serve-datanode -id 1 -listen "$DN1_ADDR" -namenode "$NN_ADDR" -heartbeat 300ms &
PIDS+=($!)

start_namenode() { # start_namenode WAL_DIR SHARDS
  "$BIN" serve-namenode -listen "$NN_ADDR" -datanodes "$DN0_ADDR,$DN1_ADDR" \
    -replicas 2 -block-size 1024 -wal-dir "$1" -shards "$2" &
  NN_PID=$!
  PIDS+=($NN_PID)
  wait_ready "namenode" "$BIN" ls -namenode "$NN_ADDR"
}

stop_namenode() {
  kill -9 "$NN_PID"
  wait "$NN_PID" 2>/dev/null || true
}

crash_cycle() { # crash_cycle WAL_DIR SHARDS TENANT_FLAGS...
  local wal="$1" shards="$2"
  shift 2

  start_namenode "$wal" "$shards"
  say "cluster up, shards=$shards (namenode pid $NN_PID, wal dir $wal)"

  head -c 16384 /dev/urandom > "$WORK/payload.bin"
  "$BIN" put -namenode "$NN_ADDR" -adapt "$@" "$WORK/payload.bin" /data
  "$BIN" get -namenode "$NN_ADDR" "$@" /data "$WORK/before.bin"
  cmp "$WORK/payload.bin" "$WORK/before.bin"
  say "wrote and verified /data (16 KiB, replication 2)"

  say "kill -9 namenode (pid $NN_PID)"
  stop_namenode

  start_namenode "$wal" "$shards"
  say "namenode restarted from WAL (pid $NN_PID)"

  "$BIN" get -namenode "$NN_ADDR" "$@" /data "$WORK/after.bin"
  cmp "$WORK/payload.bin" "$WORK/after.bin"
  say "acknowledged write survived the crash byte-for-byte"

  # Heartbeats re-establish liveness; fsck must then report full health.
  wait_ready "post-crash fsck" "$BIN" fsck -namenode "$NN_ADDR"
  "$BIN" fsck -namenode "$NN_ADDR"
  say "fsck clean after recovery (shards=$shards)"
  stop_namenode
}

crash_cycle "$WORK/wal-one" 1
if [ ! -f "$WORK/wal-one/SHARDS" ] || [ ! -d "$WORK/wal-one/shard-000" ]; then
  say "one-shard WAL layout missing SHARDS manifest or shard-000 directory"
  exit 1
fi
say "one-shard WAL layout verified (SHARDS manifest + shard-000 directory)"

crash_cycle "$WORK/wal-sharded" 4 -tenant acme
if [ ! -f "$WORK/wal-sharded/SHARDS" ] || [ ! -d "$WORK/wal-sharded/shard-003" ]; then
  say "sharded WAL layout missing SHARDS manifest or shard-003 directory"
  exit 1
fi
say "sharded WAL layout verified (SHARDS manifest + per-shard directories)"

# Resharding must be refused, not silently rehashed.
set +e
timeout 10 "$BIN" serve-namenode -listen "$NN_ADDR" -datanodes "$DN0_ADDR,$DN1_ADDR" \
  -replicas 2 -block-size 1024 -wal-dir "$WORK/wal-sharded" -shards 8 2> "$WORK/reshard.err"
rc=$?
set -e
if [ "$rc" -eq 0 ] || [ "$rc" -eq 124 ]; then
  say "namenode accepted -shards 8 over a 4-shard WAL (rc=$rc) — FAIL"
  exit 1
fi
grep -qi "shard" "$WORK/reshard.err"
say "reshard attempt correctly refused: $(cat "$WORK/reshard.err")"
say "PASS"
