#!/usr/bin/env bash
# Local mirror of .github/workflows/ci.yml — run before pushing.
#
# Offline friendly: no network installs.  The repository runs straight
# off PYTHONPATH=src, so nothing needs to be pip-installed at all; when
# an editable install is wanted on a wheel-less environment, use
#
#     pip install -e . --no-build-isolation
#
# (plain `pip install -e .` needs the `wheel` package, which minimal
# containers lack; setup.py ships a shim that makes the legacy editable
# path work without it).
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== tier-1 test suite (benchmarks deselected via -m 'not slow') =="
python -m pytest -x -q

echo "== bench guards (recorded speedup floors) =="
python -m pytest tests/test_bench_guard.py -q

# Opt-in benchmark refresh: regenerates results/*.csv + BENCH_*.json
# through the same entry point developers use (`repro bench`).  Off by
# default — the recorded summaries are committed and the guards above
# enforce their floors without paying benchmark runtime.
if [[ "${RUN_BENCH:-0}" == "1" ]]; then
    echo "== benchmark suite (repro bench) =="
    python -m repro bench
fi

echo "== service smoke: detect must match the golden stream to the byte =="
SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "$SMOKE_DIR"' EXIT
GOLDEN=tests/golden/detect_smoke_alerts.jsonl
python -m repro detect --smoke --cache-dir "$SMOKE_DIR/cache" \
    --alerts "$SMOKE_DIR/live.jsonl"
cmp "$GOLDEN" "$SMOKE_DIR/live.jsonl"

echo "== crash-recovery smoke: kill, resume, byte-identical alerts =="
# Twice, so a flaky pass can't hide: interrupt the guarded replay at
# tick 3 with per-tick checkpoints, resume from the snapshot, and the
# stitched alert stream must equal the uninterrupted run to the byte.
for attempt in 1 2; do
    rm -f "$SMOKE_DIR/ck.npz" "$SMOKE_DIR/resumed.jsonl"
    python -m repro detect --smoke --cache-dir "$SMOKE_DIR/cache" \
        --checkpoint "$SMOKE_DIR/ck.npz" --stop-after 3 \
        --alerts "$SMOKE_DIR/resumed.jsonl"
    python -m repro detect --smoke --cache-dir "$SMOKE_DIR/cache" \
        --checkpoint "$SMOKE_DIR/ck.npz" --resume \
        --alerts "$SMOKE_DIR/resumed.jsonl"
    cmp "$SMOKE_DIR/live.jsonl" "$SMOKE_DIR/resumed.jsonl"
done

echo "== chaos scenario smoke (seeded faults + kill-and-restore) =="
python -m repro run fleet-detect-chaos --smoke --cache-dir "$SMOKE_DIR/cache"

echo "== telemetry store smoke: replay-from-store must match live =="
# Record the smoke window into a repro-telestore/v1 store, replay it,
# and the alert JSONL must equal the golden stream of live guarded
# ingestion of the same feed — byte for byte.
python -m repro store record "$SMOKE_DIR/telestore" --smoke \
    --cache-dir "$SMOKE_DIR/cache"
python -m repro store verify "$SMOKE_DIR/telestore"
python -m repro detect --smoke --cache-dir "$SMOKE_DIR/cache" \
    --from-store "$SMOKE_DIR/telestore" \
    --alerts "$SMOKE_DIR/store.jsonl"
cmp "$GOLDEN" "$SMOKE_DIR/store.jsonl"
python -m repro run fleet-replay --smoke --cache-dir "$SMOKE_DIR/cache"

echo "== network serve smoke: loopback ingestion must match in-process =="
# A 50-node replicated smoke fleet served over a loopback socket: start
# the ingestion server on an ephemeral port, drive it with the CLI load
# generator, and the network-ingested alert JSONL must equal in-process
# replay of the same fleet — byte for byte.  (serve/loadgen default to
# the 30-sample serving burst; pin --chunk 200 to match detect --smoke.)
rm -f "$SMOKE_DIR/port" "$SMOKE_DIR/net.jsonl"
python -m repro serve --smoke --cache-dir "$SMOKE_DIR/cache" \
    --replicate 50 --chunk 200 --listen 127.0.0.1:0 \
    --port-file "$SMOKE_DIR/port" --exit-on-idle \
    --alerts "$SMOKE_DIR/net.jsonl" &
SERVE_PID=$!
for _ in $(seq 1 150); do
    [[ -s "$SMOKE_DIR/port" ]] && break
    sleep 0.2
done
[[ -s "$SMOKE_DIR/port" ]] || { echo "serve never wrote its port file"; exit 1; }
python -m repro loadgen --smoke --cache-dir "$SMOKE_DIR/cache" \
    --replicate 50 --chunk 200 \
    --connect "127.0.0.1:$(cat "$SMOKE_DIR/port")"
wait "$SERVE_PID"
python -m repro detect --smoke --cache-dir "$SMOKE_DIR/cache" \
    --replicate 50 --chunk 200 --alerts "$SMOKE_DIR/inproc.jsonl"
cmp "$SMOKE_DIR/net.jsonl" "$SMOKE_DIR/inproc.jsonl"
python -m repro run fleet-serve --smoke --cache-dir "$SMOKE_DIR/cache"

echo "== durable serve smoke: supervised kill -9 under network chaos =="
# The crash-durability claim end to end, against the real CLI: a
# supervised `repro serve` with a write-ahead journal and per-tick
# networked checkpoints, fed by a resuming loadgen through the seeded
# chaos proxy.  Mid-stream the serving child is SIGKILLed via its pid
# file; the supervisor respawns it, recovery replays checkpoint + WAL,
# the proxy and client follow the port file onto the fresh ephemeral
# port — and the final alert JSONL must still equal the in-process
# replay, byte for byte.
rm -rf "$SMOKE_DIR/wal"
rm -f "$SMOKE_DIR/dport" "$SMOKE_DIR/cport" "$SMOKE_DIR/serve.pid" \
    "$SMOKE_DIR/durable.jsonl" "$SMOKE_DIR/durable.npz"
python -m repro serve --smoke --cache-dir "$SMOKE_DIR/cache" \
    --chunk 200 --listen 127.0.0.1:0 --port-file "$SMOKE_DIR/dport" \
    --exit-on-idle --supervise --pid-file "$SMOKE_DIR/serve.pid" \
    --wal "$SMOKE_DIR/wal" --wal-fsync tick \
    --checkpoint "$SMOKE_DIR/durable.npz" --checkpoint-every 1 \
    --model "$SMOKE_DIR/fleet.npz" \
    --alerts "$SMOKE_DIR/durable.jsonl" &
SUP_PID=$!
for _ in $(seq 1 150); do
    [[ -s "$SMOKE_DIR/dport" ]] && break
    sleep 0.2
done
[[ -s "$SMOKE_DIR/dport" ]] || { echo "supervised serve never bound"; exit 1; }
python -m repro netchaos --listen 127.0.0.1:0 \
    --upstream-port-file "$SMOKE_DIR/dport" \
    --port-file "$SMOKE_DIR/cport" \
    --seed 0 --corrupt-per-mb 2 --truncate-per-mb 0.5 &
CHAOS_PID=$!
for _ in $(seq 1 50); do
    [[ -s "$SMOKE_DIR/cport" ]] && break
    sleep 0.2
done
[[ -s "$SMOKE_DIR/cport" ]] || { echo "chaos proxy never bound"; exit 1; }
# Pace the feed so the kill below reliably lands mid-stream.
python -m repro loadgen --smoke --cache-dir "$SMOKE_DIR/cache" \
    --chunk 200 --interval 0.25 --resume \
    --port-file "$SMOKE_DIR/cport" &
LOAD_PID=$!
# A checkpoint on disk proves durable progress; then kill -9 the child.
for _ in $(seq 1 300); do
    [[ -f "$SMOKE_DIR/durable.npz" ]] && break
    sleep 0.1
done
[[ -f "$SMOKE_DIR/durable.npz" ]] || { echo "no checkpoint before kill"; exit 1; }
kill -9 "$(cat "$SMOKE_DIR/serve.pid")"
wait "$LOAD_PID"
wait "$SUP_PID"
kill "$CHAOS_PID" 2>/dev/null || true
cmp "$SMOKE_DIR/live.jsonl" "$SMOKE_DIR/durable.jsonl"
python -m repro run fleet-serve-chaos --smoke --cache-dir "$SMOKE_DIR/cache"

# Lint runs when ruff is available; the lint job in GitHub Actions is
# authoritative.  Installing ruff needs network access, so offline
# containers simply skip this step.
if command -v ruff >/dev/null 2>&1; then
    echo "== ruff lint =="
    ruff check src tests benchmarks examples
else
    echo "== ruff not installed; skipping lint (CI's lint job runs it) =="
fi

echo "CI mirror passed."
