"""Benchmark: fused single-pass tick path vs the staged pipeline.

The fused :class:`~repro.engine.hotpath.TickArena` claim: at serving
cadence (one window step per tick, ``chunk = ws``) a preallocated
single-pass tick — gather-into-ring normalization, one prefix-sum
reduction, lockstep forest votes — beats the staged
``FleetIngest → signature_features → forest`` pipeline (the test-only
reference in ``repro.service._staged_reference``) by >= 2x on a
64-node fleet while producing a **bit-identical** alert stream in
``exact`` mode (asserted here).  ``float32`` and ``quantized`` modes
trade signature precision for further throughput and memory; their
measured window accuracy is recorded alongside so the tradeoff is a
number, not a claim.

Results merge into ``results/tick_hotpath.csv`` and a summary is
written to ``BENCH_tick.json``; ``tests/test_bench_guard.py`` fails if
the recorded headline drops below the committed 2x floor or any
recorded speedup falls below 1x.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from benchmarks.conftest import SCALE, TREES, merge_csv
from repro.service._staged_reference import use_backend
from repro.service.detector import FleetFaultDetector
from repro.service.replay import fleet_recipes, prepare_fleet, replay

ROOT = Path(__file__).resolve().parent.parent
RESULTS_CSV = ROOT / "results" / "tick_hotpath.csv"
SUMMARY_JSON = ROOT / "BENCH_tick.json"
CSV_HEADERS = (
    "Chunk",
    "Backend",
    "Windows",
    "Accuracy",
    "Replay [s]",
    "Windows/s",
    "Speedup",
    "State/node [KiB]",
)

NODES = 64
BLOCKS = 20
#: Serving cadence (one window step per tick) is the headline; the
#: larger chunk shows the gap narrowing as staged overhead amortizes.
CHUNKS = (10, 30)
REPS = 3

#: (backend, mode) columns; staged/exact is the baseline of each chunk.
CONFIGS = (
    ("staged", "exact"),
    ("fused", "exact"),
    ("fused", "float32"),
    ("fused", "quantized"),
)

_rows: list[tuple] = []
_summary: dict[str, float] = {}
_mem_per_node: dict[str, float] = {}


@pytest.fixture(scope="module")
def setup64():
    return prepare_fleet(
        fleet_recipes(NODES, t=int(1500 * SCALE)),
        blocks=BLOCKS,
        trees=TREES,
        seed=0,
    )


def _config_name(backend: str, mode: str) -> str:
    return backend if backend == "staged" else f"fused/{mode}"


def test_memory_per_node(setup64):
    """Record the arena's resident bytes per node for every mode."""
    for mode in ("exact", "float32", "quantized"):
        det = FleetFaultDetector(setup64.trained, mode=mode)
        rep = det.memory_report()
        assert rep["nodes"] == NODES
        _mem_per_node[mode] = rep["per_node_total_bytes"]
        _summary[f"memory_per_node_{mode}_bytes"] = rep[
            "per_node_total_bytes"
        ]
    # The reduced-precision modes must actually shrink the state
    # (quantized runs float32 arithmetic plus a uint8 feature view, so
    # it sits just above float32 but well below exact).
    assert _mem_per_node["float32"] < _mem_per_node["exact"]
    assert _mem_per_node["quantized"] < _mem_per_node["exact"]


@pytest.mark.parametrize("chunk", CHUNKS)
def test_fused_tick_beats_staged(setup64, chunk):
    # Interleave the configurations across repetitions so slow machine
    # drift (thermal, noisy neighbours) hits every config equally; keep
    # the best of REPS per config.
    best: dict[tuple, float] = {}
    outcomes: dict[tuple, object] = {}
    for _ in range(REPS):
        for backend, mode in CONFIGS:
            with use_backend(backend):
                out = replay(setup64, chunk=chunk, mode=mode)
            key = (backend, mode)
            outcomes[key] = out
            if key not in best or out.replay_time_s < best[key]:
                best[key] = out.replay_time_s
    staged = outcomes[("staged", "exact")]
    fused = outcomes[("fused", "exact")]
    # The exact-mode contract: identical chunking => identical events,
    # byte for byte and in the same order.
    assert fused.events == staged.events, (
        "fused exact mode diverged from the staged alert stream"
    )
    assert fused.n_windows == staged.n_windows > 0
    staged_s = best[("staged", "exact")]
    for backend, mode in CONFIGS:
        out = outcomes[(backend, mode)]
        secs = best[(backend, mode)]
        speedup = staged_s / secs
        state_kib = (
            _mem_per_node.get(mode, 0.0) / 1024.0
            if backend == "fused"
            else 0.0
        )
        _rows.append(
            (
                chunk,
                _config_name(backend, mode),
                out.n_windows,
                round(out.window_accuracy, 4),
                round(secs, 4),
                round(out.n_windows / secs, 1),
                round(speedup, 2),
                round(state_kib, 1),
            )
        )
        if backend == "fused":
            serving = chunk == CHUNKS[0]
            base = "tick" if serving else f"tick_chunk{chunk}"
            name = "fused" if mode == "exact" else mode
            _summary[f"{base}_{name}_speedup"] = round(speedup, 2)
            if mode == "exact":
                _summary[f"{base}_staged_s"] = round(staged_s, 4)
                _summary[f"{base}_fused_s"] = round(secs, 4)
            if chunk == CHUNKS[0]:
                _summary[f"accuracy_{mode}"] = round(
                    out.window_accuracy, 4
                )
                if mode == "exact":
                    _summary["accuracy_staged"] = round(
                        staged.window_accuracy, 4
                    )
            # Noise floor, not the target: the committed headline is
            # guarded at >= 2x by tests/test_bench_guard.py.
            assert speedup > 1.0, (
                f"chunk={chunk} fused/{mode} slower than staged "
                f"({speedup:.2f}x)"
            )


def test_zz_write_summary():
    """Persist the results (named so it runs after the benchmarks)."""
    assert _rows, "benchmarks did not run"
    merge_csv(RESULTS_CSV, CSV_HEADERS, _rows, n_key_cols=2)
    if "tick_fused_speedup" not in _summary:
        pytest.skip(
            "headline case (serving cadence, exact mode) did not run; "
            "BENCH_tick.json left untouched — run the full file to "
            "regenerate it"
        )
    SUMMARY_JSON.write_text(
        json.dumps(_summary, indent=2, sort_keys=True) + "\n"
    )
    print(f"\nBENCH_tick summary: {json.dumps(_summary, sort_keys=True)}")
