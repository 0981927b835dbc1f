"""Fused tick hot path: bit-exactness, raggedness, modes, allocations.

The :class:`~repro.engine.hotpath.TickArena` contract: in ``exact`` mode
every signature, label and confidence — and therefore every alert
event — is **bit-identical** to the staged
``FleetIngest → signature_features → forest`` pipeline kept in
``repro.service._staged_reference``, under uniform
bursts, ragged bursts, missing nodes and sub-chunk splitting alike; and
a steady-state tick retains zero new numpy memory.
"""

import gc
import tracemalloc

import numpy as np
import pytest

from repro.engine.hotpath import SIGNATURE_MODES, TickArena
from repro.service._staged_reference import (
    StagedFleetFaultDetector,
    use_backend,
)
from repro.service.api import ServiceConfig
from repro.service.detector import FleetFaultDetector
from repro.service.replay import fleet_recipes, prepare_fleet, replay


@pytest.fixture(scope="module")
def small_setup():
    return prepare_fleet(
        fleet_recipes(3, t=2000), blocks=8, trees=5, train_frac=0.5, seed=0
    )


def _staged_signatures(setup, path, upto):
    stream = setup.trained.engine.stream(path)
    return stream.push_block(setup.eval_data[path][:, :upto])


def _arena_signatures(arena, feeds):
    """Run ``feeds`` (one dict per tick) and collect signatures per node."""
    got = {}
    for data in feeds:
        for path, labels, conf, row0 in arena.tick(data):
            bucket = got.setdefault(path, [])
            for j in range(labels.shape[0]):
                bucket.append(arena.signature(row0 + j))
    return got


class TestExactBitEquality:
    def test_uniform_bursts_match_staged_streams(self, small_setup):
        setup = small_setup
        t = min(m.shape[1] for m in setup.eval_data.values())
        arena = TickArena(
            setup.trained.engine,
            setup.trained.classifier.forest,
            mode="exact",
            max_chunk=64,
        )
        feeds = [
            {p: m[:, lo : lo + 64] for p, m in setup.eval_data.items()}
            for lo in range(0, t, 64)
        ]
        got = _arena_signatures(arena, feeds)
        for path in setup.eval_data:
            want = _staged_signatures(setup, path, t)
            assert len(got[path]) == len(want) > 0
            for a, b in zip(got[path], want):
                assert a.tobytes() == b.tobytes()
            assert arena.counts(path) == t
            assert arena.emitted(path) == len(want)

    def test_ragged_bursts_and_missing_nodes_match(self, small_setup):
        """Random burst lengths + node dropout degrade the shared FIFO
        to per-node FIFOs; output must not change by a bit."""
        setup = small_setup
        rng = np.random.default_rng(7)
        t = min(m.shape[1] for m in setup.eval_data.values())
        arena = TickArena(
            setup.trained.engine,
            setup.trained.classifier.forest,
            mode="exact",
            max_chunk=17,  # also forces sub-chunk splitting
        )
        pos = {p: 0 for p in setup.eval_data}
        feeds = []
        while min(pos.values()) < t:
            data = {}
            for p, m in setup.eval_data.items():
                if pos[p] >= t or rng.random() < 0.25:
                    continue
                c = min(int(rng.integers(1, 40)), t - pos[p])
                data[p] = m[:, pos[p] : pos[p] + c]
                pos[p] += c
            if data:
                feeds.append(data)
        got = _arena_signatures(arena, feeds)
        assert not all(g.uniform for g in arena.groups)
        for path in setup.eval_data:
            want = _staged_signatures(setup, path, pos[path])
            assert len(got[path]) == len(want) > 0
            for a, b in zip(got[path], want):
                assert a.tobytes() == b.tobytes()

    def test_replay_events_identical_to_staged(self, small_setup):
        with use_backend("staged"):
            staged = replay(small_setup, chunk=200)
        fused = replay(small_setup, chunk=200)
        assert fused.events == staged.events
        assert fused.n_windows == staged.n_windows
        assert len(staged.events) > 0

    def test_serving_chunk_events_identical(self, small_setup):
        """Small serving bursts split windows across many ticks."""
        with use_backend("staged"):
            staged = replay(small_setup, chunk=10)
        fused = replay(small_setup, chunk=10)
        assert fused.events == staged.events


class TestReducedPrecisionModes:
    @pytest.mark.parametrize("mode", ["float32", "quantized"])
    def test_mode_runs_and_mostly_agrees(self, small_setup, mode):
        exact = replay(small_setup, chunk=200)
        reduced = replay(small_setup, chunk=200, mode=mode)
        assert reduced.n_windows == exact.n_windows
        det_e = FleetFaultDetector(small_setup.trained)
        det_r = FleetFaultDetector(small_setup.trained, mode=mode)
        for det in (det_e, det_r):
            for lo in range(0, 600, 60):
                det.process_block(
                    {
                        p: m[:, lo : lo + 60]
                        for p, m in small_setup.eval_data.items()
                    }
                )
        agree = total = 0
        for p in det_e.paths:
            le, lr = det_e.history[p][0], det_r.history[p][0]
            assert len(le) == len(lr) > 0
            agree += sum(a == b for a, b in zip(le, lr))
            total += len(le)
        assert agree / total >= 0.95

    def test_quantized_signatures_are_bin_centers(self, small_setup):
        arena = TickArena(
            small_setup.trained.engine,
            small_setup.trained.classifier.forest,
            mode="quantized",
            max_chunk=100,
        )
        out = arena.tick(
            {p: m[:, :100] for p, m in small_setup.eval_data.items()}
        )
        rows = sum(labels.shape[0] for _, labels, _, _ in out)
        assert rows > 0
        l = arena.blocks
        for _, labels, _, row0 in out:
            for j in range(labels.shape[0]):
                sig = arena.signature(row0 + j)
                # real bins: q/255 for integer q in 0..255
                q = sig.real * 255.0
                assert np.allclose(q, np.rint(q), atol=1e-6)
                assert np.all((sig.real >= 0.0) & (sig.real <= 1.0))

    def test_staged_backend_rejects_reduced_modes(self, small_setup):
        with pytest.raises(ValueError, match="exact signatures only"):
            StagedFleetFaultDetector(small_setup.trained, mode="float32")

    def test_unknown_backend_and_mode_raise(self, small_setup):
        # fused is the only tick path: the retired knob pins its value
        for bad in ("staged", "turbo"):
            with pytest.raises(ValueError, match="backend must be 'fused'"):
                ServiceConfig(backend=bad)
        with pytest.raises(TypeError):
            FleetFaultDetector(small_setup.trained, backend="fused")
        with pytest.raises(ValueError, match="unknown signature mode"):
            FleetFaultDetector(small_setup.trained, mode="float16")
        assert SIGNATURE_MODES == ("exact", "float32", "quantized")


class TestMemory:
    def test_memory_report_shape_and_mode_ordering(self, small_setup):
        reports = {}
        for mode in SIGNATURE_MODES:
            det = FleetFaultDetector(
                small_setup.trained, mode=mode
            )
            rep = det.memory_report()
            assert rep["mode"] == mode
            assert rep["nodes"] == len(det.paths)
            assert (
                rep["per_node_state_bytes"] > 0
                and rep["per_node_total_bytes"] >= rep["per_node_state_bytes"]
            )
            assert rep["total_bytes"] == (
                rep["state_bytes"]
                + rep["scratch_bytes"]
                + rep["classifier_bytes"]
            )
            reports[mode] = rep
        # float32 halves the floating-point state.
        assert (
            reports["float32"]["state_bytes"]
            < reports["exact"]["state_bytes"]
        )

    def test_steady_state_tick_retains_no_memory(self, small_setup):
        """The tracemalloc regression gate on the zero-allocation claim:
        after warm-up, a run of ticks must not grow traced memory (a
        single leaked column buffer would be tens of kilobytes here)."""
        detector = FleetFaultDetector(
            small_setup.trained,
            record_history=False,
            max_chunk=50,
        )

        def run(lo_start, n_ticks):
            for i in range(n_ticks):
                lo = lo_start + i * 50
                detector.process_block(
                    {
                        p: m[:, lo : lo + 50]
                        for p, m in small_setup.eval_data.items()
                    }
                )

        run(0, 4)  # warm-up: buffers sized, pending FIFOs filled
        gc.collect()
        tracemalloc.start()
        before, _ = tracemalloc.get_traced_memory()
        run(200, 10)
        gc.collect()
        after, _ = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert after - before < 8192, (
            f"steady-state ticks retained {after - before} bytes"
        )


class TestArenaValidation:
    def test_unknown_node_and_bad_shape_raise(self, small_setup):
        arena = TickArena(
            small_setup.trained.engine,
            small_setup.trained.classifier.forest,
        )
        with pytest.raises(KeyError, match="unknown node"):
            arena.tick({"rack9/node99": np.zeros((4, 10))})
        path = next(iter(small_setup.eval_data))
        with pytest.raises(ValueError, match="does not match"):
            arena.tick({path: np.zeros((3, 10))})

    def test_bad_mode_and_chunk_raise(self, small_setup):
        engine = small_setup.trained.engine
        forest = small_setup.trained.classifier.forest
        with pytest.raises(ValueError, match="unknown signature mode"):
            TickArena(engine, forest, mode="double")
        with pytest.raises(ValueError, match="max_chunk"):
            TickArena(engine, forest, max_chunk=0)
        with pytest.raises(KeyError, match="no model"):
            TickArena(engine, forest, paths=["rack9/node99"])

    def test_empty_tick_is_a_noop(self, small_setup):
        arena = TickArena(
            small_setup.trained.engine,
            small_setup.trained.classifier.forest,
        )
        assert arena.tick({}) == []
        path = next(iter(small_setup.eval_data))
        out = arena.tick({path: np.zeros((128, 0))})
        assert [(p, list(l), list(c)) for p, l, c, _ in out] == [
            (path, [], [])
        ]
