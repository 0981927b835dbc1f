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

from repro.core.model import CSModel
from repro.engine.fleet import FleetSignatureEngine
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


def _drive(arena, engine, feeds, streams=None):
    """Run ``feeds`` through the arena and through one streaming core
    per node; every signature must match bit for bit."""
    if streams is None:
        streams = {p: engine.stream(p) for p in arena.paths}
    for data in feeds:
        for path, labels, _, row0 in arena.tick(data):
            want = streams[path].push_block(data[path])
            assert labels.shape[0] == want.shape[0]
            for j in range(want.shape[0]):
                assert arena.signature(row0 + j).tobytes() == want[j].tobytes()
    return streams


def _assert_states_match(arena, streams):
    """``node_state`` must equal the streaming core's ``state_dict``
    bit for bit — dtype, shape and memory order included, since
    checkpoints write these arrays as they are."""
    for path, stream in streams.items():
        got, want = arena.node_state(path), stream._core.state_dict()
        assert got.keys() == want.keys()
        for key, b in want.items():
            a = got[key]
            if isinstance(b, np.ndarray):
                assert a.dtype == b.dtype and a.shape == b.shape, key
                assert a.flags.c_contiguous, key
                assert a.tobytes() == b.tobytes(), (path, key)
            else:
                assert a == b, (path, key)


def _bursts(setup, chunk, *, skip=None, upto=None):
    """Equal ``chunk``-column bursts for every node; ``skip=(tick,
    path)`` drops one node's burst once (that node stays behind)."""
    t = upto or min(m.shape[1] for m in setup.eval_data.values())
    pos = {p: 0 for p in setup.eval_data}
    feeds = []
    for tick in range(t // chunk):
        data = {}
        for p, m in setup.eval_data.items():
            if skip == (tick, p):
                continue
            data[p] = m[:, pos[p] : pos[p] + chunk]
            pos[p] += chunk
        feeds.append(data)
    return feeds


class TestArenaEdgeCases:
    """Paths the replay tests do not reach, each checked against the
    streaming core."""

    def _arena(self, setup, engine=None, *, max_chunk=30):
        return TickArena(
            engine or setup.trained.engine,
            setup.trained.classifier.forest,
            mode="exact",
            max_chunk=max_chunk,
        )

    def test_degenerate_sensor_model(self, small_setup):
        """Constant sensors (upper == lower) normalize to 0.5."""
        src = small_setup.trained.engine
        engine = FleetSignatureEngine(src.blocks, wl=src.wl, ws=src.ws)
        data = {}
        for k, p in enumerate(src.paths):
            model = src.model(p)
            flat = [3, 40 + k, 127]
            upper = model.upper.copy()
            upper[flat] = model.lower[flat]
            engine.set_model(
                p,
                CSModel(
                    permutation=model.permutation,
                    lower=model.lower,
                    upper=upper,
                    sensor_names=model.sensor_names,
                ),
            )
            m = small_setup.eval_data[p].copy()
            m[flat[:2]] = model.lower[flat[:2], None]  # constant feeds
            data[p] = m
        setup = type(small_setup)(
            trained=small_setup.trained,
            eval_data=data,
            truth=small_setup.truth,
            wl=small_setup.wl,
            ws=small_setup.ws,
        )
        arena = self._arena(setup, engine)
        assert all(g.deg_any for g in arena.groups)
        streams = _drive(arena, engine, _bursts(setup, 30))
        _assert_states_match(arena, streams)

    @pytest.mark.parametrize("skip", [False, True])
    def test_reanchoring(self, small_setup, skip):
        engine = small_setup.trained.engine
        arena = self._arena(small_setup)
        arena._reanchor_every = 50  # several re-anchors in-run
        streams = {p: engine.stream(p) for p in arena.paths}
        for stream in streams.values():
            stream._core._REANCHOR_INTERVAL = 50
        feeds = _bursts(
            small_setup, 30, skip=(4, arena.paths[1]) if skip else None
        )
        _drive(arena, engine, feeds, streams)
        assert all(g.uniform != skip for g in arena.groups)
        assert all(int(g.anchors.min()) > 0 for g in arena.groups)
        _assert_states_match(arena, streams)

    @pytest.mark.parametrize("chunk", [30, 7, 61])
    def test_bursts_straddle_the_ring_wrap(self, small_setup, chunk):
        """The ring has ``wl + 1 = 61`` slots: these bursts keep
        landing across its wrap point at shifting offsets."""
        assert small_setup.wl + 1 == 61
        engine = small_setup.trained.engine
        arena = self._arena(small_setup, max_chunk=chunk)
        streams = {p: engine.stream(p) for p in arena.paths}
        for data in _bursts(small_setup, chunk, upto=400):
            _drive(arena, engine, [data], streams)
            _assert_states_match(arena, streams)

    @pytest.mark.parametrize("chunk", [30, 100])
    def test_single_node_group(self, small_setup, chunk):
        """A one-node group stays uniform and runs the per-node path."""
        engine = small_setup.trained.engine
        path = engine.paths[0]
        arena = TickArena(
            engine,
            small_setup.trained.classifier.forest,
            max_chunk=chunk,
            paths=[path],
        )
        m = small_setup.eval_data[path]
        feeds = [{path: m[:, lo : lo + chunk]} for lo in range(0, 600, chunk)]
        streams = _drive(arena, engine, feeds)
        assert [(g.c, g.uniform) for g in arena.groups] == [(1, True)]
        _assert_states_match(arena, streams)

    @pytest.mark.parametrize("degraded", [False, True])
    def test_state_round_trip_with_pending_snapshots(
        self, small_setup, degraded
    ):
        engine = small_setup.trained.engine
        victim = small_setup.trained.engine.paths[2]
        feeds = _bursts(
            small_setup, 30, skip=(1, victim) if degraded else None
        )
        head, tail = feeds[:3], feeds[3:]
        first = self._arena(small_setup)
        streams = _drive(first, engine, head)
        states = {p: first.node_state(p) for p in first.paths}
        assert all(len(st["pending_starts"]) for st in states.values())
        _assert_states_match(first, streams)
        second = self._arena(small_setup)
        second.restore_states(states)
        assert all(g.uniform != degraded for g in second.groups)
        _assert_states_match(second, streams)
        twins = {p: engine.stream(p) for p in first.paths}
        for p, twin in twins.items():
            twin._core.load_state(streams[p]._core.state_dict())
        _drive(first, engine, tail, streams)
        _drive(second, engine, tail, twins)
        _assert_states_match(second, streams)


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
