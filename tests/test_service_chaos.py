"""Chaos harness: deterministic schedules and the kill-and-restore drill.

The injector's schedule must be a pure function of ``(seed, tick,
node)`` — that statelessness is what makes killed-and-resumed chaos
replays regenerate the same faults and hence the same alert bytes.  The
fault-matrix tests assert each injected fault class lands on its
documented guard policy, on the fused tick path and on the staged
reference alike.
"""

import numpy as np
import pytest

from repro.service._staged_reference import use_backend
from repro.service.chaos import ChaosConfig, ChaosInjector, run_with_kills
from repro.service.replay import fleet_recipes, prepare_fleet, replay

BACKENDS = ("staged", "fused")


@pytest.fixture
def backend(request):
    """Indirect parameter: runs the test body on that tick path."""
    with use_backend(request.param):
        yield request.param


@pytest.fixture(scope="module")
def small_setup():
    return prepare_fleet(
        fleet_recipes(2, t=2000), blocks=8, trees=5, train_frac=0.5, seed=0
    )


def sample_burst(paths, tick, m=32):
    rng = np.random.default_rng(tick)
    return {p: rng.normal(size=(5, m)) for p in paths}


class TestInjectorDeterminism:
    def test_schedule_pure_function_of_seed_tick_node(self):
        cfg = ChaosConfig(seed=5, drop=0.2, duplicate=0.2, reorder=0.2,
                          corrupt=0.2)
        paths = [f"rack0/node{i:02d}" for i in range(6)]
        a, b = ChaosInjector(cfg), ChaosInjector(cfg)
        for tick in range(10):
            burst = sample_burst(paths, tick)
            da = a.deliveries(tick, burst)
            db = b.deliveries(tick, burst)
            assert len(da) == len(db)
            for (ta, ba), (tb, bb) in zip(da, db):
                assert ta == tb and sorted(ba) == sorted(bb)
                for p in ba:
                    np.testing.assert_array_equal(ba[p], bb[p])
        assert a.stats == b.stats

    def test_schedule_independent_of_delivery_history(self):
        """Tick k's faults don't depend on which ticks ran before —
        the property a resumed segment relies on."""
        cfg = ChaosConfig(seed=5, drop=0.3, corrupt=0.3)
        paths = ["rack0/node00", "rack0/node01"]
        full = ChaosInjector(cfg)
        late = ChaosInjector(cfg)
        burst7 = sample_burst(paths, 7)
        for tick in range(7):
            full.deliveries(tick, sample_burst(paths, tick))
        d_full = full.deliveries(7, burst7)
        d_late = late.deliveries(7, burst7)  # cold injector, same tick
        assert len(d_full) == len(d_late)
        for (ta, ba), (tb, bb) in zip(d_full, d_late):
            assert ta == tb
            for p in ba:
                np.testing.assert_array_equal(ba[p], bb[p])

    def test_different_seeds_differ(self):
        paths = [f"rack0/node{i:02d}" for i in range(8)]
        patterns = []
        for seed in (0, 1):
            inj = ChaosInjector(ChaosConfig(seed=seed, drop=0.5))
            dropped = set()
            for tick in range(10):
                out = inj.deliveries(tick, sample_burst(paths, tick))
                dropped |= {
                    (tick, p) for p in paths if p not in out[0][1]
                }
            patterns.append(dropped)
        assert patterns[0] != patterns[1]

    def test_start_tick_delays_injection(self):
        inj = ChaosInjector(ChaosConfig(seed=0, drop=1.0, start_tick=3))
        paths = ["rack0/node00"]
        for tick in range(6):
            out = inj.deliveries(tick, sample_burst(paths, tick))
            delivered = bool(out[0][1])
            assert delivered == (tick < 3)

    def test_fraction_validation(self):
        with pytest.raises(ValueError, match="sum"):
            ChaosConfig(drop=0.5, duplicate=0.3, reorder=0.2, corrupt=0.1)
        with pytest.raises(ValueError, match="drop"):
            ChaosConfig(drop=-0.1)
        with pytest.raises(ValueError, match="corrupt_fraction"):
            ChaosConfig(corrupt=0.1, corrupt_fraction=0.0)


class TestFaultMapping:
    """Each single-fault config lands on its documented guard policy."""

    def guarded_replay(self, setup, **chaos_kw):
        return replay(
            setup, chunk=200, guard=True,
            chaos=ChaosConfig(seed=1, **chaos_kw),
        )

    @pytest.mark.parametrize("backend", BACKENDS, indirect=True)
    def test_drop_thins_windows_without_guard_events(
        self, small_setup, backend
    ):
        out = self.guarded_replay(small_setup, drop=0.3)
        clean = replay(small_setup, chunk=200, guard=True)
        assert out.chaos_stats["drop"] > 0
        assert out.n_windows < clean.n_windows
        assert not [e for e in out.events if e["event"] == "guard"]

    @pytest.mark.parametrize("backend", BACKENDS, indirect=True)
    def test_duplicate_coalesces(self, small_setup, backend):
        out = self.guarded_replay(small_setup, duplicate=0.5)
        clean = replay(small_setup, chunk=200, guard=True)
        ge = [e for e in out.events if e["event"] == "guard"]
        assert out.chaos_stats["duplicate"] > 0
        assert ge and all(e["fault"] == "duplicate-tick" for e in ge)
        assert all(e["action"] == "coalesce" for e in ge)
        # coalescing re-deliveries never perturbs the detection output
        stripped = [e for e in out.events if e["event"] != "guard"]
        assert stripped == [e for e in clean.events if e["event"] != "guard"]

    @pytest.mark.parametrize("backend", BACKENDS, indirect=True)
    def test_reorder_maps_to_stale_tick(self, small_setup, backend):
        out = self.guarded_replay(small_setup, reorder=0.5)
        ge = [e for e in out.events if e["event"] == "guard"]
        assert out.chaos_stats["reorder"] > 0
        assert ge and all(e["fault"] == "stale-tick" for e in ge)
        assert all(e["action"] == "reject" for e in ge)

    @pytest.mark.parametrize("backend", BACKENDS, indirect=True)
    def test_corrupt_maps_to_corrupt_values(self, small_setup, backend):
        from repro.service.guard import GuardConfig

        out = replay(
            small_setup, chunk=200,
            guard=GuardConfig(quarantine_after=2, backoff_ticks=2),
            chaos=ChaosConfig(seed=1, corrupt=0.9),
        )
        ge = [e for e in out.events if e["event"] == "guard"]
        assert out.chaos_stats["corrupt"] > 0
        faults = {e["fault"] for e in ge if "fault" in e}
        assert faults == {"corrupt-values"}
        # persistent corruption quarantines
        assert any(e["action"] == "quarantine" for e in ge)

    @pytest.mark.parametrize("backend", BACKENDS, indirect=True)
    def test_full_fault_mix_never_crashes(self, small_setup, backend):
        out = self.guarded_replay(
            small_setup,
            drop=0.1, duplicate=0.1, reorder=0.1, corrupt=0.1,
        )
        assert out.n_events == len(out.events)
        assert out.health is not None


class TestKillAndRestore:
    @pytest.mark.parametrize("backend", BACKENDS, indirect=True)
    def test_chaos_kill_restore_identical(
        self, small_setup, tmp_path, backend
    ):
        chaos = ChaosConfig(seed=2, drop=0.05, duplicate=0.05,
                            reorder=0.05, corrupt=0.05)
        uninterrupted = replay(
            small_setup, chunk=200, guard=True, chaos=chaos
        )
        killed = run_with_kills(
            small_setup,
            checkpoint_path=tmp_path / "chaos.npz",
            kills=[2, 5],
            chunk=200, guard=True, chaos=chaos,
        )
        assert killed.events == uninterrupted.events
        assert killed.n_alerts == uninterrupted.n_alerts

    def test_sink_factory_yields_complete_stream(self, small_setup, tmp_path):
        from repro.service.alerts import JSONLAlertSink

        full_path = tmp_path / "full.jsonl"
        replay(
            small_setup, chunk=200, guard=True,
            sinks=[JSONLAlertSink(full_path)],
        )
        seg_path = tmp_path / "killed.jsonl"
        run_with_kills(
            small_setup,
            checkpoint_path=tmp_path / "ck.npz",
            kills=[3],
            chunk=200, guard=True,
            sink_factory=lambda: [JSONLAlertSink(seg_path)],
        )
        assert seg_path.read_bytes() == full_path.read_bytes()

    def test_kills_must_leave_tick_zero(self, small_setup, tmp_path):
        with pytest.raises(ValueError, match="tick 0"):
            run_with_kills(
                small_setup,
                checkpoint_path=tmp_path / "ck.npz",
                kills=[0],
                chunk=200, guard=True,
            )
