"""Input-hardening guard: fault matrix, health lifecycle, invariance.

The acceptance property of the guard layer: every fault class maps to
its documented degradation policy — quarantine/coalesce/reject/recover —
and **no unhandled exception ever escapes** ``process_block``, around
the production detector and around the staged reference alike.  Clean
input must pass through bit-unchanged: a guarded replay minus its guard
bookkeeping equals the unguarded replay.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service._staged_reference import (
    StagedFleetFaultDetector,
    use_backend,
)
from repro.service.detector import FleetFaultDetector
from repro.service.guard import (
    HEALTH_STATES,
    GuardConfig,
    GuardedDetector,
)
from repro.service.replay import fleet_recipes, prepare_fleet, replay

BACKENDS = ("staged", "fused")


@pytest.fixture(scope="module")
def small_setup():
    return prepare_fleet(
        fleet_recipes(2, t=2000), blocks=8, trees=5, train_frac=0.5, seed=0
    )


DETECTORS = {"staged": StagedFleetFaultDetector, "fused": FleetFaultDetector}


def make_guarded(small_setup, backend="fused", **config):
    detector = DETECTORS[backend](small_setup.trained)
    cfg = GuardConfig(**config) if config else None
    return GuardedDetector(detector, config=cfg)


def burst_at(setup, lo, hi):
    return {p: m[:, lo:hi] for p, m in setup.eval_data.items()}


def guard_events(events):
    return [e for e in events if e["event"] == "guard"]


# ----------------------------------------------------------------------
# Fault matrix: each fault class -> documented policy, never a crash
# ----------------------------------------------------------------------
class TestFaultMatrix:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_corrupt_values_rejected(self, small_setup, backend):
        g = make_guarded(small_setup, backend)
        bad = burst_at(small_setup, 0, 50)
        victim = sorted(bad)[0]
        bad[victim] = np.full_like(bad[victim], np.nan)
        events = g.process_block(bad, tick=0)
        ge = guard_events(events)
        assert [e["fault"] for e in ge] == ["corrupt-values"]
        assert ge[0]["action"] == "reject"
        assert ge[0]["node"] == victim
        assert g.health(victim).state == "degraded"

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_duplicate_tick_coalesced(self, small_setup, backend):
        g = make_guarded(small_setup, backend)
        b = burst_at(small_setup, 0, 50)
        g.process_block(b, tick=0)
        before = {p: g.windows_seen(p) for p in g.paths}
        events = g.process_block(b, tick=0)  # same tick re-delivered
        ge = guard_events(events)
        assert {e["fault"] for e in ge} == {"duplicate-tick"}
        assert all(e["action"] == "coalesce" for e in ge)
        # the re-delivery advanced nothing
        assert {p: g.windows_seen(p) for p in g.paths} == before
        # retries are normal transport behavior: no health penalty
        assert all(g.health(p).state == "healthy" for p in g.paths)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_stale_tick_rejected(self, small_setup, backend):
        g = make_guarded(small_setup, backend)
        g.process_block(burst_at(small_setup, 0, 50), tick=0)
        g.process_block(burst_at(small_setup, 50, 100), tick=1)
        events = g.process_block(burst_at(small_setup, 0, 50), tick=0)
        ge = guard_events(events)
        assert {e["fault"] for e in ge} == {"stale-tick"}
        assert all(e["action"] == "reject" for e in ge)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_shape_mismatch_rejected(self, small_setup, backend):
        g = make_guarded(small_setup, backend)
        b = burst_at(small_setup, 0, 50)
        victim = sorted(b)[0]
        b[victim] = b[victim][:3]  # wrong sensor count
        events = g.process_block(b, tick=0)
        ge = guard_events(events)
        assert [e["fault"] for e in ge] == ["shape-mismatch"]
        # non-array garbage is also a shape mismatch, not a TypeError
        b2 = burst_at(small_setup, 50, 100)
        b2[victim] = "not telemetry"
        ge2 = guard_events(g.process_block(b2, tick=1))
        assert [e["fault"] for e in ge2] == ["shape-mismatch"]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_unknown_node_rejected(self, small_setup, backend):
        g = make_guarded(small_setup, backend)
        b = burst_at(small_setup, 0, 50)
        b["rack9/node99"] = next(iter(b.values()))
        events = g.process_block(b, tick=0)
        ge = guard_events(events)
        assert [e["fault"] for e in ge] == ["unknown-node"]
        assert g.fleet_health()["unknown_nodes"] == {"rack9/node99": 1}

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_no_exception_escapes_process_block(self, small_setup, backend):
        """The blanket guarantee over every fault class at once."""
        g = make_guarded(small_setup, backend)
        clean = burst_at(small_setup, 0, 50)
        victim = sorted(clean)[0]
        hostile = [
            {victim: np.full((5, 50), np.inf)},
            {victim: None},
            {victim: np.zeros((1,))},
            {"nobody/home": np.zeros((5, 50))},
            {victim: clean[victim]},  # will be duplicate next tick
            {victim: object()},
        ]
        g.process_block(clean, tick=0)
        for i, b in enumerate(hostile):
            g.process_block(b, tick=0)  # stale/duplicate on purpose
            g.process_block(b, tick=i + 1)
        # detector still advances on clean input afterwards
        events = g.process_block(burst_at(small_setup, 50, 100), tick=99)
        assert isinstance(events, list)


# ----------------------------------------------------------------------
# Health lifecycle: degrade -> quarantine -> backoff -> probation -> recover
# ----------------------------------------------------------------------
class TestHealthLifecycle:
    def test_quarantine_backoff_and_recovery(self, small_setup):
        g = make_guarded(
            small_setup,
            quarantine_after=2,
            backoff_ticks=2,
            recover_after=2,
        )
        victim = sorted(small_setup.eval_data)[0]
        nan_block = {victim: np.full((5, 50), np.nan)}

        def fault(tick):
            b = burst_at(small_setup, 0, 50)
            b[victim] = np.full_like(b[victim], np.nan)
            return g.process_block(b, tick=tick)

        ge = guard_events(fault(0))
        assert g.health(victim).state == "degraded"
        ge = guard_events(fault(1))
        assert g.health(victim).state == "quarantined"
        assert any(e["action"] == "quarantine" for e in ge)
        until = next(e for e in ge if e["action"] == "quarantine")["until"]
        # while quarantined: silent drop, no events, no validation
        assert guard_events(g.process_block(nan_block, tick=2)) == []
        # backoff expiry -> probation
        b = burst_at(small_setup, 0, 50)
        ge = guard_events(g.process_block(b, tick=until))
        assert any(e["action"] == "probation" for e in ge)
        assert g.health(victim).state == "degraded"
        # clean blocks -> recover
        ge = guard_events(
            g.process_block(burst_at(small_setup, 50, 100), tick=until + 1)
        )
        assert any(e["action"] == "recover" for e in ge)
        assert g.health(victim).state == "healthy"

    def test_requarantine_doubles_backoff(self, small_setup):
        g = make_guarded(
            small_setup, quarantine_after=1, backoff_ticks=2,
            backoff_factor=2, max_backoff_ticks=8,
        )
        victim = sorted(small_setup.eval_data)[0]
        nan_block = {victim: np.full((5, 50), np.nan)}
        backoffs = []
        tick = 0
        for _ in range(4):
            ge = guard_events(g.process_block(nan_block, tick=tick))
            q = next(e for e in ge if e["action"] == "quarantine")
            backoffs.append(q["until"] - tick - 1)
            tick = q["until"]  # fault again right at probation
        assert backoffs == [2, 4, 8, 8]  # doubled, then capped

    def test_fleet_health_payload(self, small_setup):
        g = make_guarded(small_setup)
        paths = sorted(small_setup.eval_data)
        b = burst_at(small_setup, 0, 50)
        b[paths[0]] = np.full_like(b[paths[0]], np.nan)
        g.process_block(b, tick=0)
        payload = g.fleet_health()
        assert set(payload) == {"tick", "nodes", "states", "unknown_nodes"}
        assert sorted(payload["nodes"]) == paths
        assert payload["states"]["degraded"] == 1
        assert sum(payload["states"].values()) == len(paths)
        node = payload["nodes"][paths[0]]
        assert node["state"] == "degraded"
        assert node["fault_counts"] == {"corrupt-values": 1}
        assert node["dropped_blocks"] == 1

    def test_alert_events_carry_health(self, small_setup):
        out = replay(small_setup, chunk=200, guard=True)
        alert_events = [e for e in out.events if e["event"] != "guard"]
        assert alert_events, "replay should alert"
        assert all(e["health"] in HEALTH_STATES for e in alert_events)
        # health is appended last: original key order is untouched
        assert all(list(e)[-1] == "health" for e in alert_events)

    def test_guard_state_roundtrip(self, small_setup):
        g = make_guarded(small_setup)
        b = burst_at(small_setup, 0, 50)
        victim = sorted(b)[0]
        b[victim] = np.full_like(b[victim], np.nan)
        b["rack9/node99"] = np.zeros((2, 2))
        g.process_block(b, tick=0)
        g2 = make_guarded(small_setup)
        g2.load_state(g.state_dict())
        assert g2.state_dict() == g.state_dict()
        assert g2.fleet_health() == g.fleet_health()


# ----------------------------------------------------------------------
# Transparency: guarded clean replay == unguarded replay
# ----------------------------------------------------------------------
class TestGuardEquivalence:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_clean_replay_identical_minus_bookkeeping(
        self, small_setup, backend
    ):
        with use_backend(backend):
            plain = replay(small_setup, chunk=200)
            guarded = replay(small_setup, chunk=200, guard=True)
        stripped = [
            {k: v for k, v in e.items() if k != "health"}
            for e in guarded.events
            if e["event"] != "guard"
        ]
        assert stripped == plain.events
        assert guarded.n_windows == plain.n_windows
        assert guarded.health["states"] == {
            "healthy": plain.n_nodes, "degraded": 0, "quarantined": 0,
        }

    def test_chaos_requires_guard(self, small_setup):
        from repro.service.chaos import ChaosConfig

        with pytest.raises(ValueError, match="requires guard"):
            replay(small_setup, chunk=200, chaos=ChaosConfig(drop=0.1))


# ----------------------------------------------------------------------
# Property: burst key order never changes results
# ----------------------------------------------------------------------
class TestBurstOrderInvariance:
    @settings(max_examples=10, deadline=None)
    @given(perm=st.permutations(list(range(2))))
    def test_burst_key_order_never_changes_events(self, small_setup, perm):
        """Delivering the burst dict in any key order is equivalent."""
        g = GuardedDetector(FleetFaultDetector(small_setup.trained))
        paths = sorted(small_setup.eval_data)
        reordered = {
            paths[i]: small_setup.eval_data[paths[i]][:, :200] for i in perm
        }
        events = g.process_block(reordered, tick=0)
        baseline_det = FleetFaultDetector(small_setup.trained)
        baseline = GuardedDetector(baseline_det).process_block(
            {p: small_setup.eval_data[p][:, :200] for p in paths}, tick=0
        )
        assert events == baseline
