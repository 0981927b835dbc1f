"""Checkpoint/restore: byte-identity round trips and typed mismatches.

The contract: crash -> restore -> replay-the-remaining-ticks produces an
event stream identical to an uninterrupted run — on the fused tick path
and on the staged reference, whose exact-mode checkpoints move between
the two in either direction, and from archives whose manifest still
says ``"backend": "staged"``.  Anything a checkpoint cannot honestly
resume (different fleet lineage, geometry, knobs, signature mode, a
corrupt archive) is a :class:`CheckpointError` naming the offending
field — never silent drift, never a raw traceback.
"""

import numpy as np
import pytest

from repro.service.alerts import JSONLAlertSink
from repro.service.chaos import run_with_kills
from repro.service.checkpoint import (
    CheckpointError,
    fleet_fingerprint,
    load_checkpoint,
)
from repro.service._staged_reference import stamp_legacy_backend, use_backend
from repro.service.replay import fleet_recipes, prepare_fleet, replay

BACKENDS = ("staged", "fused")


@pytest.fixture(scope="module")
def small_setup():
    return prepare_fleet(
        fleet_recipes(2, t=2000), blocks=8, trees=5, train_frac=0.5, seed=0
    )


@pytest.fixture(scope="module")
def other_setup():
    return prepare_fleet(
        fleet_recipes(2, t=2000), blocks=8, trees=5, train_frac=0.5, seed=3
    )


class TestRoundTrip:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_interrupt_resume_identical(self, small_setup, tmp_path, backend):
        ck = tmp_path / "ck.npz"
        with use_backend(backend):
            full = replay(small_setup, chunk=200, guard=True)
            replay(
                small_setup, chunk=200, guard=True,
                checkpoint_path=ck, checkpoint_every=1, stop_after=4,
            )
            resumed = replay(
                small_setup, chunk=200, guard=True,
                checkpoint_path=ck, checkpoint_every=1, resume=True,
            )
        assert resumed.events == full.events
        assert resumed.n_alerts == full.n_alerts
        assert resumed.n_windows == full.n_windows
        assert resumed.window_accuracy == full.window_accuracy

    @pytest.mark.parametrize(
        "save_backend,load_backend", [("staged", "fused"), ("fused", "staged")]
    )
    def test_cross_backend_exact_resume(
        self, small_setup, tmp_path, save_backend, load_backend
    ):
        """Exact-mode checkpoints move freely between the fused path
        and the staged reference (one stream-state layout)."""
        full = replay(small_setup, chunk=200, guard=True)
        ck = tmp_path / "cross.npz"
        with use_backend(save_backend):
            replay(
                small_setup, chunk=200, guard=True,
                checkpoint_path=ck, checkpoint_every=1, stop_after=3,
            )
        with use_backend(load_backend):
            resumed = replay(
                small_setup, chunk=200, guard=True,
                checkpoint_path=ck, resume=True,
            )
        assert resumed.events == full.events

    @pytest.mark.parametrize("stamp", BACKENDS)
    def test_legacy_backend_stamp_resumes_byte_identical(
        self, small_setup, tmp_path, stamp
    ):
        """Archives whose manifest says ``"backend": "staged"`` (every
        default checkpoint written before the single tick path) or
        ``"fused"`` resume to byte-identical alert JSONL."""
        full_path = tmp_path / "full.jsonl"
        replay(
            small_setup, chunk=200, guard=True,
            sinks=[JSONLAlertSink(full_path)],
        )
        ck = tmp_path / "legacy.npz"
        seg_path = tmp_path / "segmented.jsonl"
        replay(
            small_setup, chunk=200, guard=True,
            checkpoint_path=ck, checkpoint_every=1, stop_after=4,
            sinks=[JSONLAlertSink(seg_path)],
        )
        assert load_checkpoint(ck).manifest["backend"] == "fused"
        stamp_legacy_backend(ck, stamp)
        assert load_checkpoint(ck).manifest["backend"] == stamp
        replay(
            small_setup, chunk=200, guard=True,
            checkpoint_path=ck, resume=True,
            sinks=[JSONLAlertSink(seg_path)],
        )
        assert seg_path.read_bytes() == full_path.read_bytes()

    def test_resume_reemits_prefix_into_sinks(self, small_setup, tmp_path):
        full_path = tmp_path / "full.jsonl"
        replay(
            small_setup, chunk=200, guard=True,
            sinks=[JSONLAlertSink(full_path)],
        )
        ck = tmp_path / "ck.npz"
        seg_path = tmp_path / "segmented.jsonl"
        replay(
            small_setup, chunk=200, guard=True,
            checkpoint_path=ck, checkpoint_every=1, stop_after=4,
            sinks=[JSONLAlertSink(seg_path)],
        )
        replay(
            small_setup, chunk=200, guard=True,
            checkpoint_path=ck, resume=True,
            sinks=[JSONLAlertSink(seg_path)],
        )
        assert seg_path.read_bytes() == full_path.read_bytes()

    def test_unguarded_checkpoint_roundtrip(self, small_setup, tmp_path):
        full = replay(small_setup, chunk=200)
        ck = tmp_path / "plain.npz"
        replay(
            small_setup, chunk=200,
            checkpoint_path=ck, checkpoint_every=2, stop_after=4,
        )
        resumed = replay(small_setup, chunk=200, checkpoint_path=ck,
                         resume=True)
        assert resumed.events == full.events

    def test_kill_at_every_tick(self, small_setup, tmp_path):
        """The brute-force drill: die before every single tick."""
        full = replay(small_setup, chunk=200, guard=True)
        n_ticks = -(-max(
            m.shape[1] for m in small_setup.eval_data.values()
        ) // 200)
        killed = run_with_kills(
            small_setup,
            checkpoint_path=tmp_path / "every.npz",
            kills=list(range(1, n_ticks)),
            chunk=200,
            guard=True,
        )
        assert killed.events == full.events


class TestTypedMismatches:
    def _checkpoint(self, setup, tmp_path, **kwargs):
        ck = tmp_path / "mismatch.npz"
        replay(
            setup, chunk=200, guard=True,
            checkpoint_path=ck, checkpoint_every=1, stop_after=2, **kwargs,
        )
        return ck

    def _resume_error(self, setup, ck, **kwargs):
        kwargs.setdefault("guard", True)
        with pytest.raises(CheckpointError) as exc_info:
            replay(setup, checkpoint_path=ck, resume=True, **kwargs)
        return exc_info.value

    def test_different_fleet_rejected(
        self, small_setup, other_setup, tmp_path
    ):
        ck = self._checkpoint(small_setup, tmp_path)
        err = self._resume_error(other_setup, ck, chunk=200)
        assert err.field == "fingerprint"

    def test_chunk_mismatch_rejected(self, small_setup, tmp_path):
        ck = self._checkpoint(small_setup, tmp_path)
        err = self._resume_error(small_setup, ck, chunk=100)
        assert err.field == "chunk"

    @pytest.mark.parametrize(
        "knob,value",
        [("open_after", 3), ("close_after", 5), ("min_confidence", 0.4),
         ("top_blocks", 1)],
    )
    def test_policy_knob_mismatch_rejected(
        self, small_setup, tmp_path, knob, value
    ):
        ck = self._checkpoint(small_setup, tmp_path)
        err = self._resume_error(small_setup, ck, chunk=200, **{knob: value})
        assert err.field == knob

    @pytest.mark.parametrize("mode", ("float32", "quantized"))
    def test_non_exact_cross_mode_rejected(self, small_setup, tmp_path, mode):
        """Exact checkpoint -> float32/quantized resume is a typed
        incompatibility, never silent drift — also when the manifest
        carries the legacy ``"staged"`` stamp."""
        ck = self._checkpoint(small_setup, tmp_path)
        err = self._resume_error(small_setup, ck, chunk=200, mode=mode)
        assert err.field == "mode"
        stamp_legacy_backend(ck, "staged")
        err = self._resume_error(small_setup, ck, chunk=200, mode=mode)
        assert err.field == "mode"

    @pytest.mark.parametrize("mode", ("float32", "quantized"))
    def test_non_exact_checkpoint_rejected_by_exact_resume(
        self, small_setup, tmp_path, mode
    ):
        ck = self._checkpoint(small_setup, tmp_path, mode=mode)
        err = self._resume_error(small_setup, ck, chunk=200)
        assert err.field == "mode"

    @pytest.mark.parametrize("mode", ("float32", "quantized"))
    def test_non_exact_same_mode_resume_allowed(
        self, small_setup, tmp_path, mode
    ):
        """Same mode resumes fine even off-exact."""
        full = replay(small_setup, chunk=200, guard=True, mode=mode)
        ck = self._checkpoint(small_setup, tmp_path, mode=mode)
        resumed = replay(
            small_setup, chunk=200, guard=True, mode=mode,
            checkpoint_path=ck, resume=True,
        )
        assert resumed.events == full.events

    def test_guard_presence_mismatch_rejected(self, small_setup, tmp_path):
        ck = self._checkpoint(small_setup, tmp_path)  # guarded checkpoint
        err = self._resume_error(small_setup, ck, chunk=200, guard=None)
        assert err.field == "guard"

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(CheckpointError) as exc_info:
            load_checkpoint(tmp_path / "never_written.npz")
        assert exc_info.value.field == "path"

    def test_truncated_archive_rejected(self, small_setup, tmp_path):
        ck = self._checkpoint(small_setup, tmp_path)
        raw = ck.read_bytes()
        ck.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(CheckpointError) as exc_info:
            load_checkpoint(ck)
        assert exc_info.value.field == "archive"

    def test_not_a_checkpoint_rejected(self, tmp_path):
        impostor = tmp_path / "impostor.npz"
        np.savez(impostor, data=np.arange(4))
        with pytest.raises(CheckpointError) as exc_info:
            load_checkpoint(impostor)
        assert exc_info.value.field == "manifest"

    def test_replay_guards_checkpoint_knobs(self, small_setup, tmp_path):
        with pytest.raises(ValueError, match="checkpoint_path"):
            replay(small_setup, chunk=200, checkpoint_every=1)
        with pytest.raises(ValueError, match="record_history"):
            replay(
                small_setup, chunk=200, record_history=False,
                checkpoint_path=tmp_path / "x.npz", checkpoint_every=1,
            )

    def test_fingerprint_tracks_lineage(self, small_setup, other_setup):
        fp1 = fleet_fingerprint(small_setup.trained)
        fp2 = fleet_fingerprint(small_setup.trained)
        assert fp1 == fp2
        assert fp1 != fleet_fingerprint(other_setup.trained)
