"""Versioned checkpoint/restore of full detector state.

A mid-run crash of the online detector used to lose everything the
fleet had streamed: per-node ring buffers, pending window snapshots,
alert hysteresis, open alerts.  :func:`save_checkpoint` snapshots the
**complete** detector state into one atomic ``.npz`` archive (the
``atomic_savez`` temp-file + rename discipline and manifest-as-uint8
convention of :mod:`repro.monitoring.storage`):

* per-node :class:`~repro.engine.streaming.IncrementalSignatureCore`
  state — normalization ring, running sum, pending window-start
  snapshots, counts (the fused arena exports the core's layout);
* per-node :class:`~repro.service.alerts.AlertPolicy` hysteresis state,
  including the open alert;
* the alert events emitted so far plus replay bookkeeping
  (``next_lo``, event/alert counts, scoring history);
* the optional :class:`~repro.service.guard.GuardedDetector` health
  state;
* a **model lineage fingerprint** (:func:`fleet_fingerprint`, SHA-256
  over every model array) plus the replay knobs, so a checkpoint can
  never silently resume against a different fleet or configuration.

The contract — test-enforced per scenario under a PYTHONHASHSEED
subprocess sweep — is *byte identity*: crash → restore →
replay-the-remaining-ticks produces alert JSONL identical to an
uninterrupted run.  Any geometry, knob, mode or lineage mismatch raises
:class:`CheckpointError` naming the offending field — never silent
drift.

The manifest carries a ``"backend"`` key, always ``"fused"``, so code
that predates the single tick path (and requires the key) can still
read these archives; on load the key is ignored.  Archives that such
code stamped ``"staged"`` hold the same exact-mode stream layout and
resume as is.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from repro.monitoring.storage import atomic_savez, load_npz_arrays
from repro.service.alerts import ALERTS_SCHEMA, to_payload
from repro.service.classify import TrainedFleet
from repro.service.detector import FleetFaultDetector

__all__ = [
    "CHECKPOINT_FORMAT",
    "CheckpointError",
    "DetectorCheckpoint",
    "fleet_fingerprint",
    "load_checkpoint",
    "restore_checkpoint",
    "save_checkpoint",
]

CHECKPOINT_FORMAT = "repro-detector-checkpoint/v1"

#: Replay knobs a checkpoint pins: resuming under different values would
#: continue a *different* event sequence, so mismatches are typed errors.
_PINNED_PARAMS = (
    "open_after",
    "close_after",
    "min_confidence",
    "top_blocks",
    "record_history",
)


class CheckpointError(ValueError):
    """A checkpoint archive is unusable; ``field`` names the offender."""

    def __init__(self, message: str, *, field: str | None = None):
        super().__init__(message)
        self.field = field


def fleet_fingerprint(trained: TrainedFleet) -> str:
    """SHA-256 lineage hash over every array the detector's output
    depends on: per-node CS models + references, the shared forest's
    flat node arrays, and the label metadata.  Two fleets with the same
    fingerprint replay to byte-identical alert streams."""
    h = hashlib.sha256()
    engine = trained.engine
    h.update(
        json.dumps(
            [
                "all" if engine.blocks is None else int(engine.blocks),
                int(engine.wl),
                int(engine.ws),
                list(trained.label_names),
                int(trained.healthy_label),
            ]
        ).encode("utf-8")
    )
    for path in engine.paths:
        model = engine.model(path)
        h.update(path.encode("utf-8"))
        for arr in (
            model.permutation,
            model.lower,
            model.upper,
            trained.references[path],
        ):
            h.update(np.ascontiguousarray(arr).tobytes())
    for name, arr in sorted(trained.classifier.forest.to_arrays().items()):
        h.update(name.encode("utf-8"))
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def _detector_params(detector: FleetFaultDetector) -> dict:
    return {
        "open_after": detector.policy(detector.paths[0]).open_after,
        "close_after": detector.policy(detector.paths[0]).close_after,
        "min_confidence": detector.policy(detector.paths[0]).min_confidence,
        "top_blocks": detector.top_blocks,
        "record_history": detector.record_history,
    }


def save_checkpoint(
    path: str | Path,
    detector: FleetFaultDetector,
    *,
    fingerprint: str,
    chunk: int,
    next_lo: int,
    events: list[dict],
    n_events: int,
    n_alerts: int,
    guard_state: dict | None = None,
    server_state: dict | None = None,
    extra_arrays: dict[str, np.ndarray] | None = None,
) -> Path:
    """Snapshot the full detector state as one atomic ``.npz`` archive.

    ``next_lo`` is the first un-ingested sample column — the replay loop
    resumes from exactly there.  ``events`` is the alert stream emitted
    so far (re-emitted into fresh sinks on resume, which is what makes
    the resumed JSONL byte-identical end to end).

    ``server_state``/``extra_arrays`` are the network server's
    extension point: :class:`~repro.service.net.FleetServer` records
    its tick cursor + WAL index in the manifest and its routed-but-
    unprocessed queue contents as encoded-frame blobs, so a restart
    resumes routing exactly where the crash left it.  Plain replay
    checkpoints carry neither and restore exactly as before.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    paths = detector.paths
    arrays: dict[str, np.ndarray] = {}
    node_meta: dict[str, dict] = {}
    for i, node in enumerate(paths):
        st = detector.node_stream_state(node)
        arrays[f"node{i}_ring"] = st["ring"]
        arrays[f"node{i}_csum"] = st["csum"]
        arrays[f"node{i}_pending_starts"] = st["pending_starts"]
        arrays[f"node{i}_pending_snaps"] = st["pending_snaps"]
        labels, confs = detector.history[node]
        arrays[f"node{i}_hist_labels"] = np.asarray(labels, dtype=np.int64)
        arrays[f"node{i}_hist_conf"] = np.asarray(confs, dtype=np.float64)
        node_meta[node] = {
            "count": st["count"],
            "emitted": st["emitted"],
            "anchor": st["anchor"],
            "windows": detector.windows_seen(node),
        }
    manifest = {
        "format": CHECKPOINT_FORMAT,
        "alerts_schema": ALERTS_SCHEMA,
        "backend": "fused",
        "mode": detector.mode,
        "fingerprint": fingerprint,
        "chunk": int(chunk),
        "next_lo": int(next_lo),
        "paths": list(paths),
        "params": _detector_params(detector),
        "nodes": node_meta,
        "policies": {p: detector.policy(p).state_dict() for p in paths},
        "guard": guard_state,
        "n_events": int(n_events),
        "n_alerts": int(n_alerts),
    }
    if server_state is not None:
        manifest["server"] = server_state
    if extra_arrays:
        reserved = set(arrays) | {"manifest", "events"}
        for name, arr in extra_arrays.items():
            if name in reserved:
                raise ValueError(
                    f"extra checkpoint array {name!r} collides with a "
                    "reserved archive member"
                )
            arrays[name] = np.asarray(arr)
    arrays["manifest"] = np.frombuffer(
        json.dumps(manifest).encode("utf-8"), dtype=np.uint8
    )
    arrays["events"] = np.frombuffer(
        json.dumps([to_payload(e) for e in events]).encode("utf-8"),
        dtype=np.uint8,
    )
    atomic_savez(path, **arrays)
    return path


class DetectorCheckpoint:
    """A loaded (not yet validated) checkpoint archive."""

    def __init__(self, manifest: dict, events: list[dict], arrays: dict):
        self.manifest = manifest
        self.events = events
        self._arrays = arrays

    def node_state(self, index: int, path: str) -> dict:
        meta = self.manifest["nodes"][path]
        return {
            "ring": self._arrays[f"node{index}_ring"],
            "csum": self._arrays[f"node{index}_csum"],
            "pending_starts": self._arrays[f"node{index}_pending_starts"],
            "pending_snaps": self._arrays[f"node{index}_pending_snaps"],
            "count": int(meta["count"]),
            "emitted": int(meta["emitted"]),
            "anchor": int(meta["anchor"]),
        }

    def node_history(self, index: int) -> tuple[list[int], list[float]]:
        return (
            self._arrays[f"node{index}_hist_labels"].tolist(),
            self._arrays[f"node{index}_hist_conf"].tolist(),
        )

    def array(self, name: str) -> np.ndarray | None:
        """An extra archive member (server queue blobs), if present."""
        return self._arrays.get(name)


def load_checkpoint(path: str | Path) -> DetectorCheckpoint:
    """Load and structurally validate a checkpoint archive.

    Truncated, corrupt or non-checkpoint files raise
    :class:`CheckpointError` (never a raw numpy/zip/KeyError), so a
    crash *during* a checkpoint write — already unlikely thanks to the
    atomic temp-file + rename — cannot take the resuming process down
    ungracefully.
    """
    path = Path(path)
    if not path.exists():
        raise CheckpointError(
            f"{path}: checkpoint file does not exist", field="path"
        )
    try:
        arrays = load_npz_arrays(path)
        if "manifest" not in arrays:
            raise CheckpointError(
                f"{path}: not a detector checkpoint (no manifest)",
                field="manifest",
            )
        manifest = json.loads(bytes(arrays["manifest"]).decode("utf-8"))
        if manifest.get("format") != CHECKPOINT_FORMAT:
            raise CheckpointError(
                f"{path}: unsupported checkpoint format "
                f"{manifest.get('format')!r}",
                field="format",
            )
        events = json.loads(bytes(arrays["events"]).decode("utf-8"))
        for i, node in enumerate(manifest["paths"]):
            for part in ("ring", "csum", "pending_starts", "pending_snaps"):
                if f"node{i}_{part}" not in arrays:
                    raise CheckpointError(
                        f"{path}: checkpoint missing array "
                        f"node{i}_{part} for node {node!r}",
                        field=f"node{i}_{part}",
                    )
    except CheckpointError:
        raise
    except Exception as exc:  # zip/json/numpy decode failures
        raise CheckpointError(
            f"{path}: unreadable checkpoint archive ({exc})", field="archive"
        ) from exc
    return DetectorCheckpoint(manifest, events, arrays)


def restore_checkpoint(
    ckpt: DetectorCheckpoint,
    detector: FleetFaultDetector,
    *,
    fingerprint: str,
    chunk: int,
    guard=None,
) -> tuple[list[dict], int, int, int]:
    """Restore a checkpoint into a freshly constructed detector.

    Validates lineage, geometry, signature mode and every
    pinned replay knob before touching any state — a mismatch raises
    :class:`CheckpointError` with the offending ``field``.  Returns
    ``(events, next_lo, n_events, n_alerts)`` for the replay loop.
    """
    m = ckpt.manifest
    if m["fingerprint"] != fingerprint:
        raise CheckpointError(
            "checkpoint was taken against a different trained fleet "
            f"(lineage {m['fingerprint'][:12]}... vs {fingerprint[:12]}...)",
            field="fingerprint",
        )
    if m["mode"] != detector.mode:
        raise CheckpointError(
            f"checkpoint mode {m['mode']!r} is incompatible with a "
            f"{detector.mode!r} resume (signature state is not "
            "bit-portable across modes)",
            field="mode",
        )
    if int(m["chunk"]) != int(chunk):
        raise CheckpointError(
            f"checkpoint taken at chunk={m['chunk']}, resume wants "
            f"chunk={chunk} (tick boundaries would shift)",
            field="chunk",
        )
    if list(m["paths"]) != list(detector.paths):
        raise CheckpointError(
            f"checkpoint covers {len(m['paths'])} node(s) "
            f"{m['paths'][:4]}..., detector has "
            f"{len(detector.paths)} node(s)",
            field="paths",
        )
    params = _detector_params(detector)
    for knob in _PINNED_PARAMS:
        if m["params"].get(knob) != params[knob]:
            raise CheckpointError(
                f"checkpoint taken with {knob}={m['params'].get(knob)!r}, "
                f"resume wants {knob}={params[knob]!r}",
                field=knob,
            )
    if (m.get("guard") is not None) != (guard is not None):
        raise CheckpointError(
            "guard mismatch: checkpoint "
            + ("has" if m.get("guard") is not None else "lacks")
            + " guard state but the resuming replay "
            + ("lacks" if guard is None else "has")
            + " a guard",
            field="guard",
        )
    try:
        detector.restore_stream_states(
            {
                node: ckpt.node_state(i, node)
                for i, node in enumerate(m["paths"])
            }
        )
    except (KeyError, ValueError) as exc:
        raise CheckpointError(
            f"checkpoint stream state does not fit this fleet ({exc})",
            field="streams",
        ) from exc
    for i, node in enumerate(m["paths"]):
        detector.policy(node).load_state(m["policies"][node])
        detector._windows[node] = int(m["nodes"][node]["windows"])
        if detector.record_history:
            detector.history[node] = ckpt.node_history(i)
    if guard is not None:
        guard.load_state(m["guard"])
    return (
        list(ckpt.events),
        int(m["next_lo"]),
        int(m["n_events"]),
        int(m["n_alerts"]),
    )
