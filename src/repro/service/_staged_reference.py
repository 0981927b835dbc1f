"""Test-only reference: the staged tick pipeline the fused arena replaced.

The service runs every tick through
:class:`~repro.engine.hotpath.TickArena`.  This module keeps the two
slower pipelines that arena must match bit for bit, as oracles for the
tests and as the baselines ``benchmarks/`` time the arena against:

* :class:`StagedFleetFaultDetector` — the staged tick: one
  :class:`~repro.monitoring.streaming.OnlineSignatureStream` per node
  (:class:`FleetIngest`), the tick's signatures stacked into one feature
  matrix and classified in one forest call, then the same per-node
  alert policies as the production detector;
* :func:`detect_naive` — the obvious per-node loop: one ``push`` per
  sample, one single-row forest predict per signature.

:func:`use_backend` swaps the staged detector in wherever the service
builds a :class:`~repro.service.detector.FleetFaultDetector`, so the
unchanged ``replay`` / ``replay_from_store`` / CLI drivers can run
either pipeline; ``python -m repro.service._staged_reference ARGS``
is ``python -m repro ARGS`` on the staged detector.  Nothing under
``src/`` imports this module.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterable, Mapping

import numpy as np

from repro.core.pipeline import signature_features
from repro.service.alerts import AlertPolicy
from repro.service.classify import TrainedFleet
from repro.service.detector import FleetFaultDetector, _alert_event

__all__ = [
    "FleetIngest",
    "StagedFleetFaultDetector",
    "detect_naive",
    "stamp_legacy_backend",
    "use_backend",
]


class FleetIngest:
    """One incremental signature stream per node of a fleet.

    ``paths`` restricts ingestion to a subset of the engine's nodes
    (default: all of them).
    """

    def __init__(self, engine, paths: Iterable[str] | None = None):
        wanted = sorted(paths) if paths is not None else engine.paths
        missing = [p for p in wanted if p not in engine]
        if missing:
            raise KeyError(f"no model fitted for node(s) {missing!r}")
        self._streams = {p: engine.stream(p) for p in wanted}

    @property
    def paths(self) -> list[str]:
        return sorted(self._streams)

    def stream(self, path: str):
        return self._streams[path]

    def push_blocks(
        self, data: Mapping[str, np.ndarray]
    ) -> dict[str, np.ndarray]:
        """Feed each node's burst ``(n, m)``; return its due signatures,
        in sorted-path order."""
        order = sorted(data)
        missing = [p for p in order if p not in self._streams]
        if missing:
            raise KeyError(f"unknown node path(s) {missing!r}")
        return {p: self._streams[p].push_block(data[p]) for p in order}


class StagedFleetFaultDetector(FleetFaultDetector):
    """:class:`FleetFaultDetector` with the staged tick in place of the
    fused arena: per-node stream pushes, stacked features, one forest
    classify.  Exact mode only.  Accepts the production constructor's
    arguments, so it drops into every driver (see :func:`use_backend`);
    its stream state has the arena's checkpoint layout."""

    def __init__(self, trained: TrainedFleet, *, mode: str = "exact", **kwargs):
        if mode != "exact":
            raise ValueError("the staged reference computes exact signatures only")
        super().__init__(trained, mode=mode, **kwargs)
        self.ingest = FleetIngest(trained.engine)

    def node_stream_state(self, path: str) -> dict:
        return self.ingest.stream(path).state_dict()

    def restore_stream_states(self, states: Mapping[str, dict]) -> None:
        missing = [p for p in self.paths if p not in states]
        if missing:
            raise KeyError(f"missing restore state for node(s) {missing!r}")
        for p in self.paths:
            self.ingest.stream(p).load_state(states[p])

    def process_block(self, data: Mapping[str, np.ndarray]) -> list[dict]:
        signatures = self.ingest.push_blocks(data)
        order = [p for p in signatures if signatures[p].shape[0]]
        if not order:
            return []
        stacked = np.concatenate([signatures[p] for p in order], axis=0)
        labels, confidence = self.trained.classifier.classify(stacked)
        events: list[dict] = []
        pos = 0
        for path in order:
            sigs = signatures[path]
            k = sigs.shape[0]
            self._advance(
                path,
                labels[pos : pos + k],
                confidence[pos : pos + k],
                lambda j, s=sigs: s[j],
                events,
            )
            pos += k
        return events


def detect_naive(
    trained: TrainedFleet,
    data: Mapping[str, np.ndarray],
    *,
    open_after: int = 2,
    close_after: int = 2,
    min_confidence: float = 0.0,
    top_blocks: int = 3,
) -> list[dict]:
    """The per-node baseline loop (events identical to the detector's).

    For each node in turn: push samples one at a time, classify each
    emitted signature with a single-row forest predict, advance that
    node's policy.
    """
    events: list[dict] = []
    forest = trained.classifier.forest
    for path in sorted(data):
        stream = trained.engine.stream(path)
        policy = AlertPolicy(
            healthy_label=trained.healthy_label,
            open_after=open_after,
            close_after=close_after,
            min_confidence=min_confidence,
        )
        matrix = np.asarray(data[path], dtype=np.float64)
        window = 0
        for t in range(matrix.shape[1]):
            signature = stream.push(matrix[:, t])
            if signature is None:
                continue
            features = signature_features(signature[None, :])
            label_arr, proba = forest.predict_with_proba(features)
            label = int(label_arr[0])
            conf = float(proba[0].max())
            for kind, alert in policy.update(window, label, conf):
                events.append(
                    _alert_event(
                        trained,
                        kind,
                        path,
                        alert,
                        window,
                        conf,
                        signature,
                        top_blocks,
                    )
                )
            window += 1
    return events


#: Modules that construct the service's detector by this name.
_DETECTOR_SITES = (
    "repro.service.api",
    "repro.service.replay",
    "repro.service.fastreplay",
)


@contextmanager
def use_backend(backend: str):
    """Run the service on ``"fused"`` (production, a no-op) or
    ``"staged"`` (:class:`StagedFleetFaultDetector`) inside the block.

    ``replay``, ``replay_from_store``, ``build_detector`` and the CLI
    then build the chosen detector.  Not thread-safe: it rebinds
    module globals for the duration of the block.
    """
    import importlib

    if backend not in ("fused", "staged"):
        raise ValueError(f"unknown backend {backend!r}")
    if backend == "fused":
        yield
        return
    modules = [importlib.import_module(m) for m in _DETECTOR_SITES]
    saved = [m.FleetFaultDetector for m in modules]
    for m in modules:
        m.FleetFaultDetector = StagedFleetFaultDetector
    try:
        yield
    finally:
        for m, cls in zip(modules, saved):
            m.FleetFaultDetector = cls


def stamp_legacy_backend(path, backend: str = "staged") -> None:
    """Rewrite a checkpoint's manifest ``"backend"`` key in place, as
    writers from before the single tick path stamped it (``"staged"``
    by default, ``"fused"`` on request)."""
    import json

    from repro.monitoring.storage import atomic_savez, load_npz_arrays

    arrays = load_npz_arrays(path)
    manifest = json.loads(bytes(arrays["manifest"]).decode("utf-8"))
    manifest["backend"] = backend
    arrays["manifest"] = np.frombuffer(
        json.dumps(manifest).encode("utf-8"), dtype=np.uint8
    )
    atomic_savez(path, **arrays)


if __name__ == "__main__":
    # ``python -m repro.service._staged_reference ARGS`` runs
    # ``python -m repro ARGS`` on the staged reference detector.
    from repro.cli import console_main

    with use_backend("staged"):
        console_main()
