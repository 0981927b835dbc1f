"""Fused single-pass tick hot path: preallocated per-group arenas.

A staged service tick (per-node ``OnlineSignatureStream.push_block`` →
``signature_features`` → ``predict_with_proba``) allocates at every
stage: each node's burst materializes an extended column buffer, fresh
prefix sums, a complex signature block, a stacked feature matrix and a
new forest frontier per tree level.  Per tick that is dozens of numpy
allocations *per node* — pure overhead once fleets reach hundreds of
nodes and bursts shrink to serving size.

:class:`TickArena` is the service's only tick path: every buffer the
tick path touches is preallocated once at construction (sized by the
fleet's geometry and the ring length), and a steady-state tick runs the
whole pass — gather, min-max normalize, running prefix sums, windowed
value/derivative means, CS permutation, block reduction, feature layout
and the lockstep forest walk — through ``out=`` kernels into those
arenas.  A steady-state tick retains **zero** new numpy memory (asserted
by a tracemalloc regression test) and its transient peak is bounded by a
few index temporaries instead of a staged pipeline's per-stage matrices.

State layout: each geometry group keeps its ring *time-outer and in
model sensor order*, ``(wl + 1, c, n)``, so one sample of the whole
group is a contiguous ``(c, n)`` plane.  The gather is a plain
transposed copy per node, normalization and the running sum sweep whole
planes, and the CS permutation — which only the block reduction needs —
is applied once per tick to the ``k`` emitted window rows.  One kernel
serves every burst length and every mode: bursts longer than the ring
are split into ring-sized sub-bursts, which is output-identical.

Exactness contract: in the default ``exact`` mode every floating-point
operation replays :class:`~repro.engine.streaming.IncrementalSignatureCore`
(same association order, same tie-breaks), the feature layout replays
:func:`~repro.core.pipeline.signature_features` and the classifier
replays ``_ForestStack.accumulate`` (sequential per-tree adds), so
signatures, labels, confidences and therefore alert streams are
**bit-identical** to the staged pipeline, which the tests keep as an
oracle (``repro.service._staged_reference``).  ``float32`` mode runs the same
pass in single precision (half the state, wider SIMD); ``quantized``
mode additionally bins emitted signatures to uint8 (256 levels over each
component's exact value range) and classifies the dequantized bin
centers — the accuracy cost of both is measured per scenario in
``benchmarks/test_tick_hotpath.py`` and reported in ``EXPERIMENTS.md``.

The forest walk cannot use ``_ForestStack.apply``'s shrinking frontier
(its compaction allocates per level).  Instead leaves are given
*self-loop* children once at construction and every (sample, tree) pair
walks exactly ``max_depth`` levels in lockstep through preallocated
buffers: pairs that reach their leaf early spin in place, and the final
node array equals ``apply``'s bit for bit.
"""

from __future__ import annotations

from collections import deque
from typing import Mapping

import numpy as np

from repro.engine.streaming import REANCHOR_INTERVAL
from repro.engine.windows import partition_bounds

__all__ = ["SIGNATURE_MODES", "TickArena"]

#: Supported signature computation modes of the arena.
SIGNATURE_MODES = ("exact", "float32", "quantized")

_LEAF = -1

#: Re-anchor interval of the float32 modes: single-precision running
#: sums lose absolute accuracy ~2^29 times faster than float64, so the
#: arena re-anchors every 4096 samples (one subtraction per node every
#: ~4k ticks — free) instead of every 2^22.
_F32_REANCHOR_INTERVAL = 1 << 12


def _emit_plan(t0: int, total: int, wl: int, ws: int) -> tuple[int, int]:
    """Signatures due while the sample count grows from ``t0`` to
    ``total`` — the closed form of ``WindowPlan.emits_at`` over
    ``count = wl + k*ws`` with ``t0 < count <= total`` — as ``(k_lo,
    k)``: the first window index and the number of windows."""
    k_lo = max(0, -(-(t0 + 1 - wl) // ws))
    k_hi = (total - wl) // ws
    return k_lo, max(0, k_hi - k_lo + 1)


class _ForestWorkspace:
    """Preallocated lockstep forest evaluation over a fitted stack.

    Leaf nodes get self-loop children (and feature index 0) so the walk
    needs no frontier compaction: every (sample, tree) pair advances
    ``depth`` levels through fixed buffers and lands on the same leaf
    ``_ForestStack.apply`` finds.  Accumulation then replays the
    sequential per-tree adds of ``accumulate`` bit for bit.
    """

    def __init__(self, forest, n_features: int):
        stack = forest._stack
        if stack is None:
            raise ValueError("forest is not fitted")
        self.n_trees = stack.n_trees
        self.base = stack.base
        self.values = stack.values
        self.classes = np.asarray(forest.classes_)
        self.threshold = stack.threshold
        self.n_features = int(n_features)
        leaf = stack.feature == _LEAF
        nodes = np.arange(stack.feature.shape[0], dtype=np.intp)
        self.leaf_mask = leaf
        self.feat_safe = np.where(leaf, 0, stack.feature)
        self.left_loop = np.where(leaf, nodes, stack.left)
        self.right_loop = np.where(leaf, nodes, stack.right)
        # Levels needed so every root-to-leaf walk completes (a pure
        # leaf forest needs zero).
        depth = 0
        frontier = self.base[stack.feature[self.base] != _LEAF]
        while frontier.size:
            depth += 1
            children = np.concatenate(
                [self.left_loop[frontier], self.right_loop[frontier]]
            )
            frontier = children[stack.feature[children] != _LEAF]
        self.depth = depth
        self._capacity = 0

    def resize(self, capacity: int, dtype) -> None:
        """(Re)allocate walk buffers for up to ``capacity`` samples."""
        if capacity <= self._capacity:
            return
        n = capacity * self.n_trees
        self._capacity = capacity
        self._cur = np.empty(n, dtype=np.intp)
        self._nl = np.empty(n, dtype=np.intp)
        self._nr = np.empty(n, dtype=np.intp)
        self._f = np.empty(n, dtype=np.intp)
        self._xv = np.empty(n, dtype=dtype)
        self._thr = np.empty(n, dtype=np.float64)
        self._gl = np.empty(n, dtype=bool)
        self._row_off = np.repeat(
            np.arange(capacity, dtype=np.intp) * self.n_features,
            self.n_trees,
        )
        self._acc = np.empty((capacity, self.values.shape[1]))
        self._scr = np.empty((capacity, self.values.shape[1]))
        self._raw = np.empty(capacity, dtype=np.intp)

    def nbytes(self) -> int:
        if self._capacity == 0:
            return 0
        return sum(
            b.nbytes
            for b in (
                self._cur, self._nl, self._nr, self._f, self._xv,
                self._thr, self._gl, self._row_off, self._acc, self._scr,
                self._raw,
            )
        )

    def classify_into(
        self,
        X: np.ndarray,
        labels: np.ndarray,
        conf: np.ndarray,
    ) -> None:
        """Fill ``labels[:k]``/``conf[:k]`` for the ``k`` rows of ``X``.

        Bit-identical to ``classes_[argmax(p, 1)]`` / ``p.max(1)`` with
        ``p = _ForestStack.accumulate(X) / n_trees``.
        """
        k = X.shape[0]
        if k == 0:
            return
        N = k * self.n_trees
        cur, nl, nr = self._cur, self._nl, self._nr
        c = cur[:N].reshape(k, self.n_trees)
        c[:] = self.base
        f, xv = self._f[:N], self._xv[:N]
        thr, gl = self._thr[:N], self._gl[:N]
        xb = self._row_off[:N]
        x_flat = X.reshape(-1)
        cv = cur[:N]
        act = cur_a = xb_a = None
        for _ in range(self.depth):
            if act is None:
                # Full-width levels: every lane steps in place.  Leaves
                # self-loop, so finished lanes are no-ops — but past the
                # forest's typical depth most lanes ARE finished, and
                # full-width passes pay for all of them.
                self.leaf_mask.take(cv, out=gl)
                n_act = N - np.count_nonzero(gl)
                if n_act == 0:
                    break
                if n_act * 2 > N:
                    self.feat_safe.take(cv, out=f)
                    np.add(f, xb, out=f)
                    x_flat.take(f, out=xv)
                    self.threshold.take(cv, out=thr)
                    np.less_equal(xv, thr, out=gl)
                    self.left_loop.take(cv, out=nl[:N])
                    self.right_loop.take(cv, out=nr[:N])
                    np.copyto(nr[:N], nl[:N], where=gl)
                    cur, nr = nr, cur
                    cv = cur[:N]
                    continue
                # Under half the lanes still walking: switch to a
                # compacted active set — the deep tail of the walk
                # costs per *active* lane, not per lane.  The walk
                # itself is unchanged (same nodes, same comparisons),
                # so the leaves — and everything downstream — are
                # identical.
                act = np.flatnonzero(~gl)
                cur_a = cv[act]
                xb_a = xb[act]
            f_a = self.feat_safe[cur_a]
            np.add(f_a, xb_a, out=f_a)
            gle = x_flat[f_a] <= self.threshold[cur_a]
            step = self.right_loop[cur_a]
            np.copyto(step, self.left_loop[cur_a], where=gle)
            cur_a = step
            done = self.leaf_mask[cur_a]
            if done.any():
                cv[act[done]] = cur_a[done]
                keep = ~done
                act = act[keep]
                cur_a = cur_a[keep]
                xb_a = xb_a[keep]
                if act.size == 0:
                    break
        self._cur, self._nl, self._nr = cur, nl, nr
        leaves = cur[:N].reshape(k, self.n_trees)
        acc, scr = self._acc[:k], self._scr[:k]
        acc[...] = 0.0
        for t in range(self.n_trees):
            self.values.take(leaves[:, t], axis=0, out=scr)
            np.add(acc, scr, out=acc)
        np.divide(acc, self.n_trees, out=acc)
        raw = self._raw[:k]
        np.argmax(acc, axis=1, out=raw)
        self.classes.take(raw, out=labels[:k])
        np.max(acc, axis=1, out=conf[:k])


class _GroupState:
    """Arena of one geometry group: all nodes sharing a sensor count.

    State is *time-outer and in model sensor order*.  The ring is
    ``(wl + 1, c, n)`` — time slot, node, sensor row — and every
    per-sensor vector (running sum, pending snapshots, normalization
    bounds) is a ``(c, n)`` plane, all in the CS model's original row
    order (the order ``CSModel.lower``/``upper`` are kept in).  A burst
    therefore lands as whole contiguous planes: the gather is a plain
    transposed copy per node, normalization broadcasts the bounds over
    full planes and the running sum is one plane add per sample (one
    node of a degraded group stages its burst and runs one cumsum
    instead).  Those steps are all elementwise per sensor, so the row
    order changes no bit.  The CS permutation matters only to the block
    reduction, where ``_emit`` applies it once to the emitted window
    rows: ``perm`` holds, per node and sorted row, a flat index into a
    ``(c, n)`` plane.
    """

    def __init__(self, paths, models, l, wl, ws, max_m, dtype):
        self.paths = list(paths)
        c = len(self.paths)
        n = models[0].n_sensors
        self.c, self.n, self.l = c, n, int(l)
        self.wl, self.ws = int(wl), int(ws)
        self.size = self.wl + 1
        #: Longest sub-burst the kernel takes: every column of it owns a
        #: distinct ring slot.
        self.chunk = min(int(max_m), self.size)
        self.dtype = dtype
        self.bstarts, self.bends = partition_bounds(n, self.l)
        self.widths = (self.bends - self.bstarts).astype(np.float64)
        if dtype != np.float64:
            self.widths = self.widths.astype(dtype)
        # Per-node model parameters (cf. IncrementalSignatureCore.__init__,
        # which keeps the same bounds in permuted row order).
        self.perm = np.empty((c, n), dtype=np.intp)
        lower = np.empty((c, n))
        upper = np.empty((c, n))
        for j, model in enumerate(models):
            self.perm[j] = model.permutation + j * n
            lower[j] = model.lower
            upper[j] = model.upper
        span = upper - lower
        self.deg_mask = span <= 0.0
        self.deg_any = bool(self.deg_mask.any())
        self.lower = lower.astype(dtype)
        self.span = np.where(self.deg_mask, 1.0, span).astype(dtype)
        # Retained per-node streaming state.  The ring holds the last
        # ``wl + 1`` normalized samples at slot ``t % size`` (the
        # streaming core's ring, transposed): a tick writes only its new
        # planes and derivative references read single planes.
        self.ring = np.zeros((self.size, c, n), dtype=dtype)
        self.csum = np.zeros((c, n), dtype=dtype)
        self.counts = np.zeros(c, dtype=np.int64)
        self.anchors = np.zeros(c, dtype=np.int64)
        self.emitted = np.zeros(c, dtype=np.int64)
        #: Snapshot ring: bounded FIFO slots for pending window starts
        #: (at most ceil(wl/ws)+1 live at once; +1 slack).
        self.P = -(-self.wl // self.ws) + 2
        self.pending_buf = np.empty((self.P, c, n), dtype=dtype)
        #: While every node of the group has seen the same samples the
        #: FIFO is shared (one deque of (start, slot) for all c nodes);
        #: the first ragged tick splits it into per-node FIFOs for good.
        self.uniform = True
        self.shared_fifo: deque[tuple[int, int]] = deque()
        self.shared_slot = 0
        self.node_fifos: list[deque[tuple[int, int]]] | None = None
        self.node_slots: list[int] | None = None
        # Tick scratch (content never survives a tick): per emitted
        # window its value row ``win[:, 0]`` and derivative row
        # ``win[:, 1]`` in model order, their permuted copy, its prefix
        # sums and the two block-boundary gathers.  The flat buffers are
        # reshaped per call so a node subset stays contiguous.
        self.kmax = self.chunk // self.ws + 1
        self.win = np.empty((self.kmax, 2, c, n), dtype=dtype)
        rows = 2 * self.kmax * c
        self.prow = np.empty(rows * n, dtype=dtype)
        self.psum = np.empty((rows, n + 1), dtype=dtype)
        self.sig = np.empty(rows * self.l, dtype=dtype)
        self.sig2 = np.empty(rows * self.l, dtype=dtype)
        self.base_scratch = np.empty((c, n), dtype=dtype)
        #: One node's normalized burst and its prefix sums, time-major
        #: (the per-node path of degraded groups).
        self.stage = np.empty((self.chunk, n), dtype=dtype)
        self.seq = np.empty((self.chunk + 1, n), dtype=dtype)
        # Pre-fault the scratches: first-touch page faults inside the
        # first fused burst cost far more than this one-time fill.
        for scratch in self._scratches():
            scratch.fill(0)  # psum[:, 0] stays 0 for good
        self.pending_buf.fill(0)
        self.shared_view = _SharedFifo(self)
        self.node_views: list[_NodeFifo] | None = None

    def _scratches(self):
        return (
            self.win, self.prow, self.psum, self.sig, self.sig2,
            self.base_scratch, self.stage, self.seq,
        )

    def local_perm(self, i: int) -> np.ndarray:
        """Node ``i``'s CS permutation (sorted row -> model row)."""
        return self.perm[i] - i * self.n

    # -- pending FIFO views -------------------------------------------
    def degrade(self) -> None:
        """Split the shared FIFO into per-node FIFOs (first ragged tick).

        Entries and slot cursors are copied verbatim, so the transition
        changes no node's pending state.  The group never re-unifies:
        per-node processing stays bit-identical, merely less batched.
        """
        if not self.uniform:
            return
        self.uniform = False
        self.node_fifos = [deque(self.shared_fifo) for _ in range(self.c)]
        self.node_slots = [self.shared_slot] * self.c
        self.node_views = [_NodeFifo(self, i) for i in range(self.c)]
        self.shared_fifo.clear()

    def state_nbytes(self) -> int:
        """Retained (non-scratch) bytes of the whole group."""
        return (
            self.ring.nbytes + self.csum.nbytes + self.pending_buf.nbytes
            + self.perm.nbytes + self.lower.nbytes + self.span.nbytes
            + self.deg_mask.nbytes + self.counts.nbytes
            + self.anchors.nbytes + self.emitted.nbytes
        )

    def scratch_nbytes(self) -> int:
        return sum(b.nbytes for b in self._scratches())


class _SharedFifo:
    """Pending-snapshot access for a whole uniform group."""

    def __init__(self, group: _GroupState):
        self.g = group

    def push(self, start: int) -> np.ndarray:
        g = self.g
        slot = g.shared_slot
        g.shared_slot = (slot + 1) % g.P
        g.shared_fifo.append((start, slot))
        return g.pending_buf[slot]

    def pop(self, start: int) -> np.ndarray:
        g = self.g
        s, slot = g.shared_fifo.popleft()
        assert s == start, f"pending start {s} != expected {start}"
        return g.pending_buf[slot]

    def views(self):
        g = self.g
        return [g.pending_buf[slot] for _, slot in g.shared_fifo]


class _NodeFifo:
    """Pending-snapshot access for one node of a degraded group."""

    def __init__(self, group: _GroupState, i: int):
        self.g = group
        self.i = i

    def push(self, start: int) -> np.ndarray:
        g, i = self.g, self.i
        slot = g.node_slots[i]
        g.node_slots[i] = (slot + 1) % g.P
        g.node_fifos[i].append((start, slot))
        return g.pending_buf[slot, i : i + 1]

    def pop(self, start: int) -> np.ndarray:
        g, i = self.g, self.i
        s, slot = g.node_fifos[i].popleft()
        assert s == start, f"pending start {s} != expected {start}"
        return g.pending_buf[slot, i : i + 1]

    def views(self):
        g, i = self.g, self.i
        return [g.pending_buf[slot, i : i + 1] for _, slot in g.node_fifos[i]]


class TickArena:
    """Preallocated fused tick path for a trained fleet.

    Parameters
    ----------
    engine:
        The trained :class:`~repro.engine.fleet.FleetSignatureEngine`
        (one CS model per node).  Every node must resolve to the same
        signature length ``l`` — the service classifier requires uniform
        feature lengths anyway.
    forest:
        The fitted shared :class:`~repro.ml.forest.RandomForestClassifier`.
    mode:
        ``"exact"`` (float64, bit-identical to the streaming core),
        ``"float32"`` or ``"quantized"`` (float32 compute + uint8-binned
        signatures).
    max_chunk:
        Longest sub-burst the kernel takes, capped at the ring's
        ``wl + 1`` columns; longer bursts are split, which is
        output-identical (``push_block`` composes exactly).  Window-row
        scratch scales with the capped value, and the per-tick emit rows
        are pre-sized for ``max_chunk``-long bursts (they grow on demand
        either way).
    paths:
        Optional subset of the engine's nodes; defaults to all of them.
    """

    def __init__(
        self,
        engine,
        forest,
        *,
        mode: str = "exact",
        max_chunk: int = 256,
        paths=None,
    ):
        if mode not in SIGNATURE_MODES:
            raise ValueError(
                f"unknown signature mode {mode!r}; pick one of "
                f"{SIGNATURE_MODES}"
            )
        if max_chunk < 1:
            raise ValueError("max_chunk must be >= 1")
        self.mode = mode
        self.dtype = np.float64 if mode == "exact" else np.float32
        self.max_chunk = int(max_chunk)
        self.wl, self.ws = int(engine.wl), int(engine.ws)
        self._reanchor_every = (
            REANCHOR_INTERVAL if mode == "exact" else _F32_REANCHOR_INTERVAL
        )
        wanted = sorted(paths) if paths is not None else engine.paths
        missing = [p for p in wanted if p not in engine]
        if missing:
            raise KeyError(f"no model fitted for node(s) {missing!r}")
        if not wanted:
            raise ValueError("the arena needs at least one node")
        lengths = {engine.signature_length(p) for p in wanted}
        if len(lengths) != 1:
            raise ValueError(
                "the tick arena needs one uniform signature length across "
                f"the fleet, got {sorted(lengths)}"
            )
        self.blocks = lengths.pop()
        self.n_features = 2 * self.blocks
        # Group nodes by sensor count (same l everywhere already).
        by_n: dict[int, list[str]] = {}
        for p in wanted:
            by_n.setdefault(engine.model(p).n_sensors, []).append(p)
        self.groups = [
            _GroupState(
                ps,
                [engine.model(p) for p in ps],
                self.blocks,
                self.wl,
                self.ws,
                self.max_chunk,
                self.dtype,
            )
            for _, ps in sorted(by_n.items())
        ]
        #: path -> (group, index inside the group)
        self._node: dict[str, tuple[_GroupState, int]] = {}
        for g in self.groups:
            for i, p in enumerate(g.paths):
                self._node[p] = (g, i)
        self.paths = list(wanted)
        self._forest_ws = _ForestWorkspace(forest, self.n_features)
        per_tick = self.max_chunk // self.ws + 1
        self._capacity = 0
        self._ensure_capacity(max(1, len(wanted) * per_tick))
        self._assigned: dict[str, tuple[int, int]] = {}

    # ------------------------------------------------------------------
    def _ensure_capacity(self, k: int) -> None:
        """Size the emit-row buffers for ``k`` signatures per tick.

        Only grows (amortized doubling); a steady-state tick never
        enters the allocation branch.
        """
        if k <= self._capacity:
            return
        k = max(k, 2 * self._capacity)
        self._capacity = k
        self._feat = np.empty((k, self.n_features), dtype=self.dtype)
        self._qfeat = (
            np.empty((k, self.n_features), dtype=np.uint8)
            if self.mode == "quantized"
            else None
        )
        self._labels = np.empty(k, dtype=np.intp)
        self._conf = np.empty(k, dtype=np.float64)
        self._forest_ws.resize(k, self.dtype)

    # ------------------------------------------------------------------
    def counts(self, path: str) -> int:
        """Samples absorbed so far for one node."""
        g, i = self._node[path]
        return int(g.counts[i])

    def emitted(self, path: str) -> int:
        """Signatures emitted so far for one node."""
        g, i = self._node[path]
        return int(g.emitted[i])

    def signature(self, row: int) -> np.ndarray:
        """Complex signature of one emit row of the *last* tick.

        Exact mode reconstructs the streaming signature bit for bit (the
        feature layout is lossless ``[real | imag]``); float32/quantized
        modes return what the classifier actually saw.
        """
        f = self._feat[row]
        sig = np.empty(self.blocks, dtype=np.complex128)
        sig.real = f[: self.blocks]
        sig.imag = f[self.blocks :]
        return sig

    # ------------------------------------------------------------------
    def node_state(self, path: str) -> dict:
        """Snapshot one node's retained streaming state.

        Same layout as
        :meth:`repro.engine.streaming.IncrementalSignatureCore.state_dict`
        — an ``(n, wl + 1)`` ring and ``(n,)`` sums in the model's
        permuted row order — converted from the arena's time-outer
        model-order planes, so checkpoints store it unchanged.
        """
        g, i = self._node[path]
        perm = g.local_perm(i)
        entries = (
            list(g.shared_fifo) if g.uniform else list(g.node_fifos[i])
        )
        k = len(entries)
        starts = np.fromiter(
            (s for s, _ in entries), dtype=np.int64, count=k
        )
        snaps = (
            np.stack([g.pending_buf[slot, i, perm] for _, slot in entries])
            if k
            else np.empty((0, g.n), dtype=g.dtype)
        )
        return {
            "ring": np.ascontiguousarray(g.ring[:, i, perm].T),
            "csum": g.csum[i, perm],
            "count": int(g.counts[i]),
            "emitted": int(g.emitted[i]),
            "anchor": int(g.anchors[i]),
            "pending_starts": starts,
            "pending_snaps": snaps,
        }

    def restore_states(self, states: Mapping[str, dict]) -> None:
        """Restore a :meth:`node_state` snapshot for **every** node.

        When all nodes of a geometry group restore to the same sample
        count with identical pending starts the group keeps its shared
        FIFO (the batched uniform path); otherwise it degrades to
        per-node FIFOs — bit-identical either way, merely less batched.
        """
        missing = [p for p in self.paths if p not in states]
        if missing:
            raise KeyError(f"missing restore state for node(s) {missing!r}")
        for g in self.groups:
            per = []
            for i, p in enumerate(g.paths):
                st = states[p]
                ring = np.asarray(st["ring"], dtype=g.dtype)
                csum = np.asarray(st["csum"], dtype=g.dtype)
                starts = np.asarray(st["pending_starts"], dtype=np.int64)
                snaps = np.asarray(st["pending_snaps"], dtype=g.dtype)
                if ring.shape != (g.n, g.size):
                    raise ValueError(
                        f"node {p!r}: ring shape {ring.shape} does not "
                        f"match ({g.n}, {g.size})"
                    )
                if csum.shape != (g.n,):
                    raise ValueError(
                        f"node {p!r}: csum shape {csum.shape} does not "
                        f"match ({g.n},)"
                    )
                if snaps.shape != (starts.shape[0], g.n):
                    raise ValueError(
                        f"node {p!r}: pending snapshot shape "
                        f"{snaps.shape} does not match "
                        f"({starts.shape[0]}, {g.n})"
                    )
                if starts.shape[0] > g.P:
                    raise ValueError(
                        f"node {p!r}: {starts.shape[0]} pending snapshots "
                        f"exceed the arena's {g.P} FIFO slots"
                    )
                perm = g.local_perm(i)
                g.ring[:, i, perm] = ring.T
                g.csum[i, perm] = csum
                g.counts[i] = int(st["count"])
                g.emitted[i] = int(st["emitted"])
                g.anchors[i] = int(st["anchor"])
                per.append((starts, snaps, perm))
            starts0 = per[0][0]
            uniform = g.uniform and all(
                starts.shape == starts0.shape
                and bool((starts == starts0).all())
                for starts, _, _ in per
            ) and len({int(g.counts[i]) for i in range(g.c)}) == 1
            g.shared_fifo.clear()
            if uniform:
                g.shared_slot = 0
                for k_idx, s in enumerate(starts0):
                    buf = g.shared_view.push(int(s))
                    for i, (_, snaps, perm) in enumerate(per):
                        buf[i, perm] = snaps[k_idx]
            else:
                g.degrade()
                for i, (starts, snaps, perm) in enumerate(per):
                    g.node_fifos[i].clear()
                    g.node_slots[i] = 0
                    for k_idx, s in enumerate(starts):
                        g.node_views[i].push(int(s))[0, perm] = snaps[k_idx]

    # ------------------------------------------------------------------
    def tick(self, data: Mapping[str, np.ndarray]):
        """Absorb one burst per node; classify everything the fleet emits.

        Returns ``[(path, labels, confidences, row0), ...]`` in sorted
        path order, where ``labels``/``confidences`` are views of the
        arena's per-tick buffers (consume before the next tick) and
        ``row0`` keys :meth:`signature` for alert attribution.
        """
        order = sorted(data)
        missing = [p for p in order if p not in self._node]
        if missing:
            raise KeyError(f"unknown node path(s) {missing!r}")
        blocks: dict[str, np.ndarray] = {}
        for p in order:
            B = np.asarray(data[p], dtype=np.float64)
            g, _ = self._node[p]
            if B.ndim != 2 or B.shape[0] != g.n:
                raise ValueError(
                    f"block shape {B.shape} does not match ({g.n}, m) "
                    f"layout for node {p!r}"
                )
            if B.shape[1]:
                blocks[p] = B
        # Plan this tick's emit rows before touching any state.
        total_k = 0
        for p, B in blocks.items():
            g, i = self._node[p]
            total_k += _emit_plan(
                int(g.counts[i]), int(g.counts[i]) + B.shape[1],
                self.wl, self.ws,
            )[1]
        self._ensure_capacity(total_k)
        assigned = self._assigned
        assigned.clear()
        feat2 = self._feat
        qfeat2 = self._qfeat
        row = 0
        for g in self.groups:
            present = [
                (i, p) for i, p in enumerate(g.paths) if p in blocks
            ]
            if not present:
                continue
            ms = {blocks[p].shape[1] for _, p in present}
            if g.uniform and len(present) == g.c and len(ms) == 1:
                m = ms.pop()
                t0 = int(g.counts[0])
                k_tick = _emit_plan(t0, t0 + m, self.wl, self.ws)[1]
                for i, p in present:
                    assigned[p] = (row + i * k_tick, k_tick)
                hi = row + g.c * k_tick
                feat3 = feat2[row:hi].reshape(g.c, k_tick, self.n_features)
                qfeat3 = (
                    qfeat2[row:hi].reshape(g.c, k_tick, self.n_features)
                    if qfeat2 is not None
                    else None
                )
                off = 0
                for lo in range(0, m, g.chunk):
                    off += self._absorb(
                        g,
                        slice(0, g.c),
                        g.shared_view,
                        [blocks[p][:, lo : lo + g.chunk] for _, p in present],
                        feat3,
                        qfeat3,
                        off,
                    )
                row = hi
            else:
                g.degrade()
                for i, p in present:
                    B = blocks[p]
                    t0 = int(g.counts[i])
                    k_i = _emit_plan(
                        t0, t0 + B.shape[1], self.wl, self.ws
                    )[1]
                    assigned[p] = (row, k_i)
                    hi = row + k_i
                    feat3 = feat2[row:hi].reshape(1, k_i, self.n_features)
                    qfeat3 = (
                        qfeat2[row:hi].reshape(1, k_i, self.n_features)
                        if qfeat2 is not None
                        else None
                    )
                    fifo = g.node_views[i]
                    off = 0
                    for lo in range(0, B.shape[1], g.chunk):
                        off += self._absorb(
                            g,
                            slice(i, i + 1),
                            fifo,
                            [B[:, lo : lo + g.chunk]],
                            feat3,
                            qfeat3,
                            off,
                        )
                    row = hi
        if row:
            self._forest_ws.classify_into(
                feat2[:row], self._labels, self._conf
            )
        out = []
        for p in order:
            r0, k = assigned.get(p, (0, 0))
            out.append(
                (p, self._labels[r0 : r0 + k], self._conf[r0 : r0 + k], r0)
            )
        return out

    # ------------------------------------------------------------------
    def _absorb(self, g, sl, fifo, node_blocks, feat3, qfeat3, off) -> int:
        """One fused sub-burst of at most ``wl + 1`` columns for the nodes
        ``sl`` of group ``g`` — the whole group while it is uniform, one
        node of a degraded group.

        The batched twin of ``IncrementalSignatureCore._absorb`` over
        time-outer planes: every numbered step mirrors one of its
        operations in the same floating-point association order, into
        preallocated buffers.  Returns the signatures emitted per node.
        """
        m = node_blocks[0].shape[1]
        t0 = int(g.counts[sl.start])
        total = t0 + m
        size, wl, ws = g.size, g.wl, g.ws
        k_lo, k = _emit_plan(t0, total, wl, ws)
        ring = g.ring[:, sl]
        rows, drows = g.win[:k, 0, sl], g.win[:k, 1, sl]
        starts = range(k_lo * ws, (k_lo + k) * ws, ws)
        # 0. Emit plan.  Window starts predating the burst pop their
        #    snapshot from the FIFO; derivative reference columns
        #    predating it sit in ring slots the new columns are about to
        #    overwrite, so they are copied out first (``ref >= t0 - wl``:
        #    all still live).  ``taps`` maps a prefix-sum index to the
        #    planes that take a copy of it; ``ends`` to the value row it
        #    closes.
        taps: dict[int, list[np.ndarray]] = {}
        ends: dict[int, np.ndarray] = {}
        for idx, s in enumerate(starts):
            ref = s - 1 if s > 0 else s
            if ref < t0:
                drows[idx] = ring[ref % size]
            if s < t0:
                rows[idx] = fifo.pop(s)
            else:
                taps.setdefault(s - t0, []).append(rows[idx])
            ends[s + wl - t0] = rows[idx]
        first_start = -(-t0 // ws) * ws
        for s in range(first_start, total, ws):
            if s + wl > total:
                taps.setdefault(s - t0, []).append(fifo.push(s))

        def tap(t, prefix):
            for dst in taps.get(t, ()):
                dst[...] = prefix
            end = ends.get(t)
            if end is not None:
                np.subtract(prefix, end, out=end)

        # 1. Gather into the ring — each sample a plane at slot
        #    ``t % size``, at most two runs around the wrap point — and
        #    min-max normalize (subtract, divide, degenerate rows to 0.5,
        #    clip).  2. Running sum down the time axis (the same
        #    left-to-right association as repeated push()), tapped only
        #    where a window or a pending snapshot needs it.
        p0 = t0 % size
        first = min(size - p0, m)
        runs = [(ring[p0 : p0 + first], 0)]
        if m > first:
            runs.append((ring[: m - first], first))
        csum = g.csum[sl]
        if sl.stop - sl.start > 1:
            # A group: normalize one whole plane at a time in place in
            # the ring and add it into the running sum while it is still
            # in cache.
            for part, lo in runs:
                hi = lo + part.shape[0]
                for j, B in enumerate(node_blocks):
                    part[:, j] = B[:, lo:hi].T
            for t in range(m + 1):
                tap(t, csum)
                if t < m:
                    plane = ring[(p0 + t) % size]
                    self._normalize(g, plane, sl)
                    np.add(csum, plane, out=csum)
        else:
            # One node: too narrow for per-plane calls to pay off.  Its
            # burst is normalized in the contiguous ``stage``, copied
            # into the ring, and one cumsum seeded with the running sum
            # (IEEE addition commutes) yields every prefix sum.
            stage, seq = g.stage[:m], g.seq[: m + 1]
            stage[...] = node_blocks[0].T
            self._normalize(g, stage, sl.start)
            for part, lo in runs:
                part[:, 0] = stage[lo : lo + part.shape[0]]
            seq[0] = csum[0]
            np.add(stage[0], seq[0], out=stage[0])
            np.cumsum(stage, axis=0, out=seq[1:])
            for t in sorted(taps.keys() | ends.keys()):
                tap(t, seq[t])
            csum[0] = seq[m]
        # 3. Emits due inside this sub-burst: derivative rows (the
        #    window's last column is one of this burst's planes; its
        #    reference is too, or was copied out in step 0), then value
        #    and derivative sums become means and go to ``_emit``.
        if k:
            for idx, s in enumerate(starts):
                ref = s - 1 if s > 0 else s
                src = ring[ref % size] if ref >= t0 else drows[idx]
                np.subtract(
                    ring[(s + wl - 1) % size], src, out=drows[idx]
                )
            win = g.win[:k, :, sl]
            np.divide(win, wl, out=win)
            self._emit(g, sl, k, feat3, qfeat3, off)
            g.emitted[sl] += k
        # 4. Advance: sample counts, periodic re-anchor.  The ring and
        #    the running sum are already current.
        g.counts[sl] = total
        if total - int(g.anchors[sl.start]) >= self._reanchor_every:
            base = g.base_scratch[sl]
            base[...] = csum
            np.subtract(csum, base, out=csum)
            for snap in fifo.views():
                np.subtract(snap, base, out=snap)
            g.anchors[sl] = total
        return k

    @staticmethod
    def _normalize(g, x, a) -> None:
        """Min-max normalize ``x`` in place with node(s) ``a``'s bounds
        (the batched ``IncrementalSignatureCore._normalize``)."""
        np.subtract(x, g.lower[a], out=x)
        np.divide(x, g.span[a], out=x)
        if g.deg_any:
            np.copyto(x, 0.5, where=g.deg_mask[a])
        np.clip(x, 0.0, 1.0, out=x)

    def _emit(self, g, sl, k, feat3, qfeat3, off) -> None:
        """Block reduction (the batched ``segment_means``) of the ``k``
        window rows of nodes ``sl``, stored into their feature rows.

        This is where the CS permutation is applied: one ``take`` moves
        the model-order value and derivative rows into sorted row order.
        """
        cs, n, l = sl.stop - sl.start, g.n, g.l
        r = 2 * k
        prow = g.prow[: r * cs * n].reshape(r, cs, n)
        np.take(
            g.win[:k].reshape(r, g.c * n), g.perm[sl], axis=1, out=prow,
            mode="clip",
        )
        ps = g.psum[: r * cs].reshape(r, cs, n + 1)
        np.cumsum(prow, axis=2, out=ps[:, :, 1:])
        sig = g.sig[: r * cs * l].reshape(r, cs, l)
        lo = g.sig2[: r * cs * l].reshape(r, cs, l)
        np.take(ps, g.bends, axis=2, out=sig, mode="clip")
        np.take(ps, g.bstarts, axis=2, out=lo, mode="clip")
        np.subtract(sig, lo, out=sig)
        np.divide(sig, g.widths, out=sig)
        # (k, [real, imag], nodes, l) -> feature rows (nodes, k, 2 * l).
        sig = sig.reshape(k, 2, cs, l)
        feat = feat3[:, off : off + k].reshape(cs, k, 2, l)
        if self.mode == "quantized":
            # uint8 binning over each component's exact value range —
            # values in [0, 1], derivatives in [-1/wl, 1/wl].  The binned
            # bytes are the mode's stored signatures; the classifier
            # sees their dequantized bin centers.
            re, im = sig[:, 0], sig[:, 1]
            np.multiply(re, 255.0, out=re)
            np.multiply(im, float(g.wl), out=im)
            np.add(im, 1.0, out=im)
            np.multiply(im, 127.5, out=im)
            np.rint(sig, out=sig)
            np.clip(sig, 0.0, 255.0, out=sig)
            qfeat3[:, off : off + k].reshape(cs, k, 2, l)[...] = (
                sig.transpose(2, 0, 1, 3)
            )
            np.divide(re, 255.0, out=re)
            np.divide(im, 127.5, out=im)
            np.subtract(im, 1.0, out=im)
            np.divide(im, float(g.wl), out=im)
        feat[...] = sig.transpose(2, 0, 1, 3)

    # ------------------------------------------------------------------
    def memory_report(self) -> dict:
        """Bytes the arena retains and scratches, per node and total.

        ``per_node_state_bytes`` is the retained streaming state one
        node costs (ring tail, running sum, pending snapshots, model
        rows); ``per_node_total_bytes`` divides *everything* — state,
        tick scratch, feature/classifier workspaces — across the fleet,
        i.e. the honest "how many nodes fit in this container" number.
        """
        n_nodes = len(self.paths)
        state = sum(g.state_nbytes() for g in self.groups)
        scratch = sum(g.scratch_nbytes() for g in self.groups)
        classify = (
            self._feat.nbytes
            + (self._qfeat.nbytes if self._qfeat is not None else 0)
            + self._labels.nbytes
            + self._conf.nbytes
            + self._forest_ws.nbytes()
        )
        total = state + scratch + classify
        return {
            "mode": self.mode,
            "nodes": n_nodes,
            "state_bytes": int(state),
            "scratch_bytes": int(scratch),
            "classifier_bytes": int(classify),
            "total_bytes": int(total),
            "per_node_state_bytes": int(round(state / n_nodes)),
            "per_node_total_bytes": int(round(total / n_nodes)),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TickArena(nodes={len(self.paths)}, mode={self.mode!r}, "
            f"blocks={self.blocks}, wl={self.wl}, ws={self.ws}, "
            f"max_chunk={self.max_chunk})"
        )
