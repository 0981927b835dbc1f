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
fleet's geometry and the maximum burst length), and a steady-state tick
runs the whole pass — gather/sort, min-max normalize, running prefix sums,
windowed value/derivative means, block reduction, feature layout and the
lockstep forest walk — through ``out=`` kernels into those arenas.  A
steady-state tick retains **zero** new numpy memory (asserted by a
tracemalloc regression test) and its transient peak is bounded by a few
index temporaries instead of a staged pipeline's per-stage matrices.

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


def _emits_between(t0: int, total: int, wl: int, ws: int) -> int:
    """Signatures due while the sample count grows from ``t0`` to
    ``total`` — the closed form of ``WindowPlan.emits_at`` over
    ``count = wl + k*ws`` with ``t0 < count <= total``."""
    k_lo = max(0, -(-(t0 + 1 - wl) // ws))
    k_hi = (total - wl) // ws
    return max(0, k_hi - k_lo + 1)


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

    State is stacked column-major ``(c, n, ...)`` — node, sensor row,
    time — the same shape ``IncrementalSignatureCore._absorb`` works
    in, so every kernel below is the batched twin of one of its lines.
    """

    def __init__(self, paths, models, l, wl, ws, max_m, dtype):
        self.paths = list(paths)
        c = len(self.paths)
        n = models[0].n_sensors
        self.c, self.n, self.l = c, n, int(l)
        self.wl, self.ws = int(wl), int(ws)
        self.size = self.wl + 1
        self.max_m = int(max_m)
        self.dtype = dtype
        self.bstarts, self.bends = partition_bounds(n, self.l)
        self.widths = (self.bends - self.bstarts).astype(np.float64)
        if dtype != np.float64:
            self.widths = self.widths.astype(dtype)
        # Per-node model parameters, permuted row order (cf.
        # IncrementalSignatureCore.__init__).
        self.perm = np.empty((c, n), dtype=np.intp)
        self.lower = np.empty((c, n, 1), dtype=dtype)
        span = np.empty((c, n), dtype=np.float64)
        for j, model in enumerate(models):
            perm = model.permutation
            self.perm[j] = perm
            lo = model.lower[perm]
            self.lower[j, :, 0] = lo
            span[j] = model.upper[perm] - lo
        degenerate = span <= 0.0
        self.deg_mask = degenerate[:, :, None]
        self.deg_any = bool(degenerate.any())
        self.span = np.where(degenerate, 1.0, span).astype(dtype)[:, :, None]
        # Retained per-node streaming state.  The ring stores the last
        # ``wl + 1`` normalized columns at position ``t % size`` (the
        # streaming core's layout): a tick writes only its new columns and
        # derivative references read single columns — no chronological
        # tail is ever materialized.
        self.ring = np.zeros((c, n, self.size), dtype=dtype)
        self.csum = np.zeros((c, n), dtype=dtype)
        self.counts = np.zeros(c, dtype=np.int64)
        self.anchors = np.zeros(c, dtype=np.int64)
        self.emitted = np.zeros(c, dtype=np.int64)
        #: Snapshot ring: bounded FIFO slots for pending window starts
        #: (at most ceil(wl/ws)+1 live at once; +1 slack).
        self.P = -(-self.wl // self.ws) + 2
        self.pending_buf = np.empty((c, self.P, n), dtype=dtype)
        #: While every node of the group has seen the same samples the
        #: FIFO is shared (one deque of (start, slot) for all c nodes);
        #: the first ragged tick splits it into per-node FIFOs for good.
        self.uniform = True
        self.shared_fifo: deque[tuple[int, int]] = deque()
        self.shared_slot = 0
        self.node_fifos: list[deque[tuple[int, int]]] | None = None
        self.node_slots: list[int] | None = None
        # Tick scratch (content never survives a tick).
        self.kmax = self.max_m // self.ws + 1
        self.refsnap = np.empty((c, self.kmax, n), dtype=dtype)
        self.seq = np.empty((c, n, self.max_m + 1), dtype=dtype)
        self.rows = np.empty((c, self.kmax, n), dtype=dtype)
        #: Second rows buffer for the block kernel: derivative windows
        #: are computed *before* the in-place cumsum destroys the staged
        #: normalized columns, so they need their own landing area.
        self.drows = np.empty((c, self.kmax, n), dtype=dtype)
        self.psum = np.empty((c, self.kmax, n + 1), dtype=dtype)
        self.sig = np.empty((c, self.kmax, self.l), dtype=dtype)
        self.sig2 = np.empty((c, self.kmax, self.l), dtype=dtype)
        self.base_scratch = np.empty((c, n), dtype=dtype)
        self.stage = (
            np.empty((n, self.max_m)) if dtype != np.float64 else None
        )
        #: Block-path staging for the float64 kernel, *time-major*: one
        #: node's gathered burst ``(m, n)`` plus its prefix sums
        #: ``(m+1, n)``.  Store planes are column-major ``(n, ticks)``,
        #: so their transpose is C-contiguous time-major — gathers read
        #: contiguous tick-columns, the cumsum runs down axis 0 with
        #: SIMD across sensors, and the whole burst stays cache-resident
        #: through normalize/derivative/window sweeps instead of five
        #: full-group RAM passes.  ``block_rows`` is the row-major
        #: landing pad for C-ordered (non-store) block sources.
        if dtype == np.float64:
            self.block_stage = np.empty((self.max_m, n))
            self.block_psum = np.empty((self.max_m + 1, n))
            self.block_rows = np.empty((n, self.max_m))
        else:
            self.block_stage = self.block_psum = self.block_rows = None
        # Pre-fault the tick scratches: at partition-sized ``max_m`` the
        # ``seq`` staging area alone spans tens of MB, and first-touch
        # page faults inside the first fused burst cost an order of
        # magnitude more than this one-time streaming fill at build time.
        for scratch in (
            self.pending_buf, self.refsnap, self.seq, self.rows,
            self.drows, self.psum, self.sig, self.sig2,
        ):
            scratch.fill(0)
        for opt in (
            self.stage, self.block_stage, self.block_psum, self.block_rows,
        ):
            if opt is not None:
                opt.fill(0)
        self.shared_view = _SharedFifo(self)
        self.node_views: list[_NodeFifo] | None = None

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
        total = (
            self.refsnap.nbytes + self.seq.nbytes + self.rows.nbytes
            + self.drows.nbytes + self.psum.nbytes + self.sig.nbytes
            + self.sig2.nbytes + self.base_scratch.nbytes
        )
        if self.stage is not None:
            total += self.stage.nbytes
        if self.block_stage is not None:
            total += (
                self.block_stage.nbytes + self.block_psum.nbytes
                + self.block_rows.nbytes
            )
        return total


class _SharedFifo:
    """Pending-snapshot access for a whole uniform group."""

    def __init__(self, group: _GroupState):
        self.g = group

    def push(self, start: int) -> np.ndarray:
        g = self.g
        slot = g.shared_slot
        g.shared_slot = (slot + 1) % g.P
        g.shared_fifo.append((start, slot))
        return g.pending_buf[:, slot, :]

    def pop(self, start: int) -> np.ndarray:
        g = self.g
        s, slot = g.shared_fifo.popleft()
        assert s == start, f"pending start {s} != expected {start}"
        return g.pending_buf[:, slot, :]

    def views(self):
        g = self.g
        return [g.pending_buf[:, slot, :] for _, slot in g.shared_fifo]


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
        return g.pending_buf[i : i + 1, slot, :]

    def pop(self, start: int) -> np.ndarray:
        g, i = self.g, self.i
        s, slot = g.node_fifos[i].popleft()
        assert s == start, f"pending start {s} != expected {start}"
        return g.pending_buf[i : i + 1, slot, :]

    def views(self):
        g, i = self.g, self.i
        return [g.pending_buf[i : i + 1, slot, :] for _, slot in g.node_fifos[i]]


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
        Largest burst length the arenas are sized for; longer bursts are
        split into ``max_chunk`` sub-bursts, which is output-identical
        (``push_block`` composes exactly).  Scratch memory scales with
        it: serving loops keep the default, the store replayer passes
        its partition/block size so whole recorded partitions absorb in
        one fused pass (sub-bursts beyond the ``wl + 1`` ring capacity
        run the seq-staged block kernel — still bit-identical).
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
        # Scratch is sized for full ``max_chunk`` sub-bursts: up to
        # ``wl + 1`` columns the in-ring kernel runs (every column owns
        # a distinct ring position), longer sub-bursts take the
        # seq-staged block kernel — both bit-identical, so callers pick
        # ``max_chunk`` purely as a burst-capacity/memory trade-off.
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
        (the arena's per-node ring row *is* the streaming core's ring),
        so checkpoints store it without conversion.
        """
        g, i = self._node[path]
        entries = (
            list(g.shared_fifo) if g.uniform else list(g.node_fifos[i])
        )
        k = len(entries)
        starts = np.fromiter(
            (s for s, _ in entries), dtype=np.int64, count=k
        )
        snaps = (
            np.stack([g.pending_buf[i, slot].copy() for _, slot in entries])
            if k
            else np.empty((0, g.n), dtype=g.dtype)
        )
        return {
            "ring": g.ring[i].copy(),
            "csum": g.csum[i].copy(),
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
                g.ring[i] = ring
                g.csum[i] = csum
                g.counts[i] = int(st["count"])
                g.emitted[i] = int(st["emitted"])
                g.anchors[i] = int(st["anchor"])
                per.append((starts, snaps))
            starts0 = per[0][0]
            uniform = g.uniform and all(
                starts.shape == starts0.shape
                and bool((starts == starts0).all())
                for starts, _ in per
            ) and len({int(g.counts[i]) for i in range(g.c)}) == 1
            g.shared_fifo.clear()
            if uniform:
                g.shared_slot = 0
                for k_idx, s in enumerate(starts0):
                    buf = g.shared_view.push(int(s))
                    for i, (_, snaps) in enumerate(per):
                        buf[i] = snaps[k_idx]
            else:
                g.degrade()
                for i, (starts, snaps) in enumerate(per):
                    g.node_fifos[i].clear()
                    g.node_slots[i] = 0
                    for k_idx, s in enumerate(starts):
                        g.node_views[i].push(int(s))[0] = snaps[k_idx]

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
            total_k += _emits_between(
                int(g.counts[i]), int(g.counts[i]) + B.shape[1],
                self.wl, self.ws,
            )
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
                k_tick = _emits_between(t0, t0 + m, self.wl, self.ws)
                for i, p in present:
                    assigned[p] = (row + i * k_tick, k_tick)
                hi = row + g.c * k_tick
                feat3 = feat2[row:hi].reshape(g.c, k_tick, self.n_features)
                qfeat3 = (
                    qfeat2[row:hi].reshape(g.c, k_tick, self.n_features)
                    if qfeat2 is not None
                    else None
                )
                fifo = g.shared_view
                off = 0
                for lo in range(0, m, g.max_m):
                    B_sub = [
                        blocks[p][:, lo : lo + g.max_m] for _, p in present
                    ]
                    off += self._feed(
                        g, slice(0, g.c), fifo, B_sub, feat3, qfeat3, off
                    )
                row = hi
            else:
                g.degrade()
                for i, p in present:
                    B = blocks[p]
                    t0 = int(g.counts[i])
                    k_i = _emits_between(
                        t0, t0 + B.shape[1], self.wl, self.ws
                    )
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
                    for lo in range(0, B.shape[1], g.max_m):
                        off += self._feed(
                            g,
                            slice(i, i + 1),
                            fifo,
                            [B[:, lo : lo + g.max_m]],
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
    def _feed(self, g, sl, fifo, node_blocks, feat3, qfeat3, off) -> int:
        """Route one sub-burst to the right fused kernel.

        Up to ``wl + 1`` columns every column owns a distinct ring slot,
        so normalization can run in place inside the ring
        (:meth:`_absorb` — the serving-cadence path, untouched by block
        feeds).  Longer sub-bursts stage their normalized columns in the
        ``seq`` scratch instead (:meth:`_absorb_block` — the store
        replayer's whole-partition path).  Both kernels execute the same
        floating-point operations in the same association order, so the
        routing never changes a single output bit.
        """
        if node_blocks[0].shape[1] <= g.size:
            return self._absorb(g, sl, fifo, node_blocks, feat3, qfeat3, off)
        return self._absorb_block(g, sl, fifo, node_blocks, feat3, qfeat3, off)

    def _absorb(self, g, sl, fifo, node_blocks, feat3, qfeat3, off) -> int:
        """One fused sub-burst for the nodes ``sl`` of group ``g``.

        The batched twin of ``IncrementalSignatureCore._absorb``: every
        numbered step mirrors one of its operations in the same
        floating-point association order, into preallocated buffers.
        Returns the number of signatures emitted per node.
        """
        m = node_blocks[0].shape[1]
        t0 = int(g.counts[sl.start])
        total = t0 + m
        size = g.size
        # 0. Emit plan.  Derivative reference columns predating this
        #    sub-burst live at ring positions the new columns are about
        #    to overwrite — snapshot them first (at most kmax single
        #    columns; ``ref >= t0 - wl`` so they are all still live).
        k_lo = max(0, -(-(t0 + 1 - g.wl) // g.ws))
        k_hi = (total - g.wl) // g.ws
        k = max(0, k_hi - k_lo + 1)
        refsnap = g.refsnap[sl]
        for idx in range(k):
            s = (k_lo + idx) * g.ws
            ref = s - 1 if s > 0 else s
            if ref < t0:
                refsnap[:, idx, :] = g.ring[sl, :, ref % size]
        # 1. Gather into sorted row order *straight into the ring* (each
        #    column at its position ``t % size``; sub-bursts never exceed
        #    ``size`` columns, so positions are distinct — at most two
        #    contiguous ring slices around the wrap point) + min-max
        #    normalize in place (the batched _normalize): subtract,
        #    divide, degenerate rows to 0.5, clip.
        p0 = t0 % size
        first = min(size - p0, m)
        r1 = g.ring[sl, :, p0 : p0 + first]
        r2 = g.ring[sl, :, : m - first] if m > first else None
        perm = g.perm
        i = sl.start
        if g.stage is None:
            if r2 is None:
                for j, B in enumerate(node_blocks):
                    B.take(perm[i + j], axis=0, out=r1[j])
            else:
                for j, B in enumerate(node_blocks):
                    B[:, :first].take(perm[i + j], axis=0, out=r1[j])
                    B[:, first:].take(perm[i + j], axis=0, out=r2[j])
        else:
            st = g.stage[:, :m]
            for j, B in enumerate(node_blocks):
                B.take(perm[i + j], axis=0, out=st)
                r1[j] = st[:, :first]
                if r2 is not None:
                    r2[j] = st[:, first:]
        for part in (r1,) if r2 is None else (r1, r2):
            np.subtract(part, g.lower[sl], out=part)
            np.divide(part, g.span[sl], out=part)
            if g.deg_any:
                np.copyto(part, 0.5, where=g.deg_mask[sl])
            np.clip(part, 0.0, 1.0, out=part)
        # 2. Sequential prefix sums continuing the running sum (same
        #    left-to-right association as repeated push()).
        seq = g.seq[sl, :, : m + 1]
        seq[:, :, 0] = g.csum[sl]
        seq[:, :, 1 : first + 1] = r1
        if r2 is not None:
            seq[:, :, first + 1 :] = r2
        seq.cumsum(axis=2, out=seq)
        # 3. Emits due inside this sub-burst.
        if k:
            rows = g.rows[sl, :k, :]
            for idx in range(k):
                cnt = g.wl + (k_lo + idx) * g.ws
                s = cnt - g.wl
                start_cs = (
                    seq[:, :, s - t0] if s >= t0 else fifo.pop(s)
                )
                np.subtract(seq[:, :, cnt - t0], start_cs, out=rows[:, idx, :])
            np.divide(rows, g.wl, out=rows)
            self._reduce(g, sl, rows, k)
            self._store(
                g, feat3[:, off : off + k, : g.l],
                None if qfeat3 is None else qfeat3[:, off : off + k, : g.l],
                k, sl, True,
            )
            for idx in range(k):
                cnt = g.wl + (k_lo + idx) * g.ws
                s = cnt - g.wl
                ref = s - 1 if s > 0 else s
                # ``cnt - 1 >= t0`` always (cnt > t0), so the window's
                # last column is one of this burst's ring writes; the
                # reference column is either also in-burst or was
                # snapshotted in step 0.
                ref_col = (
                    g.ring[sl, :, ref % size]
                    if ref >= t0
                    else refsnap[:, idx, :]
                )
                np.subtract(
                    g.ring[sl, :, (cnt - 1) % size],
                    ref_col,
                    out=rows[:, idx, :],
                )
            np.divide(rows, g.wl, out=rows)
            self._reduce(g, sl, rows, k)
            self._store(
                g, feat3[:, off : off + k, g.l :],
                None if qfeat3 is None else qfeat3[:, off : off + k, g.l :],
                k, sl, False,
            )
            g.emitted[sl] += k
        # 4. Queue snapshots for windows completing after this burst.
        first_start = -(-t0 // g.ws) * g.ws
        for s in range(first_start, total, g.ws):
            if s + g.wl > total:
                fifo.push(s)[...] = seq[:, :, s - t0]
        # 5. Advance retained state: running sum, counts, periodic
        #    re-anchor.  The ring is already current — normalization
        #    wrote this burst's columns in place in step 1.
        g.csum[sl] = seq[:, :, m]
        g.counts[sl] = total
        if total - int(g.anchors[sl.start]) >= self._reanchor_every:
            basebuf = g.base_scratch[sl]
            basebuf[...] = g.csum[sl]
            np.subtract(g.csum[sl], basebuf, out=g.csum[sl])
            for snap in fifo.views():
                np.subtract(snap, basebuf, out=snap)
            g.anchors[sl] = total
        return k

    def _absorb_block(self, g, sl, fifo, node_blocks, feat3, qfeat3, off) -> int:
        """One fused sub-burst of *arbitrary* length (up to ``g.max_m``).

        The block-feed twin of :meth:`_absorb`: normalized columns are
        staged in the ``seq`` scratch instead of the ring, so the burst
        length is not capped by the ring's ``wl + 1`` slots — a whole
        telemetry-store partition absorbs in one pass (one cumsum, one
        window sweep, one forest batch).  Every numbered step reuses the
        exact operation its in-ring twin runs, merely reading the
        normalized columns from the staging area, so the output is
        bit-identical column for column.
        """
        m = node_blocks[0].shape[1]
        t0 = int(g.counts[sl.start])
        total = t0 + m
        size = g.size
        k_lo = max(0, -(-(t0 + 1 - g.wl) // g.ws))
        k_hi = (total - g.wl) // g.ws
        k = max(0, k_hi - k_lo + 1)
        seq = g.seq[sl, :, : m + 1]
        cols = seq[:, :, 1:]  # (c, n, m) staged normalized columns
        perm = g.perm
        i = sl.start
        # Ring-refresh geometry (step 3): the staged tail — the last
        # ``size`` columns (or all of them for shorter bursts), each at
        # its ``t % size`` slot, at most two contiguous runs around the
        # wrap point.  Future bursts then see exactly the state a chain
        # of in-ring sub-bursts would have left.
        rstart = max(t0, total - size)
        kcols = total - rstart
        p0 = rstart % size
        first = min(size - p0, kcols)
        first_start = -(-t0 // g.ws) * g.ws
        if g.stage is None:
            # Steps 1-6 fused into one *time-major* pass per node:
            # gather, normalize, derivative rows, ring refresh, prefix
            # sums, value rows and pending snapshots all touch one
            # node's burst while it is cache-resident, instead of five
            # full-slab RAM sweeps (the group ``seq`` slab is never
            # materialized — only single prefix-sum rows leave the
            # cache).  Store planes are column-major, so their transpose
            # is C-contiguous time-major: gathers read contiguous
            # tick-columns and the cumsum runs down axis 0 with SIMD
            # across sensors.  Every operation is elementwise (or a
            # sensor-independent cumsum) with per-node operands
            # identical to the group-wide form — IEEE addition is
            # commutative, so seeding the first tick with the running
            # sum reproduces the chained cumsum bit for bit.  FIFO pops
            # and pushes are hoisted out of the node loop in window
            # order — exactly the order the group-wide sweep issues
            # them; each node reads its popped rows before writing its
            # pushed rows, so slot reuse is safe.
            if k:
                cnts = g.wl + (k_lo + np.arange(k)) * g.ws
                starts = cnts - g.wl
                end_idx = cnts - t0
                dv_idx = end_idx - 1
                refs = np.where(starts > 0, starts - 1, starts)
                from_st = refs >= t0
                st_ref = (refs - t0)[from_st]
                ring_ref = (refs % size)[~from_st]
                from_seq = starts >= t0
                seq_start = (starts - t0)[from_seq]
                pend = [
                    (idx, fifo.pop(int(starts[idx])))
                    for idx in range(k)
                    if starts[idx] < t0
                ]
            pushes = [
                (s - t0, fifo.push(s))
                for s in range(first_start, total, g.ws)
                if s + g.wl > total
            ]
            tT = g.block_stage[:m]
            sT = g.block_psum[: m + 1]
            for j, B in enumerate(node_blocks):
                a = i + j
                # 1. Gather into sorted row order, time-major.
                if B.flags.f_contiguous:
                    np.take(B.T, perm[a], axis=1, out=tT)
                else:
                    rows = g.block_rows[:, :m]
                    np.take(B, perm[a], axis=0, out=rows)
                    tT[...] = rows.T
                # 2. Min-max normalize (the batched _normalize).
                np.subtract(tT, g.lower[a].T, out=tT)
                np.divide(tT, g.span[a].T, out=tT)
                if g.deg_any:
                    np.copyto(tT, 0.5, where=g.deg_mask[a].T)
                np.clip(tT, 0.0, 1.0, out=tT)
                if k:
                    # 3. Derivative rows need the raw normalized
                    #    columns; references predating the burst still
                    #    sit untouched in the ring (refreshed in 4).
                    refsnap = g.refsnap[a, :k, :]
                    refsnap[from_st] = tT[st_ref]
                    refsnap[~from_st] = g.ring[a].T[ring_ref]
                    drows = g.drows[a, :k, :]
                    np.subtract(tT[dv_idx], refsnap, out=drows)
                    np.divide(drows, g.wl, out=drows)
                # 4. Ring refresh from the staged tail.
                g.ring[a, :, p0 : p0 + first] = tT[
                    rstart - t0 : rstart - t0 + first
                ].T
                if kcols > first:
                    g.ring[a, :, : kcols - first] = tT[
                        rstart - t0 + first :
                    ].T
                # 5. Sequential prefix sums continuing the running sum
                #    (same left-to-right association as repeated
                #    push(): the first tick absorbs the running sum,
                #    then cumsum walks down the time axis).
                np.add(tT[0], g.csum[a], out=tT[0])
                sT[0] = g.csum[a]
                np.cumsum(tT, axis=0, out=sT[1:])
                if k:
                    # 6a. Value rows from the still-warm prefix sums.
                    vstart = refsnap  # drows already materialized
                    vstart[from_seq] = sT[seq_start]
                    for idx, slab in pend:
                        vstart[idx] = slab[j]
                    rows = g.rows[a, :k, :]
                    np.subtract(sT[end_idx], vstart, out=rows)
                    np.divide(rows, g.wl, out=rows)
                # 6b. Pending snapshots + running sum for the next burst.
                for s_rel, slab in pushes:
                    slab[j] = sT[s_rel]
                g.csum[a] = sT[m]
            if k:
                # 7. Reduce + store: value rows, then derivative rows.
                self._reduce(g, sl, g.rows[sl, :k, :], k)
                self._store(
                    g, feat3[:, off : off + k, : g.l],
                    None if qfeat3 is None else qfeat3[:, off : off + k, : g.l],
                    k, sl, True,
                )
                self._reduce(g, sl, g.drows[sl, :k, :], k)
                self._store(
                    g, feat3[:, off : off + k, g.l :],
                    None if qfeat3 is None else qfeat3[:, off : off + k, g.l :],
                    k, sl, False,
                )
                g.emitted[sl] += k
            g.counts[sl] = total
            if total - int(g.anchors[sl.start]) >= self._reanchor_every:
                basebuf = g.base_scratch[sl]
                basebuf[...] = g.csum[sl]
                np.subtract(g.csum[sl], basebuf, out=g.csum[sl])
                for snap in fifo.views():
                    np.subtract(snap, basebuf, out=snap)
                g.anchors[sl] = total
            return k
        else:
            # Quantized/float32 arenas normalize in the group dtype
            # *after* the staged float64 gather lands in ``cols`` —
            # fusing into the float64 stage would change the rounding
            # story — so they keep the group-wide sweeps.
            # 1. Gather + normalize.
            st = g.stage[:, :m]
            for j, B in enumerate(node_blocks):
                B.take(perm[i + j], axis=0, out=st)
                cols[j] = st
            np.subtract(cols, g.lower[sl], out=cols)
            np.divide(cols, g.span[sl], out=cols)
            if g.deg_any:
                np.copyto(cols, 0.5, where=g.deg_mask[sl])
            np.clip(cols, 0.0, 1.0, out=cols)
            # 2. Derivative windows first: they need raw normalized
            #    columns, which the in-place cumsum of step 4
            #    overwrites; references predating this burst still sit
            #    untouched in the ring (only refreshed in step 3).
            if k:
                drows = g.drows[sl, :k, :]
                for idx in range(k):
                    cnt = g.wl + (k_lo + idx) * g.ws
                    s = cnt - g.wl
                    ref = s - 1 if s > 0 else s
                    ref_col = (
                        cols[:, :, ref - t0]
                        if ref >= t0
                        else g.ring[sl, :, ref % size]
                    )
                    np.subtract(
                        cols[:, :, cnt - 1 - t0], ref_col,
                        out=drows[:, idx, :],
                    )
                np.divide(drows, g.wl, out=drows)
            # 3. Ring refresh from the staged tail.
            g.ring[sl, :, p0 : p0 + first] = cols[
                :, :, rstart - t0 : rstart - t0 + first
            ]
            if kcols > first:
                g.ring[sl, :, : kcols - first] = cols[
                    :, :, rstart - t0 + first :
                ]
            # 4. Sequential prefix sums continuing the running sum, in
            #    place over the staged columns (same association as
            #    repeated push(): cumsum left to right).
            seq[:, :, 0] = g.csum[sl]
            seq.cumsum(axis=2, out=seq)
            # 5. Emits due inside this burst: value means from the
            #    prefix sums (pending starts pop from the FIFO in the
            #    same order the in-ring kernel pops them), then the
            #    precomputed derivative rows.
            if k:
                rows = g.rows[sl, :k, :]
                for idx in range(k):
                    cnt = g.wl + (k_lo + idx) * g.ws
                    s = cnt - g.wl
                    start_cs = seq[:, :, s - t0] if s >= t0 else fifo.pop(s)
                    np.subtract(
                        seq[:, :, cnt - t0], start_cs, out=rows[:, idx, :]
                    )
                np.divide(rows, g.wl, out=rows)
                self._reduce(g, sl, rows, k)
                self._store(
                    g, feat3[:, off : off + k, : g.l],
                    None if qfeat3 is None else qfeat3[:, off : off + k, : g.l],
                    k, sl, True,
                )
                self._reduce(g, sl, g.drows[sl, :k, :], k)
                self._store(
                    g, feat3[:, off : off + k, g.l :],
                    None if qfeat3 is None else qfeat3[:, off : off + k, g.l :],
                    k, sl, False,
                )
                g.emitted[sl] += k
        # 6. Queue snapshots for windows completing after this burst.
        for s in range(first_start, total, g.ws):
            if s + g.wl > total:
                fifo.push(s)[...] = seq[:, :, s - t0]
        # 7. Advance retained state (ring already refreshed in step 3).
        g.csum[sl] = seq[:, :, m]
        g.counts[sl] = total
        if total - int(g.anchors[sl.start]) >= self._reanchor_every:
            basebuf = g.base_scratch[sl]
            basebuf[...] = g.csum[sl]
            np.subtract(g.csum[sl], basebuf, out=g.csum[sl])
            for snap in fifo.views():
                np.subtract(snap, basebuf, out=snap)
            g.anchors[sl] = total
        return k

    def _reduce(self, g, sl, rows, k) -> None:
        """Block reduction (the batched ``segment_means``) into ``g.sig``."""
        ps = g.psum[sl, :k, :]
        ps[:, :, 0] = 0.0
        rows.cumsum(axis=2, out=ps[:, :, 1:])
        sig = g.sig[sl, :k, :]
        lo = g.sig2[sl, :k, :]
        # Fancy-index gathers: ``take`` into these non-contiguous
        # (sl, :k) views runs through numpy's buffered fallback.
        sig[...] = ps[:, :, g.bends]
        lo[...] = ps[:, :, g.bstarts]
        np.subtract(sig, lo, out=sig)
        np.divide(sig, g.widths, out=sig)

    def _store(self, g, feat_view, qview, k, sl, is_real: bool) -> None:
        """Write ``g.sig`` into the feature rows, per the arena's mode."""
        sig = g.sig[sl, :k, :]
        if self.mode != "quantized":
            feat_view[...] = sig
            return
        # uint8 binning over each component's exact value range —
        # values in [0, 1], derivatives in [-1/wl, 1/wl].  The binned
        # bytes are the mode's stored signatures; the classifier sees
        # their dequantized bin centers.
        if is_real:
            np.multiply(sig, 255.0, out=sig)
        else:
            np.multiply(sig, float(g.wl), out=sig)
            np.add(sig, 1.0, out=sig)
            np.multiply(sig, 127.5, out=sig)
        np.rint(sig, out=sig)
        np.clip(sig, 0.0, 255.0, out=sig)
        qview[...] = sig
        if is_real:
            np.divide(sig, 255.0, out=sig)
        else:
            np.divide(sig, 127.5, out=sig)
            np.subtract(sig, 1.0, out=sig)
            np.divide(sig, float(g.wl), out=sig)
        feat_view[...] = sig

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
