"""Incremental streaming core: O(n) per-emit CS signatures.

The seed implementation of the online stream re-gathered the whole
``(n, wl)`` window from its ring buffer with a fancy-indexed modulo
gather and re-ran the full sort + smooth pipeline on every emit —
``O(n * wl)`` per signature.  :class:`IncrementalSignatureCore` replaces
that with running prefix sums:

* each pushed sample is sorted/normalized once (``O(n)``) and added to a
  running cumulative sum;
* at every window start the cumulative sum is snapshotted (``O(n)``,
  once per ``ws`` ticks);
* an emit is then one vector subtraction (window row sums), one
  telescoped backward difference (from the ring buffer) and one
  prefix-sum block reduction — ``O(n + l)`` total, never touching the
  other ``wl - 1`` columns again.

Because the running sum accumulates samples in exactly the order
``numpy.cumsum`` does, emitted signatures are *bit-identical* to the
offline batched path (:func:`repro.engine.batch.smooth_windows_batch`
with ``exact_first_derivative=True``), which the equivalence tests
assert.  (On unbounded streams the running sum is re-anchored every
``_REANCHOR_INTERVAL`` samples to keep precision bounded; bit parity
with an offline cumsum over the full history holds up to the first
re-anchor, i.e. for any realistically comparable series.)  :meth:`IncrementalSignatureCore.push_block` is the batched
entry point: it normalizes, prefix-sums and emits for a whole block of
samples in vectorized form while preserving that exactness.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.core.model import CSModel
from repro.engine.windows import WindowPlan, partition_bounds, segment_means

__all__ = ["REANCHOR_INTERVAL", "IncrementalSignatureCore"]

#: Samples between re-anchorings of running cumulative sums, shared by
#: this core and the fused tick arena (`repro.engine.hotpath`) so the
#: two paths re-anchor — and therefore diverge from an offline cumsum —
#: at the exact same tick.
REANCHOR_INTERVAL = 1 << 22


class IncrementalSignatureCore:
    """Incremental CS signature computation over a live sample feed.

    Parameters
    ----------
    model:
        Trained :class:`~repro.core.model.CSModel` (permutation +
        normalization bounds).
    blocks:
        Number of signature blocks ``l``, ``1 <= l <= n``.
    wl:
        Aggregation window length, in samples.
    ws:
        Step between emitted signatures, in samples.
    """

    def __init__(self, model: CSModel, blocks: int, wl: int, ws: int):
        if wl < 1 or ws < 1:
            raise ValueError("wl and ws must be positive")
        n = model.n_sensors
        blocks = int(blocks)
        self._bstarts, self._bends = partition_bounds(n, blocks)
        self.blocks = blocks
        self.wl = int(wl)
        self.ws = int(ws)
        # Bounds are stored in sorted (permuted) row order so each pushed
        # sample is gathered and normalized in one pass.
        perm = model.permutation
        self._perm = perm
        self._lower = model.lower[perm]
        span = model.upper[perm] - self._lower
        self._degenerate = span <= 0.0
        self._degenerate_any = bool(self._degenerate.any())
        self._span = np.where(self._degenerate, 1.0, span)
        self._n = n
        # Ring of sorted, normalized samples sized wl+1 so the sample
        # preceding the current window stays available for the exact
        # first backward difference.
        self._ring = np.zeros((n, self.wl + 1))
        self._csum = np.zeros(n)
        # FIFO of (window start index, cumulative sum before that start);
        # holds at most ceil(wl / ws) + 1 entries.
        self._pending: deque[tuple[int, np.ndarray]] = deque()
        self._count = 0
        self.emitted = 0
        # The emit rule, shared with the offline plan (t is irrelevant
        # to the rule and unknown for a stream).
        self._schedule = WindowPlan(0, self.wl, self.ws)
        self._last_anchor = 0

    # ------------------------------------------------------------------
    @property
    def n_sensors(self) -> int:
        return self._n

    @property
    def count(self) -> int:
        """Total samples absorbed so far."""
        return self._count

    @property
    def state_nbytes(self) -> int:
        """Bytes of retained streaming state (ring, sums, snapshots,
        model rows) — the per-node stream's memory, compared
        against ``TickArena.memory_report()`` by the tick benchmark."""
        return (
            self._ring.nbytes
            + self._csum.nbytes
            + sum(snap.nbytes for _, snap in self._pending)
            + self._perm.nbytes
            + self._lower.nbytes
            + self._span.nbytes
            + self._degenerate.nbytes
        )

    def _normalize(self, cols: np.ndarray) -> np.ndarray:
        """Sort + min-max normalize raw columns (original row order)."""
        out = np.asarray(cols, dtype=np.float64)[self._perm] - self._lower[:, None]
        np.divide(out, self._span[:, None], out=out)
        if self._degenerate_any:
            out[self._degenerate, :] = 0.5
        np.clip(out, 0.0, 1.0, out=out)
        return out

    # ------------------------------------------------------------------
    def push(self, sample: np.ndarray) -> np.ndarray | None:
        """Absorb one raw sample vector; return a signature when due."""
        sample = np.asarray(sample, dtype=np.float64)
        if sample.shape != (self._n,):
            raise ValueError(
                f"sample shape {sample.shape} does not match "
                f"({self._n},) sensors"
            )
        col = self._normalize_one(sample)
        t = self._count
        if t % self.ws == 0:
            self._pending.append((t, self._csum.copy()))
        self._csum += col
        self._ring[:, t % (self.wl + 1)] = col
        self._count = t + 1
        if not self._schedule.emits_at(self._count):
            return None
        sig = self._emit_one()
        if self._count - self._last_anchor >= self._REANCHOR_INTERVAL:
            self._reanchor()
        return sig

    def _normalize_one(self, sample: np.ndarray) -> np.ndarray:
        """Sort + normalize one raw sample (lean 1-D variant)."""
        out = sample[self._perm] - self._lower
        out /= self._span
        if self._degenerate_any:
            out[self._degenerate] = 0.5
        np.clip(out, 0.0, 1.0, out=out)
        return out

    #: Samples between re-anchorings of the running cumulative sum.  An
    #: ever-growing prefix sum would slowly lose absolute precision on an
    #: unbounded stream (the difference of two large floats); subtracting
    #: the current sum from itself and every pending snapshot restores
    #: full precision without changing any window sum mathematically.
    #: Signatures are bit-identical to the offline batched path up to the
    #: first re-anchor; afterwards accuracy is prioritized over bit parity
    #: with an offline cumsum over the entire (by then huge) history.
    _REANCHOR_INTERVAL = REANCHOR_INTERVAL

    def _reanchor(self) -> None:
        base = self._csum.copy()
        self._csum -= base  # exact zeros
        for _, snapshot in self._pending:
            snapshot -= base
        self._last_anchor = self._count

    def _emit_one(self) -> np.ndarray:
        start, csum0 = self._pending.popleft()
        value_row_means = (self._csum - csum0) / self.wl
        size = self.wl + 1
        last = self._ring[:, (self._count - 1) % size]
        ref_idx = start - 1 if start > 0 else start
        deriv_row_means = (last - self._ring[:, ref_idx % size]) / self.wl
        sig = np.empty(self.blocks, dtype=np.complex128)
        sig.real = segment_means(value_row_means, self._bstarts, self._bends)
        sig.imag = segment_means(deriv_row_means, self._bstarts, self._bends)
        self.emitted += 1
        return sig

    # ------------------------------------------------------------------
    def push_block(self, block: np.ndarray) -> np.ndarray:
        """Absorb a block of raw samples; return all due signatures.

        Parameters
        ----------
        block:
            Raw samples as columns, shape ``(n, m)`` — the same layout as
            every sensor matrix in the repository.

        Returns
        -------
        numpy.ndarray
            Complex array of shape ``(k, l)`` holding the ``k``
            signatures whose windows complete inside the block (possibly
            ``k == 0``), identical to what ``m`` individual
            :meth:`push` calls would have returned.
        """
        B = np.asarray(block, dtype=np.float64)
        if B.ndim != 2 or B.shape[0] != self._n:
            raise ValueError(
                f"block shape {B.shape} does not match ({self._n}, m) layout"
            )
        if B.shape[1] == 0:
            return np.empty((0, self.blocks), dtype=np.complex128)
        return self._absorb(B)

    def _absorb(self, B: np.ndarray) -> np.ndarray:
        """Vectorized batched ingestion behind :meth:`push_block`."""
        m = B.shape[1]
        cols = self._normalize(B)
        t0 = self._count
        size = self.wl + 1
        total = t0 + m

        # Chronological tail of pre-block history (for derivative refs),
        # rebuilt from at most two contiguous ring slices.
        tail_len = min(size, t0)
        if tail_len:
            pos0 = (t0 - tail_len) % size
            if pos0 + tail_len <= size:
                tail = self._ring[:, pos0 : pos0 + tail_len]
            else:
                tail = np.concatenate(
                    [self._ring[:, pos0:], self._ring[:, : pos0 + tail_len - size]],
                    axis=1,
                )
            ext = np.concatenate([tail, cols], axis=1)
        else:
            ext = cols
        base = t0 - tail_len  # global index of ext[:, 0]

        # Sequential prefix sums continuing the running cumulative sum:
        # seq[:, j] is the cumulative sum after t0 + j samples, built with
        # the exact same left-to-right association as repeated push().
        seq = np.cumsum(np.concatenate([self._csum[:, None], cols], axis=1), axis=1)

        # Emit counts due inside this block — the closed form of
        # WindowPlan.emits_at over c = wl + k*ws with t0 < c <= total.
        k_lo = max(0, -(-(t0 + 1 - self.wl) // self.ws))
        k_hi = (total - self.wl) // self.ws
        sigs = np.empty((max(0, k_hi - k_lo + 1), self.blocks), dtype=np.complex128)
        if k_hi >= k_lo:
            counts = self.wl + np.arange(k_lo, k_hi + 1) * self.ws
            starts = counts - self.wl
            end_csums = seq[:, counts - t0].T  # (k, n)
            start_csums = np.empty_like(end_csums)
            for i, s in enumerate(starts):
                if s >= t0:
                    start_csums[i] = seq[:, s - t0]
                else:
                    ps, vec = self._pending.popleft()
                    assert ps == s, f"pending start {ps} != expected {s}"
                    start_csums[i] = vec
            value_row_means = (end_csums - start_csums) / self.wl
            last_cols = ext[:, counts - 1 - base].T
            ref_idx = np.where(starts > 0, starts - 1, starts)
            deriv_row_means = (last_cols - ext[:, ref_idx - base].T) / self.wl
            sigs.real = segment_means(value_row_means, self._bstarts, self._bends)
            sigs.imag = segment_means(deriv_row_means, self._bstarts, self._bends)
            self.emitted += sigs.shape[0]

        # Queue cumulative-sum snapshots for window starts inside the
        # block whose windows complete after it.
        first_start = -(-t0 // self.ws) * self.ws
        for s in range(first_start, total, self.ws):
            if s + self.wl > total:
                self._pending.append((s, seq[:, s - t0].copy()))

        # Advance state: running sum, ring buffer, sample count.
        self._csum = seq[:, -1].copy()
        keep_from = max(t0, total - size)
        self._ring[:, np.arange(keep_from, total) % size] = ext[
            :, keep_from - base : total - base
        ]
        self._count = total
        if self._count - self._last_anchor >= self._REANCHOR_INTERVAL:
            self._reanchor()
        return sigs

    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Snapshot the retained streaming state (decoupled copies).

        The returned arrays fully determine future emissions given the
        same model: restoring them into a fresh core over the same model
        continues the stream **bit-identically** — the contract the
        service checkpoint layer (`repro.service.checkpoint`) builds its
        crash-recovery guarantee on.  Pending window-start snapshots are
        flattened into parallel ``(k,)`` starts / ``(k, n)`` sums arrays
        so the state is pure ndarrays (npz-serializable as-is).
        """
        k = len(self._pending)
        starts = np.fromiter(
            (s for s, _ in self._pending), dtype=np.int64, count=k
        )
        snaps = (
            np.stack([snap for _, snap in self._pending])
            if k
            else np.empty((0, self._n))
        )
        return {
            "ring": self._ring.copy(),
            "csum": self._csum.copy(),
            "count": int(self._count),
            "emitted": int(self.emitted),
            "anchor": int(self._last_anchor),
            "pending_starts": starts,
            "pending_snaps": snaps,
        }

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot (validated, copied)."""
        ring = np.asarray(state["ring"], dtype=np.float64)
        csum = np.asarray(state["csum"], dtype=np.float64)
        starts = np.asarray(state["pending_starts"], dtype=np.int64)
        snaps = np.asarray(state["pending_snaps"], dtype=np.float64)
        if ring.shape != self._ring.shape:
            raise ValueError(
                f"ring shape {ring.shape} does not match "
                f"{self._ring.shape} for this core"
            )
        if csum.shape != (self._n,):
            raise ValueError(
                f"csum shape {csum.shape} does not match ({self._n},)"
            )
        if snaps.shape != (starts.shape[0], self._n):
            raise ValueError(
                f"pending snapshot shape {snaps.shape} does not match "
                f"({starts.shape[0]}, {self._n})"
            )
        self._ring = ring.copy()
        self._csum = csum.copy()
        self._count = int(state["count"])
        self.emitted = int(state["emitted"])
        self._last_anchor = int(state["anchor"])
        self._pending = deque(
            (int(s), snaps[i].copy()) for i, s in enumerate(starts)
        )

    # ------------------------------------------------------------------
    def window_view(self) -> tuple[np.ndarray, np.ndarray | None]:
        """Materialize the current (sorted, normalized) window.

        Uses at most two contiguous slices of the ring buffer — no
        modulo gather.  Returns ``(window, prev_column)`` where ``prev``
        is the sorted sample preceding the window, or ``None`` when the
        window starts at the first sample ever seen.

        Raises
        ------
        ValueError
            If fewer than ``wl`` samples have been pushed.
        """
        if self._count < self.wl:
            raise ValueError(
                f"only {self._count} samples absorbed; window needs {self.wl}"
            )
        size = self.wl + 1
        i0 = (self._count - self.wl) % size
        if i0 + self.wl <= size:
            window = self._ring[:, i0 : i0 + self.wl].copy()
        else:
            window = np.concatenate(
                [self._ring[:, i0:], self._ring[:, : i0 + self.wl - size]], axis=1
            )
        prev = None
        if self._count > self.wl:
            prev = self._ring[:, (self._count - self.wl - 1) % size].copy()
        return window, prev
