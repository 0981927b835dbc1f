"""In-memory span tracer for the traced benchmark run.

The benchmark wraps the calls into each layer of the program with
:meth:`Tracer.patch`; nothing inside the program changes.  Every wrapped
call records a span ``(name, start, end, parent)`` on a stack (the
server is one thread, and no wrapped call awaits, so spans nest), and
each layer's **self time** is its spans' durations minus the durations
of their direct children.  Span clocks read process CPU time, so self
times add up to the server CPU they are compared with.

Entry points are named as ``"package.module:Owner.attr"`` strings and
imported only when the traced run patches them.  One that no longer
exists (its module, class or attribute renamed or moved by a later
change) is recorded in :attr:`Tracer.unmeasured` and skipped: the run
continues and that layer reports no value instead of crashing.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterable


class Tracer:
    """Stack-based span recorder with counters, kept in memory."""

    def __init__(self, clock: Callable[[], float] = time.process_time):
        self.clock = clock
        #: ``[name, start, end, parent_index]``; parent -1 at top level.
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        #: Free-form values the wrappers observe (last WAL writer, ...).
        self.seen: dict = {}
        self.unmeasured: dict[str, str] = {}
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------
    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = self.clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """Record one span around a ``with`` block."""
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)

    def wrap(self, name: str, fn: Callable, observe: Callable | None = None):
        """``fn`` recorded as span ``name``; ``observe(args, result)``
        runs after the span closes (counts stay out of the timing)."""
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(idx)
            if observe is not None:
                observe(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def wrap_iter(self, name: str, fn: Callable):
        """A generator-returning ``fn`` whose every ``next()`` is a span
        (lazy work runs while the consumer pulls, under its span)."""
        tracer = self
        done = object()

        def wrapper(*args, **kwargs):
            it = iter(fn(*args, **kwargs))
            while True:
                idx = tracer.begin(name)
                try:
                    item = next(it, done)
                finally:
                    tracer.end(idx)
                if item is done:
                    return
                yield item

        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching ------------------------------------------------------
    def patch(
        self,
        layer: str,
        owner,
        attr: str,
        *,
        observe: Callable | None = None,
        iterate: bool = False,
    ) -> bool:
        """Replace ``owner.attr`` with a traced wrapper until
        :meth:`restore`; a missing attribute marks ``layer`` unmeasured."""
        fn = getattr(owner, attr, None)
        if fn is None or not callable(fn):
            where = getattr(owner, "__qualname__", None) or getattr(
                owner, "__name__", repr(owner)
            )
            self.unmeasured[layer] = f"{where}.{attr} not found"
            return False
        wrapped = (
            self.wrap_iter(layer, fn)
            if iterate
            else self.wrap(layer, fn, observe)
        )
        self._undo.append((owner, attr, owner.__dict__.get(attr)))
        setattr(owner, attr, wrapped)
        return True

    def patch_entry(self, layer: str, target: str, **options) -> bool:
        """:meth:`patch` the entry point ``"module:Owner.attr"``; one
        that cannot be imported or found marks ``layer`` unmeasured."""
        module_name, _, qualname = target.partition(":")
        *path, attr = qualname.split(".")
        try:
            owner = importlib.import_module(module_name)
            for part in path:
                owner = getattr(owner, part)
        except (ImportError, AttributeError) as exc:
            self.unmeasured[layer] = f"{target}: {exc}"
            return False
        return self.patch(layer, owner, attr, **options)

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # -- analysis ------------------------------------------------------
    def dump(self, path: Path) -> None:
        """Write the spans out as JSON lines (after the run)."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, start, end, parent]) + "\n")


def self_times(spans: Iterable) -> tuple[dict, dict]:
    """Per-name ``(self, inclusive)`` seconds of a span list.

    A span's self time is its duration minus its direct children's
    durations; the children's own time is attributed to their names.
    """
    spans = list(spans)
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    selft: dict = defaultdict(float)
    incl: dict = defaultdict(float)
    for i, (name, start, end, _) in enumerate(spans):
        dur = end - start
        incl[name] += dur
        selft[name] += dur - child[i]
    return dict(selft), dict(incl)
