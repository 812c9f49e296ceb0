"""In-memory span tracing around airmule's layer functions.

The tracer replaces module attributes with timing wrappers and puts the
originals back on ``remove``; nothing inside the package is edited. Every
call into a wrapped layer function becomes a span (name, start, end,
parent, trace id). Leaf functions called thousands of times per farm are
counted instead: each call adds to a (calls, seconds) pair on the span
that is open when it runs.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator


@dataclass
class Span:
    trace_id: str
    name: str
    parent: int | None  # index into Tracer.spans
    start: float
    end: float = 0.0
    leaves: dict[str, list] = field(default_factory=dict)  # name -> [calls, s]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self.trace_id = ""
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        s = Span(self.trace_id, name, self._open[-1] if self._open else None,
                 self.clock())
        self._open.append(len(self.spans))
        self.spans.append(s)
        try:
            yield s
        finally:
            s.end = self.clock()
            self._open.pop()

    def wrap(self, module: object, attr: str, name: str) -> None:
        """Record a span for every call of module.attr."""
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        self._patch(module, attr, traced)

    def wrap_leaf(self, module: object, attr: str, name: str) -> None:
        """Count calls of module.attr and their time on the open span."""
        fn = getattr(module, attr)
        spans, open_ = self.spans, self._open
        clock = self.clock

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                agg = spans[open_[-1]].leaves.setdefault(name, [0, 0.0])
                agg[0] += 1
                agg[1] += dt

        self._patch(module, attr, counted)

    def _patch(self, module: object, attr: str, wrapper: object) -> None:
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def remove(self) -> None:
        """Restore every wrapped attribute."""
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def self_time(self, idx: int) -> float:
        """Span duration minus its child spans and counted leaf calls."""
        s = self.spans[idx]
        children = sum(c.duration for c in self.spans if c.parent == idx)
        leaves = sum(seconds for _, seconds in s.leaves.values())
        return s.duration - children - leaves

    def to_json(self) -> list[dict]:
        return [{"id": s.trace_id, "name": s.name, "parent": s.parent,
                 "start": s.start, "end": s.end,
                 "leaves": {k: {"calls": v[0], "s": v[1]}
                            for k, v in s.leaves.items()}}
                for s in self.spans]
