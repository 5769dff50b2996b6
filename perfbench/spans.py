"""In-memory spans and counters recorded around calls into fairaudit's layers.

A :class:`Tracer` wraps functions. Each call of a wrapped function appends a
span ``[name, start, end, parent]``, where ``parent`` is the index of the span
that was open when the call began, and bumps ``<name>.calls``. All spans of
one tracer share its ``run_id``. Nothing is written until the caller asks for
:meth:`Tracer.dump` at the end of the run.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Sequence

#: Computes extra counters from a wrapped call's bound arguments and result.
Measure = Callable[[dict[str, Any], Any], dict[str, int]]

Span = Sequence[Any]  # [name, start, end, parent index or None]


class Tracer:
    def __init__(self, run_id: str, clock: Callable[[], float] = time.perf_counter) -> None:
        self.run_id = run_id
        self.clock = clock
        self.spans: list[list[Any]] = []
        self.counters: Counter[str] = Counter()
        self._open: list[int] = []

    def wrap(
        self, fn: Callable[..., Any], name: str, measure: Measure | None = None
    ) -> Callable[..., Any]:
        """``fn`` recording a span called ``name`` around every call."""
        signature = inspect.signature(fn) if measure is not None else None

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(self.spans)
            span = [name, 0.0, 0.0, self._open[-1] if self._open else None]
            self.spans.append(span)
            self._open.append(index)
            span[1] = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = self.clock()
                self._open.pop()
            self.counters[f"{name}.calls"] += 1
            if measure is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                for key, value in measure(bound.arguments, result).items():
                    self.counters[f"{name}.{key}"] += value
            return result

        return traced

    def count(self, fn: Callable[..., Any], counter: str) -> Callable[..., Any]:
        """``fn`` bumping ``counter`` on every call, without a span."""

        @functools.wraps(fn)
        def counted(*args: Any, **kwargs: Any) -> Any:
            self.counters[counter] += 1
            return fn(*args, **kwargs)

        return counted

    def dump(self) -> dict[str, Any]:
        return {"run_id": self.run_id, "spans": self.spans, "counters": dict(self.counters)}


def self_times(spans: Sequence[Span]) -> list[float]:
    """Each span's duration minus the part of its interval that its direct
    children cover (overlapping children count once; parts of a child outside
    the parent count not at all)."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, start, end, parent in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = []
    for index, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children[index]):
            child_start, child_end = max(child_start, cursor), min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                cursor = child_end
        out.append(end - start - covered)
    return out


def self_time_by_name(spans: Sequence[Span]) -> dict[str, float]:
    totals: dict[str, float] = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        totals[span[0]] += own
    return dict(totals)
