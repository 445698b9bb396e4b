"""Spans recorded around a program's functions from outside the program.

A ``Tracer`` swaps each target attribute (a module function or a class
method) for a wrapper that records one span per call: name, start, end,
parent span and op id.  ``uninstall`` puts the originals back; either
may be called when it has nothing to do.  Spans stay in memory;
``write_spans`` writes them once, when the run ends.
The tracer assumes one thread, so a span's children nest inside it.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable

NAME, START, END, PARENT, OP = range(5)
NO_PARENT = -1


@dataclass(frozen=True)
class Target:
    """Wrap ``owner.attr``; its spans are named ``name``.

    ``count(counts, args, result)`` may add to the tracer's counters
    from a call's arguments and return value.
    """

    owner: object
    attr: str
    name: str
    count: Callable | None = None


class Tracer:
    def __init__(self, targets: list[Target]):
        self.targets = targets
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op = -1  # id stamped on the spans that start now
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self):
        if self._saved:
            return
        for t in self.targets:
            original = vars(t.owner)[t.attr]
            self._saved.append((t.owner, t.attr, original))
            setattr(t.owner, t.attr, self._wrap(original, t))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, target: Target):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [
                target.name,
                time.perf_counter(),
                0.0,
                stack[-1] if stack else NO_PARENT,
                self.op,
            ]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            if target.count is not None:
                target.count(counts, args, result)
            return result

        return traced


def total_times(spans) -> dict[str, float]:
    """Seconds per span name, children included."""
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        out[s[NAME]] += s[END] - s[START]
    return dict(out)


def self_times(spans) -> dict[str, float]:
    """Seconds per span name: each span's duration less the part of it
    that its child spans cover."""
    covered = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] != NO_PARENT:
            covered[s[PARENT]] += s[END] - s[START]
    out: dict[str, float] = defaultdict(float)
    for i, s in enumerate(spans):
        out[s[NAME]] += s[END] - s[START] - covered[i]
    return dict(out)


def root_time(spans) -> float:
    """Seconds covered by spans that have no parent."""
    return sum(s[END] - s[START] for s in spans if s[PARENT] == NO_PARENT)


def write_spans(path, spans):
    """One JSON object per line: name, start, end (seconds), parent
    (index of the parent span's line, -1 for none) and op."""
    with open(path, "w") as fh:
        for s in spans:
            fh.write(
                json.dumps(
                    {
                        "name": s[NAME],
                        "start": s[START],
                        "end": s[END],
                        "parent": s[PARENT],
                        "op": s[OP],
                    }
                )
            )
            fh.write("\n")
