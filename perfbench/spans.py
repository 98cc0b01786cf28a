"""In-memory spans recorded around calls into the package, and the
self-time arithmetic that turns them into per-module figures.

A span is [name, start, end, parent, pairs]: `parent` is the index of the
enclosing span (-1 at the top level) and `pairs` the number of n x n
similarity entries the call computed (0 for calls that compute none).
"""

from __future__ import annotations

import time
from collections import defaultdict


class NullTracer:
    """Calls straight through; used by the timed (untraced) rounds."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer:
    """Records one span per wrapped call, nested by call order."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self._stack: list[int] = []

    def begin(self, name: str, pairs: int = 0) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent, pairs])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = self.clock()
        self._stack.pop()

    def call(self, name, fn, *args, **kwargs):
        idx = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(idx)

    def wrap(self, name: str, fn, pairs=None):
        """A stand-in for `fn` that records a span per call. `pairs`, if
        given, maps the call's arguments to its similarity-entry count."""

        def traced(*args, **kwargs):
            idx = self.begin(name, pairs(*args, **kwargs) if pairs is not None else 0)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(idx)

        return traced


class patched:
    """Context manager that replaces attributes (module globals or class
    methods) and restores the originals on exit, even after an error."""

    def __init__(self, replacements):
        self._replacements = list(replacements)  # (owner, attribute, new value)
        self._saved: list[tuple] = []

    def __enter__(self):
        for owner, attr, value in self._replacements:
            self._saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, value)
        return self

    def __exit__(self, *exc):
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [
        (end - start) - _covered(children.get(i, []), start, end)
        for i, (name, start, end, parent, _) in enumerate(spans)
    ]


def roots(spans: list[list]) -> list[int]:
    """For each span, the index of its top-level ancestor."""
    out: list[int] = []
    for i, span in enumerate(spans):
        parent = span[3]
        out.append(i if parent < 0 else out[parent])  # parents precede children
    return out


def summarize(spans: list[list]) -> dict[str, dict[str, dict[str, float]]]:
    """Per top-level span name, per span name in its subtree: self seconds,
    inclusive seconds, calls and similarity pairs."""
    selfs = self_times(spans)
    top = roots(spans)
    out: dict[str, dict[str, dict[str, float]]] = defaultdict(
        lambda: defaultdict(lambda: {"self_s": 0.0, "incl_s": 0.0, "calls": 0, "pairs": 0})
    )
    for i, (name, start, end, parent, pairs) in enumerate(spans):
        entry = out[spans[top[i]][0]][name]
        entry["self_s"] += selfs[i]
        entry["incl_s"] += end - start
        entry["calls"] += 1
        entry["pairs"] += pairs
    return out
