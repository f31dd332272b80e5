"""In-memory span tracer for the btq benchmark.

The tracer wraps library functions from outside the library: every module
namespace under `btq` that binds a traced function gets the wrapper, so
calls through `from .building import vertex_normal_form` are seen as well
as calls through `building.vertex_normal_form`.  Methods are wrapped on
their class.

A span is (name, start, end, parent span index, job id, extra); `extra`
is a per-call quantity taken from the result (vertices returned, group
elements enumerated, bytes exported, ...).  Spans stay in memory until
the run ends; then `write_spans` saves them and `Aggregate` folds them
into per-name totals.  The hottest arithmetic methods are counted only: a
span per LaurentPoly product would cost more than the product.
"""

from __future__ import annotations

import json
import os
import sys
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: dict[str, int] = defaultdict(int)
        self.job = -1
        self._stack = [-1]
        self._undo: list = []

    # -- installation -----------------------------------------------------

    def _span_wrapper(self, name, func, extra):
        spans = self.spans
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            value = None
            start = perf_counter()
            try:
                result = func(*args, **kwargs)
                if extra is not None:
                    value = extra(result)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.job, value)

        return traced

    def _count_wrapper(self, name, func):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return func(*args, **kwargs)

        return counted

    def function(self, module, attr, extra=None, count_only=False):
        """Wrap btq.<module>.<attr> in every btq namespace that binds it."""
        func = getattr(sys.modules[f"btq.{module}"], attr)
        name = f"{module}.{attr}"
        wrapper = (
            self._count_wrapper(name, func)
            if count_only
            else self._span_wrapper(name, func, extra)
        )
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "btq" or mod_name.startswith("btq.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is func:
                    setattr(mod, key, wrapper)
                    self._undo.append((mod, key, func))

    def method(self, module, cls, attr, count_only=False):
        """Wrap a method on its class (shared by every instance)."""
        klass = getattr(sys.modules[f"btq.{module}"], cls)
        func = klass.__dict__[attr]
        name = f"{module}.{cls}.{attr}"
        wrapper = (
            self._count_wrapper(name, func)
            if count_only
            else self._span_wrapper(name, func, None)
        )
        setattr(klass, attr, wrapper)
        self._undo.append((klass, attr, func))

    def remove(self):
        while self._undo:
            owner, key, func = self._undo.pop()
            setattr(owner, key, func)


def write_spans(path, spans, job_names):
    """One JSON line naming the jobs, then one line per span:
    [name, start, end, parent index, job id, extra]."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"jobs": job_names}) + "\n")
        for span in spans:
            fh.write(json.dumps(span) + "\n")


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------


def covered_length(intervals, lo: float, hi: float) -> float:
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


def self_times(spans) -> list[float]:
    """Per span: its duration minus the part its child spans cover."""
    children = defaultdict(list)
    for idx, (_, start, end, parent, _, _) in enumerate(spans):
        if parent >= 0:
            children[parent].append((start, end))
    return [
        (end - start) - covered_length(children.get(idx, ()), start, end)
        for idx, (_, start, end, _, _, _) in enumerate(spans)
    ]


class Aggregate:
    """Per-name totals over a list of finished spans."""

    def __init__(self, spans):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)  # no traced function calls itself
        self.extra = defaultdict(int)
        self.calls_by_job = defaultdict(int)
        self.extra_by_job = {}
        self.child_extra = defaultdict(int)  # (parent name, child name) -> extra
        selfs = self_times(spans)
        for idx, (name, start, end, parent, job, value) in enumerate(spans):
            self.calls[name] += 1
            self.calls_by_job[name, job] += 1
            self.self_s[name] += selfs[idx]
            self.total_s[name] += end - start
            if value is not None:
                if isinstance(value, tuple):
                    prev = self.extra_by_job.get((name, job), (0,) * len(value))
                    self.extra_by_job[name, job] = tuple(a + b for a, b in zip(prev, value))
                else:
                    self.extra[name] += value
                    if parent >= 0:
                        self.child_extra[spans[parent][0], name] += value


def synthetic_self_check() -> list[str]:
    """Self time on a hand-made span tree whose answer is known exactly.

    root [0, 10] has children a [1, 4] and b [3, 6], which overlap, and c
    [9, 12], which runs past its parent; a has a child g [2, 3].
    """
    spans = [
        ("root", 0.0, 10.0, -1, 0, None),
        ("a", 1.0, 4.0, 0, 0, None),
        ("b", 3.0, 6.0, 0, 0, None),
        ("g", 2.0, 3.0, 1, 0, None),
        ("c", 9.0, 12.0, 0, 0, None),
    ]
    expected = [4.0, 2.0, 3.0, 1.0, 3.0]
    got = self_times(spans)
    if got != expected:
        return [f"tracer self time on the synthetic tree: got {got}, expected {expected}"]
    return []
