"""In-memory span recorder for the traced benchmark run.

A span is (name, start, end, parent): ``parent`` is the index of the span
that was open when this one started, or -1. Spans are appended to a list in
memory and written out once, when the traced run ends. A span's self time is
its duration minus the part of it that its child spans cover, so the self
times of all spans add up to the duration of the root span.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict


class SpanRecorder:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []  # [name, start, end, parent]
        self.counts = defaultdict(int)
        self._open = []

    def call(self, name, fn, *args, **kwargs):
        """Call ``fn`` inside a span called ``name``."""
        idx = len(self.spans)
        span = [name, 0.0, 0.0, self._open[-1] if self._open else -1]
        self.spans.append(span)
        self._open.append(idx)
        span[1] = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = self.clock()
            self._open.pop()

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return wrapper

    def counted(self, name, fn):
        """One-argument ``fn`` with every call added to ``counts[name]``; no span."""
        counts = self.counts

        def wrapper(x):
            counts[name] += 1
            return fn(x)
        return wrapper

    def to_dict(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts)}


def rebind(original, replacement, package: str) -> list:
    """Replace every module attribute of ``package`` that is ``original``.

    A caller that did ``from .mod import fn`` looks ``fn`` up in its own
    module, so each such binding gets the replacement. Returns the list of
    ``module.attribute`` names that were replaced.
    """
    done = []
    for mod_name, mod in sorted(sys.modules.items()):
        if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                done.append(f"{mod_name}.{attr}")
    return done


def self_times(spans) -> list:
    """Self time of each span: its duration minus the union of its children."""
    children = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        lo = hi = None
        for a, b in sorted((max(spans[c][1], start), min(spans[c][2], end))
                           for c in children[i]):
            if b <= a:
                continue
            if hi is None or a > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = a, b
            else:
                hi = max(hi, b)
        if hi is not None:
            covered += hi - lo
        out.append((end - start) - covered)
    return out


class Aggregate:
    """Per-name call count, self time and inclusive time of a span list.

    Inclusive time counts a span only when no ancestor has the same name, so
    a function that calls itself is not counted twice.
    """

    def __init__(self, spans):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.inclusive_s = defaultdict(float)
        selfs = self_times(spans)
        for i, (name, start, end, parent) in enumerate(spans):
            self.calls[name] += 1
            self.self_s[name] += selfs[i]
            while parent >= 0 and spans[parent][0] != name:
                parent = spans[parent][3]
            if parent < 0:
                self.inclusive_s[name] += end - start
        self.total_self_s = sum(selfs)
