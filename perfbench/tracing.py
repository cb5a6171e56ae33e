"""Outside-in tracing: time the public functions of ranopt without editing it.

A Tracer swaps module and class attributes for timing wrappers, records one
span per call (name, start, end, parent), and restores every original on
exit. The benchmark is single-threaded, so the direct children of a span
never overlap and the time they cover is the sum of their durations.
"""

from __future__ import annotations

import contextlib
import functools
import time

import numpy as np


class Tracer:
    """In-memory span recorder with optional per-call hooks for gauges."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        # each span is [name, start, end, parent_index]; parent -1 is top level
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.gauges: dict[str, list[float]] = {}

    def wrap(self, fn, name, hook=None, name_from_args=None):
        """A wrapper that records a span around each call of fn.

        name_from_args, when given, maps the call's arguments to a span name
        (used to split one function into per-option spans). hook, when given,
        runs after the span closes with (tracer, args, kwargs, result).
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name_from_args(args, kwargs) if name_from_args else name
            parent = tracer._stack[-1] if tracer._stack else -1
            index = len(tracer.spans)
            span = [span_name, tracer.clock(), None, parent]
            tracer.spans.append(span)
            tracer._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = tracer.clock()
                tracer._stack.pop()
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return wrapper

    def gauge(self, name: str, value: float) -> None:
        self.gauges.setdefault(name, []).append(float(value))

    @contextlib.contextmanager
    def patched(self, targets):
        """Install wrappers for (owner, attribute, span name, options) targets.

        options is a dict that may hold "hook" and "name_from_args". Every
        original attribute is put back on exit, in reverse order, even when
        the body raises.
        """
        saved = []
        try:
            for owner, attr, name, options in targets:
                # a class attribute is taken from the class itself, so a plain
                # function stays a method once wrapped
                original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(original, name, **options))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # --- analysis --------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per-span duration minus the time covered by its direct children."""
        self_t = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                self_t[s[3]] -= s[2] - s[1]
        return self_t

    def by_name(self) -> dict[str, tuple[np.ndarray, float]]:
        """Span name -> (durations of its spans, their summed self time)."""
        durations: dict[str, list[float]] = {}
        self_sum: dict[str, float] = {}
        for s, own in zip(self.spans, self.self_times()):
            durations.setdefault(s[0], []).append(s[2] - s[1])
            self_sum[s[0]] = self_sum.get(s[0], 0.0) + own
        return {name: (np.array(d), self_sum[name]) for name, d in durations.items()}

    def top_level_seconds(self) -> float:
        return float(sum(s[2] - s[1] for s in self.spans if s[3] < 0))


def percentile(values, q: float) -> float:
    """q-th percentile of the samples, 0.0 when there are none."""
    arr = np.asarray(values, dtype=np.float64)
    return float(np.percentile(arr, q)) if arr.size else 0.0
