"""In-memory span tracer that wraps caossim's public functions from outside.

Each wrapped function is replaced by a module attribute that opens a span
around the original call. caossim modules call each other through module
globals (``codes.codebook``, ``plan_mod.build_plan``, ``sensor_mod.capture``)
that Python looks up at call time, so calls made inside the library are
traced too. Spans stay in memory and are written out when the run ends.

A span records its layer name, start and end (``time.perf_counter``), the
span that caused it, the frame id and phase the harness set, the process
``ru_maxrss`` before and after, and the computed counts of its layer.
"""

from __future__ import annotations

import functools
import resource
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from types import SimpleNamespace


def maxrss_mb() -> float:
    """Process high-water mark of resident memory (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Span:
    sid: int
    name: str
    parent: int | None
    frame: int | None
    phase: str
    start: float
    end: float = 0.0
    rss_before_mb: float = 0.0
    rss_after_mb: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans for the layers it wraps; one per benchmark process."""

    def __init__(self):
        self.spans: list[Span] = []
        self.phase = "setup"
        self.frame: int | None = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        sp = Span(len(self.spans), name, parent, self.frame, self.phase, 0.0)
        self.spans.append(sp)
        self._stack.append(sp.sid)
        sp.rss_before_mb = maxrss_mb()
        sp.start = time.perf_counter()
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            sp.rss_after_mb = maxrss_mb()
            self._stack.pop()

    def wrap(self, module, attr: str, layer: str, counter=None) -> None:
        """Replace module.attr by a traced wrapper; counter(args, kwargs, result) -> counts."""
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(layer) as sp:
                result = original(*args, **kwargs)
                if counter is not None:
                    sp.counts = counter(args, kwargs, result)
            return result

        setattr(module, attr, traced)
        self._patched.append((module, attr, original))

    def unwrap_all(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def span_cost(self, calls: int = 5000) -> float:
        """Seconds a traced call costs over a bare one, from a no-op probe.

        The probe's spans are dropped again, so the recorded trace is unchanged.
        """
        probe = SimpleNamespace(noop=lambda: None)
        start = time.perf_counter()
        for _ in range(calls):
            probe.noop()
        bare = time.perf_counter() - start
        first = len(self.spans)
        self.wrap(probe, "noop", "trace.probe")
        start = time.perf_counter()
        for _ in range(calls):
            probe.noop()
        traced = time.perf_counter() - start
        del self.spans[first:]
        self._patched.pop()
        return max(traced - bare, 0.0) / calls


class NullTracer:
    """Stand-in for untraced runs: the harness's own spans cost nothing."""

    phase = "setup"
    frame = None

    @contextmanager
    def span(self, name: str):
        yield None

    def unwrap_all(self) -> None:
        pass


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of it that its direct children cover."""
    own = {sp.sid: sp.duration for sp in spans}
    for sp in spans:
        if sp.parent is not None and sp.parent in own:
            own[sp.parent] -= sp.duration
    return own
