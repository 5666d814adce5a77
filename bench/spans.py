"""In-memory spans around calls into the dtmor package, recorded from outside.

A :class:`Tracer` replaces a module attribute (or a method on a class) with a
wrapper that records one :class:`Span` per call: its name, start, end, the
span that was open when it started (its parent) and the job it belongs to.
Nothing inside ``src/`` is changed; callers see the wrapper only because
they look the name up at call time.  Spans stay in memory until the run
writes them out.
"""
from __future__ import annotations

import functools
import statistics
import time
from dataclasses import dataclass, field
from types import SimpleNamespace


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None   # index of the enclosing span in Tracer.spans
    job: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans for the functions it wraps while installed.

    ``note(attrs, args, kwargs, result)``, when given for a wrapped
    function, copies counts out of the call (iterations, sizes, ...) into
    the span's attributes after the span has been closed, so it adds to no
    span's duration.  The seconds spent in notes are summed in
    ``note_seconds``, as part of what tracing costs a job.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.job = 0
        self.note_seconds = 0.0
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name: str, note=None) -> None:
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            parent = self._open[-1] if self._open else None
            span = Span(name, time.perf_counter(), float("nan"), parent, self.job)
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                span.attrs["error"] = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            if note is not None:
                t = time.perf_counter()
                note(span.attrs, args, kwargs, result)
                self.note_seconds += time.perf_counter() - t
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def wrapper_seconds(calls: int = 20000, rounds: int = 5) -> float:
    """Seconds one wrapped call costs beyond a plain call: the median over
    ``rounds`` of the difference between ``calls`` wrapped and plain calls
    of a no-op, divided by ``calls``."""
    ns = SimpleNamespace(noop=lambda: None)
    plain = ns.noop
    samples = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        for _ in range(calls):
            plain()
        t1 = time.perf_counter()
        tracer = Tracer()
        tracer.wrap(ns, "noop", "noop")
        wrapped = ns.noop
        t2 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        t3 = time.perf_counter()
        tracer.restore()
        samples.append(((t3 - t2) - (t1 - t0)) / calls)
    return statistics.median(samples)


def covered(intervals, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the given intervals."""
    total, reach = 0.0, lo
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= reach:
            continue
        total += b - max(a, reach)
        reach = b
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return [s.duration - covered(children.get(i, ()), s.start, s.end)
            for i, s in enumerate(spans)]
