"""In-memory span recorder for the benchmark's traced run.

Spans are recorded only from the benchmark's own files: :func:`wrap`
replaces a module or class attribute with a timing wrapper, so the
program under test is never edited.  A span carries a name, start and
end (``time.perf_counter`` seconds), the id of the span that was open
on the same thread when it began (its parent) and a request id.

Hot per-event callbacks (detector ``on_read`` and friends) would cost
more as span objects than as work, so :meth:`Tracer.charge` adds their
time to a named total and to the open span's ``child`` time instead.
Self time of a span is its duration minus its children's durations and
charged time; a layer's self time is the sum over the spans whose name
starts with the layer prefix (``"vm."``, ``"tenant."``, ...).  Waits
(:meth:`Tracer.wait`: queueing, commit-to-ack) are totals that belong
to no layer's self time.

Everything stays in memory until :meth:`Tracer.dump` writes one JSON
document at exit.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional


class Tracer:
    """Collects spans and charged totals for one process."""

    def __init__(self) -> None:
        self.spans: List[list] = []  # [id, parent, name, start, end, rid, child]
        self.totals: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        self.waits: Dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, rid: Optional[str] = None) -> list:
        stack = self._stack()
        parent = stack[-1][0] if stack else 0
        span = [next(self._ids), parent, name, time.perf_counter(), 0.0, rid, 0.0]
        stack.append(span)
        return span

    def end(self, span: list) -> float:
        span[4] = time.perf_counter()
        stack = self._stack()
        stack.pop()
        dur = span[4] - span[3]
        if stack:
            stack[-1][6] += dur
        with self._lock:
            self.spans.append(span)
        return dur

    def charge(self, name: str, seconds: float, count: int = 1) -> None:
        """Account hot-path time without a span object."""
        stack = self._stack()
        if stack:
            stack[-1][6] += seconds
        with self._lock:
            self.totals[name] += seconds
            self.counts[name] += count

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counts[name] += n

    def wait(self, name: str, seconds: float) -> None:
        """Account time work spent waiting (not busy in any layer)."""
        with self._lock:
            self.waits[name] += seconds
            self.counts[name] += 1

    def doc(self) -> dict:
        return {
            "spans": self.spans,
            "totals": dict(self.totals),
            "counts": dict(self.counts),
            "waits": dict(self.waits),
        }

    def dump(self, path: str, extra: Optional[dict] = None) -> None:
        with open(path, "w") as fh:
            json.dump({**self.doc(), **(extra or {})}, fh)


def wrap(owner, attr: str, tracer: Tracer, name: str,
         rid: Optional[Callable] = None, after: Optional[Callable] = None):
    """Replace ``owner.attr`` with a wrapper that records a ``name`` span.

    ``rid(*args)`` computes the request id before the call;
    ``after(result, *args)`` may record counters from the result.
    Returns the original so callers can restore it.
    """
    orig = getattr(owner, attr)

    @functools.wraps(orig)
    def traced(*args, **kwargs):
        span = tracer.begin(name, rid(*args) if rid else None)
        try:
            result = orig(*args, **kwargs)
        finally:
            tracer.end(span)
        if after is not None:
            after(result, *args)
        return result

    setattr(owner, attr, traced)
    return orig


def summarize(docs: List[dict]) -> Dict[str, float]:
    """Per-name inclusive seconds and counts, plus per-layer self time,
    over the span documents of every traced process of a run."""
    out: Dict[str, float] = defaultdict(float)
    for doc in docs:
        for _sid, _parent, name, start, end, _rid, child in doc["spans"]:
            dur = end - start
            out[name + "_s"] += dur
            out[name + "#"] += 1
            layer = name.split(".", 1)[0]
            out[layer + ".self_s"] += dur - child
        for name, secs in doc["totals"].items():
            out[name + "_s"] += secs
            layer = name.split(".", 1)[0]
            out[layer + ".self_s"] += secs
        for name, secs in doc["waits"].items():
            out[name + "_s"] += secs
        for name, n in doc["counts"].items():
            out[name + "#"] += n
    return dict(out)
