"""The suite's own tracing: spans around the calls into each layer, a
timing driver for ``Connection.execute``, and a CPU-time sampler.

Nothing inside ``src/repro`` is instrumented (that is a later change);
everything here wraps public entry points from the outside.  End-to-end
metrics are always measured with all of it off.
"""

from __future__ import annotations

import os
import signal
from array import array
from contextlib import contextmanager
from time import perf_counter
from typing import Dict, List, Optional

from repro.db.driver import Connection


class SpanRecorder:
    """In-memory spans: name, start, end, parent, request_id.

    ``parent`` is the index of the enclosing span (-1 at the root);
    spans of one request share its ``request_id``, inherited from the
    parent when not given.  Written out when the benchmark ends.

    Stored as columns of numbers, not one object per span: tens of
    thousands of retained containers make the cyclic collector walk the
    databases' whole heap again and again, which cost 7% of a traced
    functional pass.
    """

    def __init__(self):
        self.names: List[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.request_ids: list = []
        self._open: List[int] = []

    def _append(self, name, start, end, request_id) -> int:
        parent = self._open[-1] if self._open else -1
        if request_id is None and parent >= 0:
            request_id = self.request_ids[parent]
        self.names.append(name)
        self.starts.append(start)
        self.ends.append(end)
        self.parents.append(parent)
        self.request_ids.append(request_id)
        return len(self.names) - 1

    @contextmanager
    def span(self, name: str, request_id=None):
        index = self._append(name, perf_counter(), 0.0, request_id)
        self._open.append(index)
        try:
            yield index
        finally:
            self.ends[index] = perf_counter()
            self._open.pop()

    def leaf(self, name: str, start: float, end: float) -> None:
        """A finished span with no children (one SQL statement)."""
        self._append(name, start, end, None)

    def indices(self, name: str) -> List[int]:
        return [i for i, n in enumerate(self.names) if n == name]

    def duration(self, name: str) -> float:
        return sum(self.ends[i] - self.starts[i] for i in self.indices(name))

    def self_time(self, name: str) -> float:
        """Total duration of the ``name`` spans minus the part their
        direct children cover."""
        own = set(self.indices(name))
        covered = sum(self.ends[i] - self.starts[i]
                      for i, parent in enumerate(self.parents)
                      if parent in own)
        return self.duration(name) - covered

    def rows(self) -> List[list]:
        return [[name, start, end, parent if parent >= 0 else None, request]
                for name, start, end, parent, request
                in zip(self.names, self.starts, self.ends, self.parents,
                       self.request_ids)]


class TimedConnection(Connection):
    """A driver connection that records one leaf span per statement."""

    def __init__(self, database, overheads, recorder: SpanRecorder):
        super().__init__(database, overheads)
        self._recorder = recorder

    def execute(self, sql, params=()):
        start = perf_counter()
        try:
            return super().execute(sql, params)
        finally:
            self._recorder.leaf("db.execute", start, perf_counter())


class TimingDriver:
    """Stands in for a deployment's public ``driver`` attribute."""

    def __init__(self, inner, recorder: SpanRecorder):
        self.inner = inner
        self.name = inner.name
        self.overheads = inner.overheads
        self.database = inner.database
        self._recorder = recorder

    def connect(self) -> TimedConnection:
        return TimedConnection(self.database, self.overheads, self._recorder)


def install_timing_driver(tier, recorder: SpanRecorder) -> None:
    """Route every statement of a PHP module, servlet engine or EJB
    container through a :class:`TimingDriver`.  Call before the tier
    serves its first request: pooled connections opened earlier would
    stay untimed."""
    tier.driver = TimingDriver(tier.driver, recorder)
    pool = getattr(tier, "pool", None)
    if pool is not None:
        pool.driver = tier.driver


class Sampler:
    """Attributes process CPU time to ``src/repro`` packages.

    Every ``interval`` seconds of CPU time ``ITIMER_PROF`` fires and the
    handler charges one sample to the innermost frame whose file lies
    under ``src/repro/<package>/`` -- so builtins and stdlib calls count
    for the layer that called them -- or to ``suite`` when no such frame
    is on the stack.  Costs under 1% of a pass, where ``cProfile`` costs
    4-5x and shifts shares toward call-heavy layers.  The kernel fires
    the timer on its own tick: asked for 1 ms, a 250 Hz kernel delivers
    a sample every 4 ms, ~1,000 a pass, which puts a share of one half
    within +-1.6 points.
    """

    def __init__(self, package_root: str, interval: float = 0.001):
        self.root = os.path.join(os.path.realpath(package_root), "")
        self.interval = interval
        self.counts: Dict[str, int] = {}
        self._layer_of_file: Dict[str, Optional[str]] = {}

    def _layer(self, filename: str) -> Optional[str]:
        path = os.path.realpath(filename)
        if not path.startswith(self.root):
            return None
        head = path[len(self.root):].split(os.sep, 1)[0]
        return head[:-3] if head.endswith(".py") else head

    def _on_tick(self, signum, frame) -> None:
        cache = self._layer_of_file
        while frame is not None:
            filename = frame.f_code.co_filename
            try:
                layer = cache[filename]
            except KeyError:
                layer = cache[filename] = self._layer(filename)
            if layer is not None:
                break
            frame = frame.f_back
        else:
            layer = "suite"
        self.counts[layer] = self.counts.get(layer, 0) + 1

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGPROF, self._on_tick)
        signal.setitimer(signal.ITIMER_PROF, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0)
        signal.signal(signal.SIGPROF, self._previous)

    @property
    def samples(self) -> int:
        return sum(self.counts.values())

    def shares(self) -> Dict[str, float]:
        total = self.samples
        return {layer: count / total for layer, count in self.counts.items()} \
            if total else {}
