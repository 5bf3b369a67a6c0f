"""Per-request span trees recorded in simulated time.

A :class:`Tracer` attaches to one :class:`~repro.sim.kernel.Simulator`
(via ``sim.tracer``) and follows every interaction from the moment the
site's ``perform`` process starts until it finishes: each instrumented
component (CPUs, NICs, lock managers, the replay engine) opens a
:class:`Span` on the request currently executing and closes it when the
work completes.  Spans nest, so one request becomes a tree::

    product_detail                         (root: the whole interaction)
      web.accept          [queue]          wait for an Apache slot
      web.cpu             [cpu]            HTTP handling
      ajp.request         [ipc]
        web.cpu           [cpu]
        net:web->servlet  [net]
        servlet.cpu       [cpu]
      db.query items      [db]
        servlet.cpu       [cpu]            driver marshalling
        net:servlet->db   [net]
        db.items READ     [lock]           MyISAM table-lock wait
        db.cpu            [cpu]            query execution
      ...

Everything is *opt-in*: when no tracer is attached, components perform a
single ``sim.tracer is None`` test and the hot path is untouched --
tracing adds no simulator events, no RNG draws, and no timing changes,
so traced and untraced runs produce identical reports.

Memory is bounded: every finished request is immediately folded into
running aggregates (per-tier busy time, per-(tier, category) breakdown,
lock-wait sites, per-interaction totals) and the raw span tree is only
retained while the total retained span count stays under ``max_spans``
-- Chrome export uses whatever was retained, attribution uses the exact
aggregates.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.sim.kernel import Simulator

# Span categories (the "resource kind" axis of the breakdown):
#   request  the interaction root
#   queue    waiting for a software slot (Apache process pool)
#   cpu      holding / waiting for a processor (meta carries the demand)
#   net      occupying NIC channels + switch latency
#   lock     waiting for a MyISAM table lock or a container sync lock
#   db       one database round trip (structural parent)
#   ipc      AJP request/reply crossing (structural parent)
#   rmi      servlet <-> EJB round trip (structural parent)
#   ejb      container transaction bookkeeping work (structural parent)


class Span:
    """One timed node of a request tree (simulated seconds)."""

    __slots__ = ("name", "cat", "tier", "start", "end", "parent",
                 "children", "meta")

    def __init__(self, name: str, cat: str, tier: str, start: float,
                 parent: Optional["Span"] = None,
                 meta: Optional[dict] = None):
        self.name = name
        self.cat = cat
        self.tier = tier
        self.start = start
        self.end: Optional[float] = None
        self.parent = parent
        self.children: List["Span"] = []
        self.meta = meta

    @property
    def wall(self) -> float:
        end = self.end if self.end is not None else self.start
        return end - self.start

    def exclusive(self) -> float:
        """Wall time not covered by child spans (>= 0)."""
        covered = sum(c.wall for c in self.children)
        return max(0.0, self.wall - covered)

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Span {self.name} [{self.cat}] tier={self.tier} "
                f"{self.start:.6f}..{self.end}>")


class RequestTrace:
    """The span tree of one in-flight (or finished) interaction."""

    __slots__ = ("tracer", "client_id", "interaction", "root", "_stack",
                 "closed", "span_count", "proc")

    def __init__(self, tracer: "Tracer", interaction: str, client_id: int,
                 proc):
        self.tracer = tracer
        self.client_id = client_id
        self.interaction = interaction
        self.proc = proc
        now = tracer.sim.now
        self.root = Span(interaction, "request", "-", now)
        self._stack: List[Span] = [self.root]
        self.closed = False
        self.span_count = 1

    def push(self, name: str, cat: str, tier: str,
             meta: Optional[dict] = None) -> Span:
        parent = self._stack[-1] if self._stack else self.root
        span = Span(name, cat, tier, self.tracer.sim.now, parent, meta)
        parent.children.append(span)
        self._stack.append(span)
        self.span_count += 1
        return span

    def pop(self, span: Span) -> None:
        """Close ``span`` at the current simulated time.

        Robust against mismatched nesting (an interrupted generator may
        unwind several levels through one ``finally``): every span above
        ``span`` on the stack is closed along with it.
        """
        now = self.tracer.sim.now
        if span.end is None:
            span.end = now
        stack = self._stack
        while stack:
            top = stack.pop()
            if top.end is None:
                top.end = now
            if top is span:
                return
        # span was not on the stack (already unwound): nothing else to do.

    def close(self) -> None:
        """Force-close every open span (request finished or aborted)."""
        if self.closed:
            return
        now = self.tracer.sim.now
        while self._stack:
            top = self._stack.pop()
            if top.end is None:
                top.end = now
        self.closed = True
        self.tracer._finish(self)


class Tracer:
    """Session-wide collector: per-process request contexts + aggregates.

    ``window`` (a ``(start, end)`` pair in simulated seconds, or None)
    clips every aggregated contribution to the measurement window; the
    experiment harness sets it to the measurement phase before the run.
    """

    def __init__(self, sim: Simulator, max_spans: int = 200_000,
                 window: Optional[Tuple[float, float]] = None):
        self.sim = sim
        self.max_spans = max_spans
        self.window = window
        self._by_proc: Dict[object, RequestTrace] = {}
        # Finished requests whose raw trees were retained (Chrome export).
        self.requests: List[RequestTrace] = []
        self.retained_spans = 0
        self.requests_dropped = 0      # folded but trees not retained
        # -- exact aggregates over the (clipped) window ---------------------
        self.busy: Dict[str, float] = {}                 # tier -> cpu seconds
        self.cpu_queue: Dict[str, float] = {}            # tier -> run-q wait
        self.breakdown: Dict[Tuple[str, str], float] = {}  # (tier, cat) -> s
        self.lock_sites: Dict[Tuple[str, str], List[float]] = {}
        self.n_requests = 0           # requests overlapping the window
        self.request_seconds = 0.0    # clipped wall of those requests
        self.per_interaction: Dict[str, List[float]] = {}
        self.spans_folded = 0

    # -- request lifecycle ------------------------------------------------------

    def begin_request(self, interaction: str, client_id: int) -> RequestTrace:
        proc = self.sim.current_process
        rc = RequestTrace(self, interaction, client_id, proc)
        if proc is not None:
            self._by_proc[proc] = rc
        return rc

    def current(self) -> Optional[RequestTrace]:
        """The request context of the process executing right now."""
        return self._by_proc.get(self.sim._current)

    def _finish(self, rc: RequestTrace) -> None:
        if rc.proc is not None:
            current = self._by_proc.get(rc.proc)
            if current is rc:
                del self._by_proc[rc.proc]
        self._fold(rc)
        if self.retained_spans + rc.span_count <= self.max_spans:
            self.requests.append(rc)
            self.retained_spans += rc.span_count
        else:
            self.requests_dropped += 1

    def finalize(self) -> None:
        """Close every request still open (end of run)."""
        for rc in list(self._by_proc.values()):
            rc.close()

    # -- aggregation ------------------------------------------------------------

    def _clip_factor(self, span: Span) -> float:
        """Fraction of the span's wall inside the window (1.0 if no
        window or zero-wall span starting inside it)."""
        window = self.window
        start = span.start
        end = span.end if span.end is not None else start
        if window is None:
            return 1.0
        lo, hi = window
        if end <= start:
            return 1.0 if lo < start <= hi else 0.0
        overlap = min(end, hi) - max(start, lo)
        if overlap <= 0.0:
            return 0.0
        return overlap / (end - start)

    def _fold(self, rc: RequestTrace) -> None:
        breakdown = self.breakdown
        busy = self.busy
        cpu_queue = self.cpu_queue
        lock_sites = self.lock_sites
        for span in rc.root.walk():
            self.spans_folded += 1
            factor = self._clip_factor(span)
            if factor <= 0.0:
                continue
            cat = span.cat
            tier = span.tier
            if cat == "cpu":
                demand = span.meta["demand"] if span.meta else 0.0
                wall = span.wall
                busy[tier] = busy.get(tier, 0.0) + demand * factor
                queued = max(0.0, wall - demand) * factor
                if queued > 0.0:
                    cpu_queue[tier] = cpu_queue.get(tier, 0.0) + queued
                key = (tier, "cpu")
                breakdown[key] = breakdown.get(key, 0.0) + demand * factor
                if queued > 0.0:
                    key = (tier, "cpu_queue")
                    breakdown[key] = breakdown.get(key, 0.0) + queued
            elif cat == "lock":
                wait = span.wall * factor
                key = (tier, "lock")
                breakdown[key] = breakdown.get(key, 0.0) + wait
                origin = (span.meta or {}).get("origin", "")
                site = (span.name, origin)
                entry = lock_sites.get(site)
                if entry is None:
                    lock_sites[site] = [1, wait]
                else:
                    entry[0] += 1
                    entry[1] += wait
            elif cat in ("queue", "net"):
                key = (tier, cat)
                breakdown[key] = breakdown.get(key, 0.0) + span.wall * factor
            else:
                # Structural spans (request/db/ipc/rmi/ejb): only the
                # time not covered by children counts (switch latency,
                # untraced gaps).
                rest = span.exclusive() * factor
                if rest > 0.0:
                    key = (tier, "other")
                    breakdown[key] = breakdown.get(key, 0.0) + rest
        root_clipped = rc.root.wall * self._clip_factor(rc.root)
        if root_clipped > 0.0:
            self.n_requests += 1
            self.request_seconds += root_clipped
            entry = self.per_interaction.get(rc.interaction)
            if entry is None:
                self.per_interaction[rc.interaction] = [1, root_clipped]
            else:
                entry[0] += 1
                entry[1] += root_clipped

    # -- derived views -----------------------------------------------------------

    def window_duration(self) -> Optional[float]:
        if self.window is None:
            return None
        return self.window[1] - self.window[0]

    def busy_fraction(self, tier: str) -> float:
        """Trace-derived CPU busy fraction of one machine over the
        window (requires a window)."""
        duration = self.window_duration()
        if not duration:
            raise ValueError("busy_fraction needs a measurement window")
        return self.busy.get(tier, 0.0) / duration
