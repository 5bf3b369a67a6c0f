"""Virtual-time event kernel.

The kernel owns a bucketed calendar queue of timed callbacks and a FIFO
ready-queue of processes waiting to be resumed "now".  Processes are
plain generators:

* ``yield seconds`` (an ``int`` or ``float``) suspends the process for that
  much virtual time,
* ``yield event`` suspends until the :class:`Event` is triggered,
* ``yield process`` suspends until the spawned :class:`Process` finishes,
* ``yield At(t)`` suspends until absolute virtual time ``t``.

The ready-queue (rather than recursive resumption) keeps the Python call
stack flat even when one event release cascades through thousands of
waiting processes, which happens routinely under database lock contention.

Scheduler structure (the "calendar queue"): timed entries are 5-tuples
``(time, seq, fn, proc, sched_time)`` partitioned by time bucket (the
trailing ``sched_time`` records when the entry was pushed; ``seq`` is
unique so it never participates in comparisons), where the bucket
index is ``int(time / width)`` for a power-of-two ``width``.  Entries in
buckets at or before the current bucket live in ``_active``, a binary
heap; later entries are appended *unsorted* (O(1)) to per-bucket lists in
``_far``.  When the active heap drains, the earliest far bucket is
heapified wholesale and becomes the new active heap.  Because every far
entry's time is strictly greater than every possible active entry's time
(bucket boundaries are exclusive on the right), pops still come out in
exact ``(time, seq)`` order -- identical tie-breaks to a single global
heap -- while the common push stops paying O(log n) on million-entry
churn.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Generator, Iterable, Optional

_INF = float("inf")


class SimulationError(RuntimeError):
    """Raised for kernel misuse (bad yields, double triggers, ...)."""


class Interrupt(Exception):
    """Thrown into a process that is interrupted while waiting.

    The ``cause`` attribute carries whatever the interrupter supplied.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot condition that processes can wait on.

    Events are the kernel's only synchronization primitive; resources,
    locks and message stores are all built from them.

    Waiter storage is flattened for the single-waiter common case: the
    first waiter occupies the ``_waiter`` slot and only a second
    concurrent waiter allocates the ``_waiters`` overflow list (FIFO
    order is ``_waiter`` first, then ``_waiters``).  Callbacks likewise
    allocate their list lazily.  A resource wait is the hot allocation
    of the whole simulator, and most events never see a second waiter
    or any callback.
    """

    __slots__ = ("sim", "_waiter", "_waiters", "triggered", "value",
                 "_callbacks")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self._waiter: Optional[Process] = None
        self._waiters: Optional[list[Process]] = None
        self._callbacks: Optional[list[Callable[[Any], None]]] = None
        self.triggered = False
        self.value: Any = None

    def trigger(self, value: Any = None) -> None:
        """Fire the event, resuming every waiter at the current time."""
        if self.triggered:
            raise SimulationError("event triggered twice")
        self.triggered = True
        self.value = value
        ready = self.sim._ready
        w = self._waiter
        if w is not None:
            self._waiter = None
            if w._waiting_on is self:
                w._waiting_on = None
                ready.append(w if value is None else (w, value, None))
        ws = self._waiters
        if ws is not None:
            self._waiters = None
            if value is None:
                for proc in ws:
                    if proc._waiting_on is self:
                        proc._waiting_on = None
                        ready.append(proc)
            else:
                for proc in ws:
                    if proc._waiting_on is self:
                        proc._waiting_on = None
                        ready.append((proc, value, None))
        cbs = self._callbacks
        if cbs is not None:
            self._callbacks = None
            for cb in cbs:
                cb(value)

    def add_callback(self, fn: Callable[[Any], None]) -> None:
        """Run ``fn(value)`` when the event fires (immediately if fired)."""
        if self.triggered:
            fn(self.value)
        elif self._callbacks is None:
            self._callbacks = [fn]
        else:
            self._callbacks.append(fn)

    def _subscribe(self, proc: "Process") -> bool:
        """Register ``proc`` as a waiter.  Returns False if already fired."""
        if self.triggered:
            return False
        # Once the overflow list exists it stays authoritative for
        # arrival order: appending there even when ``_waiter`` is free
        # (after an interrupt removed the head waiter) prevents a later
        # subscriber from jumping the queue.
        if self._waiters is not None:
            self._waiters.append(proc)
        elif self._waiter is None:
            self._waiter = proc
        else:
            self._waiters = [proc]
        proc._waiting_on = self
        return True

    def _remove_waiter(self, proc: "Process") -> None:
        if self._waiter is proc:
            self._waiter = None
        elif self._waiters is not None:
            try:
                self._waiters.remove(proc)
            except ValueError:
                pass


class Process:
    """A running generator inside the simulation."""

    __slots__ = ("sim", "_gen", "finished", "result", "_done_event",
                 "_waiting_on", "name", "_timeout_key")

    def __init__(self, sim: "Simulator", gen: Generator, name: str = ""):
        self.sim = sim
        self._gen = gen
        self.finished = False
        self.result: Any = None
        self._done_event: Optional[Event] = None
        # What the process currently waits on: an Event, the string
        # "timeout", or None while on the ready queue / running.
        self._waiting_on: Any = None
        self._timeout_key: Optional[int] = None
        self.name = name or getattr(gen, "__name__", "process")

    @property
    def done_event(self) -> Event:
        """Event fired (with the return value) when the process finishes."""
        if self._done_event is None:
            self._done_event = Event(self.sim)
            if self.finished:
                self._done_event.trigger(self.result)
        return self._done_event

    def interrupt(self, cause: Any = None) -> bool:
        """Throw :class:`Interrupt` into the process at the current time.

        Returns False (and does nothing) if the process cannot be
        interrupted right now: it already finished, or it sits on the
        ready queue about to run.
        """
        if self.finished:
            return False
        waiting = self._waiting_on
        if waiting is None:
            return False
        if isinstance(waiting, Event):
            waiting._remove_waiter(self)
        elif waiting.__class__ is CpuGrant:
            if waiting._timeout_key is not None:
                # Running: the job's slice/batch entry goes stale; the
                # core is given back by Cpu._execute's handler when the
                # Interrupt reaches the process.
                self.sim._cancel_timeout(waiting)
            elif waiting.granted:
                # The slot was already handed over: the process is
                # logically on the ready queue (its grant marker), which
                # matches an Event-granted waiter sitting in the ready
                # queue -- not interruptible at this instant.
                return False
            else:
                waiting.cpu._res._queue.remove(waiting)
        elif waiting == "timeout":
            self.sim._cancel_timeout(self)
        self._waiting_on = None
        self.sim._ready.append((self, None, Interrupt(cause)))
        return True

    def _finish(self, value: Any) -> None:
        self.finished = True
        self.result = value
        if self._done_event is not None and not self._done_event.triggered:
            self._done_event.trigger(value)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "done" if self.finished else "running"
        return f"<Process {self.name} {state}>"


class Delay:
    """Explicit delay waitable; ``yield Delay(t)`` equals ``yield t``."""

    __slots__ = ("seconds",)

    def __init__(self, seconds: float):
        self.seconds = seconds


class At:
    """Absolute-time waitable: ``yield At(t)`` sleeps until time ``t``.

    The kernel reads ``time`` synchronously when the yield is processed,
    so a single mutable instance may be reused across yields.
    """

    __slots__ = ("time",)

    def __init__(self, time: float):
        self.time = time


class CpuGrant:
    """One ``Cpu.execute`` demand, parked in the kernel until it is done.

    A process whose demand is contended or longer than a quantum yields
    a ``CpuGrant`` once and is not resumed until the whole demand has
    run.  The job is *queued* on the core's run queue (``granted``
    False), *marker-pending* (``granted`` True: the slot was handed over
    through a ``(None, job, None)`` ready-queue entry that lets the CPU
    arm the first slice at the exact cascade position the granted
    process's resume would occupy) or *running* (``_timeout_key`` set:
    the job owns the slice-end / batch-end calendar entry, cancelled
    lazily like a process timeout).  When that entry pops the kernel
    calls ``cpu._slice_end(job)`` instead of resuming a generator; every
    resume elided this way is credited to ``events_processed``.
    """

    __slots__ = ("cpu", "proc", "remaining", "slice", "granted",
                 "_timeout_key")

    def __init__(self, cpu, proc, remaining: float):
        self.cpu = cpu
        self.proc = proc
        self.remaining = remaining
        self.slice = 0.0
        self.granted = False
        self._timeout_key: Optional[int] = None


class _TimeoutTrigger:
    """Closure-free callback for :meth:`Simulator.timeout_event`."""

    __slots__ = ("ev",)

    def __init__(self, ev: Event):
        self.ev = ev

    def __call__(self) -> None:
        ev = self.ev
        if not ev.triggered:
            ev.trigger(None)


class Simulator:
    """The event loop: owns virtual time, the calendar queue, and the
    ready queue.

    Timed entries are 5-tuples ``(time, seq, fn, proc, sched_time)``:
    scheduled callbacks carry ``fn`` (never cancelled), process timeouts
    carry ``proc`` (a :class:`Process`, or the :class:`CpuGrant` job a
    CPU is running).  Timeout cancellation is *lazy*: cancelling only
    clears ``proc._timeout_key``, and the stale entry is skipped when it
    eventually surfaces -- no set bookkeeping and no heap scans on the
    hot path.  ``_live`` counts non-stale pending entries so
    :meth:`quiescent` is O(1): it goes up on push, down on cancel and on
    popping a live entry (never on popping a stale one).

    Ready-queue entries are flattened: a bare :class:`Process` means
    "resume with value None and no exception" (the overwhelmingly common
    case); only resumes carrying a value or an exception allocate a
    ``(proc, value, exc)`` tuple.
    """

    __slots__ = ("now", "_seq", "_ready", "_nproc", "_current",
                 "events_processed", "tracer",
                 "_active", "_far", "_far_idx", "_cur_bucket",
                 "_inv_width", "_live", "_batch_cpus", "_root_sched",
                 "_run_ahead")

    #: Default calendar bucket width (seconds), a power of two.  Wide
    #: enough that a push one CPU quantum (1 ms) ahead lands in the
    #: active heap and a bucket holds tens of entries when it is
    #: heapified; narrow enough that think-time sleeps (seconds) still
    #: take the O(1) far path.  Chosen by sweep over the three sim-*
    #: workloads; the table is in DESIGN.md section 10.
    BUCKET_WIDTH = 2.0 ** -6

    def __init__(self, bucket_width: float = BUCKET_WIDTH) -> None:
        if bucket_width <= 0:
            raise SimulationError(
                f"bucket width must be positive, got {bucket_width}")
        self.now: float = 0.0
        self._seq = 0
        self._ready: deque = deque()
        self._nproc = 0
        self._current: Optional[Process] = None
        # Count of process resumptions -- the kernel's unit of work,
        # reported as events/sec by the perf harness.  The batched CPU
        # credits elided quantum wakeups here so the figure stays
        # comparable with the per-quantum kernel.
        self.events_processed = 0
        # Optional repro.obs.Tracer; instrumented components check
        # ``sim.tracer is not None`` and stay on the untouched hot path
        # when tracing is off.
        self.tracer = None
        # Calendar queue state.
        self._active: list = []          # heap: entries in buckets <= cur
        self._far: dict[int, list] = {}  # bucket idx -> unsorted entries
        self._far_idx: list[int] = []    # heap of far bucket indices
        self._cur_bucket = 0
        self._inv_width = 1.0 / bucket_width
        self._live = 0
        # CPUs with possibly in-flight batched time slices; see
        # finalize_events().
        self._batch_cpus: list = []
        # Push time of the timed entry whose cascade is currently
        # executing.  Calendar pops are ordered by (time, seq) and seq
        # is monotone in push time, so comparing push times decides
        # which of two same-time entries a heap kernel would run first
        # -- the batched CPU uses this to replicate per-quantum
        # tie-breaking when a competitor queues exactly at a slice
        # boundary (see machine.cpu.Cpu._on_contention).
        self._root_sched = 0.0
        # How far ``now`` may be advanced past the calendar (run()'s
        # run-ahead timeouts, Cpu._slice_end's fold): the ``until`` of
        # the enclosing run(), and "not at all" outside it, so step()
        # and run_all() advance exactly one timed entry per call.
        self._run_ahead = -_INF

    @property
    def current_process(self) -> Optional["Process"]:
        """The process whose generator is executing right now (None when
        the kernel itself runs, e.g. inside a scheduled callback)."""
        return self._current

    # -- low level scheduling ------------------------------------------------

    def _push(self, time: float, key: int, fn, proc) -> None:
        # The 5th element records the push time; ``key`` is unique so it
        # never participates in heap comparisons.
        b = int(time * self._inv_width)
        if b <= self._cur_bucket:
            heapq.heappush(self._active, (time, key, fn, proc, self.now))
        else:
            lst = self._far.get(b)
            if lst is None:
                self._far[b] = [(time, key, fn, proc, self.now)]
                heapq.heappush(self._far_idx, b)
            else:
                lst.append((time, key, fn, proc, self.now))

    def _peek_live(self) -> Optional[tuple]:
        """The earliest live calendar entry, left in place at the top of
        ``_active`` (None when nothing live is pending).  Stale -- lazily
        cancelled -- tops are discarded on the way, which no one can
        observe, and the next far bucket is activated when the active
        heap is empty, which replaces the ``_active`` list."""
        while True:
            active = self._active
            while active:
                top = active[0]
                proc = top[3]
                if proc is None or proc._timeout_key == top[1]:
                    return top
                heapq.heappop(active)
            if not self._far_idx:
                return None
            self._cur_bucket = b = heapq.heappop(self._far_idx)
            self._active = active = self._far.pop(b)
            heapq.heapify(active)

    def schedule(self, delay: float, fn: Callable[[], None]) -> None:
        """Run ``fn()`` after ``delay`` virtual seconds."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay!r}")
        key = self._seq = self._seq + 1
        self._live += 1
        self._push(self.now + delay, key, fn, None)

    def event(self) -> Event:
        """Create a fresh untriggered :class:`Event`."""
        return Event(self)

    def timeout_event(self, delay: float) -> Event:
        """An event that fires automatically after ``delay`` seconds."""
        ev = Event(self)
        self.schedule(delay, _TimeoutTrigger(ev))
        return ev

    # -- processes -----------------------------------------------------------

    def spawn(self, gen: Generator, name: str = "") -> Process:
        """Start a generator as a process at the current time."""
        if not isinstance(gen, Generator):
            raise SimulationError(f"spawn() needs a generator, got {type(gen)!r}")
        proc = Process(self, gen, name)
        self._nproc += 1
        self._ready.append(proc)
        return proc

    def _schedule_timeout(self, delay: float, proc: Process) -> None:
        time = self.now + delay
        if time < self.now:     # the same test as run()'s inlined branch
            raise SimulationError(f"negative delay: {delay!r}")
        key = self._seq = self._seq + 1
        proc._waiting_on = "timeout"
        proc._timeout_key = key
        self._live += 1
        self._push(time, key, None, proc)

    def _schedule_timeout_at(self, time: float, proc: Process) -> None:
        if time < self.now:
            raise SimulationError(
                f"At({time!r}) is in the past (now={self.now!r})")
        key = self._seq = self._seq + 1
        proc._waiting_on = "timeout"
        proc._timeout_key = key
        self._live += 1
        self._push(time, key, None, proc)

    def _cancel_timeout(self, proc: Process) -> None:
        # Lazy deletion: the calendar entry stays put; clearing the key
        # makes it stale, and the pop path skips it.
        if proc._timeout_key is not None:
            proc._timeout_key = None
            self._live -= 1

    def _resume(self, proc: Process, value: Any, exc: Optional[BaseException]) -> None:
        self.events_processed += 1
        gen = proc._gen
        prev = self._current
        self._current = proc
        try:
            if exc is not None:
                target = gen.throw(exc)
            else:
                target = gen.send(value)
        except StopIteration as stop:
            proc._finish(stop.value)
            return
        finally:
            self._current = prev
        self._wait_on(proc, target)

    def _wait_on(self, proc: Process, target: Any) -> None:
        # Exact-type checks first: yields are overwhelmingly plain floats
        # (service times) and Events, and ``type(x) is C`` beats
        # isinstance() on this path.  The isinstance() fallbacks keep
        # subclass and bool yields working.
        tcls = type(target)
        if tcls is float or tcls is int:
            self._schedule_timeout(target, proc)
        elif tcls is Event:
            if not target._subscribe(proc):
                # Already triggered: resume with its value immediately.
                value = target.value
                self._ready.append(proc if value is None
                                   else (proc, value, None))
        elif tcls is CpuGrant:
            # Parked for a whole CPU demand; Cpu._slice_end puts the
            # process on the ready queue when the demand is finished.
            proc._waiting_on = target
        elif tcls is Process:
            ev = target.done_event
            if not ev._subscribe(proc):
                value = ev.value
                self._ready.append(proc if value is None
                                   else (proc, value, None))
        elif tcls is Delay:
            self._schedule_timeout(target.seconds, proc)
        elif tcls is At:
            self._schedule_timeout_at(target.time, proc)
        elif isinstance(target, (int, float)):
            self._schedule_timeout(target, proc)
        elif isinstance(target, Event):
            if not target._subscribe(proc):
                value = target.value
                self._ready.append(proc if value is None
                                   else (proc, value, None))
        elif isinstance(target, Process):
            ev = target.done_event
            if not ev._subscribe(proc):
                value = ev.value
                self._ready.append(proc if value is None
                                   else (proc, value, None))
        elif isinstance(target, Delay):
            self._schedule_timeout(target.seconds, proc)
        elif isinstance(target, At):
            self._schedule_timeout_at(target.time, proc)
        else:
            raise SimulationError(f"process yielded unsupported value {target!r}")

    # -- main loop -----------------------------------------------------------

    def _drain_ready(self) -> None:
        ready = self._ready
        popleft = ready.popleft
        resume = self._resume
        while ready:
            entry = popleft()
            if entry.__class__ is tuple:
                proc, value, exc = entry
                if proc is None:
                    # (None, grant, None): a CPU slot hand-off marker.
                    value.cpu._deliver_grant(value)
                    continue
            else:
                proc = entry
                value = exc = None
            if not proc.finished:
                resume(proc, value, exc)

    def step(self) -> bool:
        """Advance past the next timed entry.  Returns False when idle."""
        self._drain_ready()
        # Stale timeout entries -- the process was interrupted (its
        # pending timeout cancelled lazily) or has moved on to a newer
        # wait; a finished process always has a cleared key -- are
        # skipped without advancing ``now``, which keeps
        # interrupt-during-timeout deterministic.
        if self._peek_live() is None:
            return False
        time, key, fn, proc, sched = heapq.heappop(self._active)
        self._live -= 1
        self.now = time
        self._root_sched = sched
        if proc is None:
            fn()
        else:
            proc._timeout_key = None
            if proc.__class__ is CpuGrant:
                proc.cpu._slice_end(proc)
            else:
                proc._waiting_on = None
                self._resume(proc, None, None)
        self._drain_ready()
        return True

    def run(self, until: Optional[float] = None) -> float:
        """Run until the calendar empties or virtual time reaches ``until``.

        This is the simulator's hottest loop: the resume logic is inlined
        (one copy, fed by either the ready queue or a popped timed entry)
        with the queues and bound methods held in locals, and the
        float-timeout reschedule -- the dominant yield -- goes straight
        into the calendar without a method call, or past it.
        """
        if until is not None and until < self.now:
            raise SimulationError(
                f"run(until={until!r}) is in the past (now={self.now!r})")
        ready = self._ready
        popleft = ready.popleft
        heappush = heapq.heappush
        heappop = heapq.heappop
        heapify = heapq.heapify
        far = self._far
        far_idx = self._far_idx
        inv_width = self._inv_width
        wait_on = self._wait_on
        active = self._active
        events = 0
        self._run_ahead = run_ahead = _INF if until is None else until
        try:
            while True:
                if ready:
                    entry = popleft()
                    if entry.__class__ is tuple:
                        proc, value, exc = entry
                        if proc is None:
                            # (None, grant, None): a CPU slot hand-off
                            # marker.  The CPU arms the waiter's slice
                            # timeout here -- the exact cascade position
                            # where the granted process's resume would
                            # have run -- so seq order is unchanged.
                            value.cpu._deliver_grant(value)
                            continue
                    else:
                        proc = entry
                        value = exc = None
                    if proc.finished:
                        continue
                else:
                    # Timed phase: activate / pop the next calendar entry.
                    if not active:
                        if not far_idx:
                            break
                        b = heappop(far_idx)
                        self._cur_bucket = b
                        active = far.pop(b)
                        heapify(active)
                        self._active = active
                    if until is not None and active[0][0] > until:
                        self.now = until
                        return until
                    time, key, fn, tproc, sched = heappop(active)
                    if tproc is not None:
                        if tproc._timeout_key != key:
                            continue           # stale (lazily cancelled)
                        self._live -= 1
                        self.now = time
                        self._root_sched = sched
                        tproc._timeout_key = None
                        if tproc.__class__ is CpuGrant:
                            # A running CPU job's slice or batch is
                            # due: the run queue advances here, with no
                            # generator resumed -- possibly over several
                            # slices, and _peek_live may have activated
                            # a far bucket on the way.
                            tproc.cpu._slice_end(tproc)
                            active = self._active
                            continue
                        tproc._waiting_on = None
                        proc = tproc
                        value = exc = None
                    else:
                        self._live -= 1
                        self.now = time
                        self._root_sched = sched
                        fn()
                        continue
                # Resume ``proc`` (inlined _resume) -- again and again
                # while it asks for plain timeouts nothing can precede.
                gen = proc._gen
                while True:
                    events += 1
                    self._current = proc
                    try:
                        if exc is None:
                            target = gen.send(value)
                        else:
                            target = gen.throw(exc)
                    except StopIteration as stop:
                        self._current = None
                        proc._finish(stop.value)
                        break
                    except BaseException:
                        self._current = None
                        raise
                    self._current = None
                    tcls = target.__class__
                    if tcls is not float and tcls is not int:
                        wait_on(proc, target)
                        break
                    # Inlined _schedule_timeout + calendar push.
                    now = self.now
                    t = now + target
                    if t < now:
                        raise SimulationError(f"negative delay: {target!r}")
                    key = self._seq = self._seq + 1
                    if (t < active[0][0] if active else
                            not far_idx or int(t * inv_width) < far_idx[0]
                            ) and not ready and t <= run_ahead:
                        # Run-ahead timeout: strictly the earliest
                        # entry (a tie has the older seq; a stale top
                        # only makes the test conservative), nothing
                        # ready, inside run()'s horizon -- it would be
                        # pushed now and popped next, so it is neither.
                        self._root_sched = now
                        self.now = t
                        value = exc = None
                        continue
                    proc._waiting_on = "timeout"
                    proc._timeout_key = key
                    self._live += 1
                    b = int(t * inv_width)
                    if b <= self._cur_bucket:
                        heappush(active, (t, key, None, proc, now))
                    else:
                        lst = far.get(b)
                        if lst is None:
                            far[b] = [(t, key, None, proc, now)]
                            heappush(far_idx, b)
                        else:
                            lst.append((t, key, None, proc, now))
                    break
        finally:
            self.events_processed += events
            self._run_ahead = -_INF
        if until is not None and self.now < until:
            self.now = until
        return self.now

    def finalize_events(self) -> None:
        """Fold any in-flight batched CPU time slices up to ``now`` so
        ``events_processed`` matches what the per-quantum kernel would
        have counted.  Harnesses call this before reading the counter;
        it is idempotent and leaves live batches running."""
        for cpu in self._batch_cpus:
            cpu._finalize_batch()

    def quiescent(self) -> bool:
        """True when nothing is pending: an empty ready queue and no live
        calendar entries (lazily-cancelled/stale timeout entries don't
        count -- ``_live`` excludes them, so this is O(1)).

        This covers *scheduled* work only -- a process parked on an Event
        that nothing will ever trigger occupies neither queue, so the
        resilience tests pair this with per-process ``finished`` checks
        and the site's lock-hygiene assertions.
        """
        return not self._ready and self._live == 0

    def run_all(self, procs: Iterable[Process], until: Optional[float] = None) -> float:
        """Run until every process in ``procs`` has finished.

        Completion is tracked by a count-down callback on each process's
        ``done_event`` rather than re-scanning the process list every
        step, so large closed-loop populations don't pay O(N^2).
        """
        plist = [p for p in procs if not p.finished]
        remaining = [len(plist)]

        def _one_done(_value: Any) -> None:
            remaining[0] -= 1

        for p in plist:
            p.done_event.add_callback(_one_done)
        while remaining[0] > 0:
            if not self.step():
                unfinished = [p.name for p in plist if not p.finished]
                if unfinished:
                    raise SimulationError(f"deadlock: {unfinished[:5]} never finished")
                break
            if until is not None and self.now > until:
                raise SimulationError("run_all exceeded time bound")
        return self.now
