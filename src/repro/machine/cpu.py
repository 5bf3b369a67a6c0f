"""A round-robin time-slicing CPU with busy-time accounting.

Jobs longer than one quantum are preempted and requeued, approximating
the processor sharing a real OS scheduler provides.  This matters for
the lock results: a 2 ms UPDATE that holds a MyISAM table lock must not
sit behind a full one-second best-sellers aggregation before running --
on real hardware both progress together and the lock is released in
milliseconds.  Short jobs (demand <= quantum, the common case) take the
fast non-preempting path.  A ``speed`` factor scales demands so machines
of different clock rates can share calibrated service demands.

Batched time slicing: when a multi-quantum job runs *alone* on the core,
the per-quantum wakeups are pure overhead -- every slice ends with the
same process re-acquiring the same idle core.  The batched path parks a
single wakeup at the job's completion time and advances the whole
remaining demand in one event.  The moment a competitor queues on the
core (``_on_contention``), the wakeup is pulled forward to the *current
quantum boundary* and the job falls back to per-quantum alternation --
so preemption latency is exactly what the per-quantum scheduler
delivers.

Kernel-resident run queue: a process whose demand is contended or longer
than a quantum parks *once*, on a pooled ``CpuGrant`` job, and the job
-- not the process -- owns the slice-end / batch-end calendar entry.
When it pops, the kernel calls ``_slice_end(job)``, which rotates the
run queue exactly as the per-quantum loop's woken process would, and the
generator is resumed only when its whole demand has run.

Bit-for-bit equivalence with the per-quantum loop is maintained by
replaying its exact float arithmetic: completion times are the same
left-fold ``t = (..(t0 + q) + q ..) + rem`` the slice loop computes
(float addition is not associative, so ``t0 + n*q`` would differ in the
last bit), busy time is accumulated slice by slice in the same order,
and ``sim.events_processed`` is credited for every elided quantum wakeup
so the events/sec figure stays comparable across kernels.
"""

from __future__ import annotations

from repro.sim.kernel import CpuGrant, Simulator
from repro.sim.resources import Resource

DEFAULT_QUANTUM = 0.001


class Cpu:
    """One processor; ``speed`` is relative to the paper's 1.33 GHz box."""

    __slots__ = ("sim", "speed", "quantum", "_res", "_busy_accum",
                 "_busy_since", "name",
                 "_batch_t", "_batch_rem", "_batch_end", "_batch_folded",
                 "_batch_flushed", "_batch_preempt", "_batch_job",
                 "_batch_requeued", "_grant_pool")

    def __init__(self, sim: Simulator, speed: float = 1.0, name: str = "cpu",
                 quantum: float = DEFAULT_QUANTUM):
        if speed <= 0:
            raise ValueError(f"cpu speed must be positive, got {speed}")
        if quantum <= 0:
            raise ValueError(f"cpu quantum must be positive, got {quantum}")
        self.sim = sim
        self.speed = speed
        self.quantum = quantum
        self._res = Resource(sim, capacity=1, name=name)
        self._busy_accum = 0.0
        self._busy_since: float | None = None
        self.name = name
        # Batched-slice state: ``_batch_t`` is the start time of the
        # first *unfolded* slice (None when no batch is in flight),
        # ``_batch_rem`` the remaining demand at that point.  Folding
        # replays completed slices up to a given time; ``_batch_folded``
        # counts slices folded so far (each one is an elided kernel
        # event) and ``_batch_flushed`` how many of those have already
        # been credited to ``sim.events_processed``;
        # ``_batch_requeued`` counts wakes re-pushed behind a tied
        # cascade (credited when they ran, so subtracted at the end).
        self._batch_t: float | None = None
        self._batch_rem = 0.0
        self._batch_end = 0.0
        self._batch_folded = 0
        self._batch_flushed = 0
        self._batch_preempt = False
        self._batch_job = None
        self._batch_requeued = 0
        self._grant_pool: list = []
        sim._batch_cpus.append(self)

    @property
    def queue_length(self) -> int:
        return self._res.queue_length

    @property
    def busy(self) -> bool:
        return self._res.in_use > 0

    def busy_time(self) -> float:
        """Total virtual seconds this CPU has been executing so far."""
        if self._batch_t is not None:
            self._fold_to(self.sim.now, strict=self._batch_preempt)
        accum = self._busy_accum
        if self._busy_since is not None:
            accum += self.sim.now - self._busy_since
        return accum

    def execute(self, demand_seconds: float):
        """Process-style: run ``demand_seconds`` of work, preempted every
        quantum if longer.

        Usage: ``yield from cpu.execute(0.005)``.

        With a tracer attached to the simulator and a request in flight,
        the execution is wrapped in a cpu span whose ``demand`` metadata
        carries the deterministic execution time (demand/speed); the
        span's wall time additionally includes run-queue waits, so
        attribution can split service time from CPU queueing.
        """
        tracer = self.sim.tracer
        if tracer is not None:
            rc = tracer.current()
            if rc is not None:
                return self._execute_traced(demand_seconds, rc)
        return self._execute(demand_seconds)

    def _execute_traced(self, demand_seconds: float, rc):
        span = rc.push(self.name, "cpu", self.name.rsplit(".", 1)[0],
                       meta={"demand": demand_seconds / self.speed})
        try:
            yield from self._execute(demand_seconds)
        finally:
            rc.pop(span)

    def _execute(self, demand_seconds: float):
        if demand_seconds < 0:
            raise ValueError(f"negative CPU demand: {demand_seconds}")
        remaining = demand_seconds / self.speed
        sim = self.sim
        res = self._res
        # try_acquire() first: an idle core is the common case on every
        # grid point below saturation.
        idle = res.try_acquire()
        if idle:
            if self._busy_since is None:
                self._busy_since = sim.now
            if remaining <= self.quantum:
                # Fits one quantum on an idle core: a plain timeout.
                try:
                    yield remaining
                except BaseException:
                    # Interrupted mid-slice: the slot must not stay busy.
                    self._release()
                    raise
                self._release()
                return
        # Contended, or longer than a quantum: park once, for the whole
        # demand, on a job the kernel runs (see _slice_end).
        pool = self._grant_pool
        if pool:
            job = pool.pop()
            job.proc = sim._current
            job.remaining = remaining
        else:
            job = CpuGrant(self, sim._current, remaining)
        job.granted = idle
        if idle:
            # Alone on the core with multi-quantum demand: one wakeup at
            # the completion time instead of one per slice.
            self._start_batch(remaining, job)
            self._arm(job, self._batch_end)
        else:
            res._queue.append(job)
            self._on_contention()
        try:
            yield job
        except BaseException:
            # Interrupted (Process.interrupt already withdrew a queued
            # job or cancelled a running one's calendar entry): a job
            # that holds the core gives it back exactly as the
            # per-quantum loop would.
            if not job.granted:
                res.cancel(job)
            elif self._batch_t is not None:
                self._batch_abort()
            else:
                self._release()
            raise
        pool.append(job)

    def _arm(self, job: "CpuGrant", time: float) -> None:
        """Push ``job``'s slice-end / batch-end calendar entry."""
        sim = self.sim
        key = sim._seq = sim._seq + 1
        job._timeout_key = key
        sim._live += 1
        sim._push(time, key, None, job)

    def _slice_end(self, job: "CpuGrant") -> None:
        """Kernel callback: ``job``'s calendar entry popped.  Does,
        without resuming a generator, exactly what the per-quantum loop's
        process woken at this slice end (or batch wakeup) would do, with
        identical seq draws; the process itself is resumed only when its
        demand is finished.  Ordering rule 3: each time the callback
        stands in for such a resume it credits ``events_processed`` +1,
        so the batch arithmetic (``folded - flushed - 1 - requeued``,
        the per-quantum count) holds as if the wake were a resume;
        ``_batch_requeued`` is CPU state that ``_start_batch`` resets."""
        sim = self.sim
        queue = self._res._queue
        q = self.quantum
        if self._batch_t is None:
            rem = job.remaining - job.slice
        elif queue:
            # Batch woken at the pulled-forward quantum boundary with a
            # competitor waiting: the current slice ends here and --
            # matching the per-quantum release -- this busy span is NOT
            # folded (the busy period continues under the new holder).
            rem = self._batch_rem
            credit = (self._batch_folded - self._batch_flushed
                      - self._batch_requeued)
            if rem > 0.0:
                rem -= rem if rem <= q else q
            else:
                credit -= 1
            sim.events_processed += credit
            self._batch_t = None
        else:
            # Batch wake on an empty run queue.  The per-quantum
            # kernel's slice-end entry was pushed at the *slice's* start;
            # the batch wake was pushed at the *batch's* start and so
            # carries an older seq.  A same-time cascade scheduled in
            # between would pop before the slice end under the heap
            # kernel but after this wake -- requeue the wake with a
            # fresh seq to let that cascade (which may queue a
            # competitor) run first.
            now = sim.now
            self._fold_to(now, strict=True)
            tied = self._tied_cascade_before(self._batch_t)
            if tied:
                self._batch_requeued += 1
                self._batch_end = now
            else:
                self._fold_to(now)
                sim.events_processed += (self._batch_folded
                                         - self._batch_flushed - 1
                                         - self._batch_requeued)
                rem = self._batch_rem
                if rem > 0.0:
                    # Spurious boundary wake: the queued competitor was
                    # cancelled before its turn.  Resume batching from
                    # the fold point, which is ``now``.
                    self._start_batch(rem, job)
            if tied or rem > 0.0:
                sim.events_processed += 1
                self._arm(job, self._batch_end)
                return
            self._batch_t = None
        while True:
            if rem <= 0:
                # Demand finished.  Ordering rule 1: the process goes on
                # the ready queue *before* _release() posts the next
                # grant's marker, so it still runs ahead of that grant's
                # seq draw.
                job.proc._waiting_on = None
                sim._ready.append(job.proc)
                self._release()
                return
            job.remaining = rem
            now = sim.now
            if not queue:
                break
            # Ordering rule 2: hand-off with demand left.  The head is
            # popped before the job re-joins the tail, and its grant is
            # delivered in this callback (the ready queue is empty on a
            # timed pop, so the marker would be next anyway).  The queue
            # is then non-empty, so the head can never start a batch:
            # this is _deliver_grant's slice arm, inlined -- the hottest
            # path of a saturated core.
            head = queue.popleft()
            job.granted = False
            queue.append(job)
            s = head.remaining
            if s > q:
                s = q
            head.slice = s
            head.granted = True
            key = sim._seq = sim._seq + 1
            # Two resumes elided: the slice-end wake and the head's grant.
            sim.events_processed += 2
            t = now + s
            if t <= sim._run_ahead:
                top = sim._peek_live()
                if top is None or t < top[0]:
                    # Run-ahead fold: the head's slice end is strictly
                    # the earliest live entry (a tie has the older seq
                    # and must pop first) inside run()'s horizon, so
                    # nothing can observe the interval.  The seq and the
                    # events are drawn as if the entry had been pushed
                    # at ``now`` and popped at ``t``; rotate again.
                    sim._root_sched = now
                    sim.now = t
                    job = head
                    rem = head.remaining - s
                    continue
            head._timeout_key = key
            sim._live += 1
            sim._push(t, key, None, head)
            return
        # Alone: the per-quantum loop releases to idle and regrants the
        # core to the same process at the same instant.
        self._busy_accum += now - self._busy_since
        self._busy_since = now
        self._deliver_grant(job)

    def _start_batch(self, remaining: float, job: "CpuGrant") -> None:
        """Arm batched-slice state at the current time (slot held, empty
        run queue): the batch cursor, and the completion time as the
        exact left-fold the per-quantum loop would compute, one slice at
        a time."""
        sim = self.sim
        q = self.quantum
        self._batch_t = sim.now
        self._batch_rem = remaining
        self._batch_folded = 0
        self._batch_flushed = 0
        self._batch_preempt = False
        self._batch_job = job
        self._batch_requeued = 0
        t = sim.now
        rem = remaining
        while rem > q:
            t = t + q
            rem = rem - q
        self._batch_end = t + rem

    def _batch_abort(self) -> None:
        """Exception cleanup for an interrupted batch: fold the slices
        that completed before now (crediting their elided wakeups), then
        release exactly as the per-quantum loop would."""
        self._fold_to(self.sim.now, strict=self._batch_preempt)
        self.sim.events_processed += (self._batch_folded - self._batch_flushed
                                      - self._batch_requeued)
        self._batch_t = None
        self._release()

    def _deliver_grant(self, g: "CpuGrant") -> None:
        """Ready-queue marker handler: the slot was handed to ``g`` at
        the current time.  Runs at the exact cascade position the
        granted process's resume would have occupied and does what its
        code up to the next yield would have done -- size the slice (or
        arm a batch) and push the timeout, with identical seq assignment
        -- then credits the elided resume.  The busy span is already
        open: a hand-off never closes it."""
        sim = self.sim
        rem = g.remaining
        q = self.quantum
        if rem > q and not self._res._queue:
            self._start_batch(rem, g)
            self._arm(g, self._batch_end)
        else:
            g.slice = s = rem if rem <= q else q
            self._arm(g, sim.now + s)
        sim.events_processed += 1

    def _fold_to(self, upto: float, strict: bool = False) -> None:
        """Replay the per-quantum slice loop (no events) up to ``upto``:
        advance the batch cursor slice by slice, accumulating busy time
        in the exact order the per-quantum release path would.  With
        ``strict`` a slice ending exactly at ``upto`` is left unfolded
        (it belongs to a pending preemption hand-off)."""
        t = self._batch_t
        rem = self._batch_rem
        q = self.quantum
        accum = self._busy_accum
        since = self._busy_since
        folded = self._batch_folded
        while rem > 0.0:
            s = rem if rem <= q else q
            t2 = t + s
            if t2 > upto or (strict and t2 == upto):
                break
            # Per-quantum: release-to-idle accumulates now - busy_since,
            # then the same-timestamp reacquire restarts the busy span.
            accum += t2 - since
            since = t2
            t = t2
            rem = rem - s
            folded += 1
        self._batch_t = t
        self._batch_rem = rem
        self._busy_accum = accum
        self._busy_since = since
        self._batch_folded = folded

    def _tied_cascade_before(self, slice_start: float) -> bool:
        """True when the next calendar entry fires at exactly ``now`` and
        was pushed before ``slice_start`` -- i.e. the heap kernel would
        run its cascade before the current slice's end wakeup (a stale
        tied entry cannot mask a live one: _peek_live discards it)."""
        top = self.sim._peek_live()
        return (top is not None and top[0] == self.sim.now
                and top[4] < slice_start)

    def _on_contention(self) -> None:
        """A competitor just queued.  Pull the parked wakeup forward to
        the current quantum boundary so the batch preempts exactly where
        the per-quantum scheduler would."""
        if self._batch_t is None or self._batch_preempt:
            return
        job = self._batch_job
        if job._timeout_key is None:
            # A pending interrupt already cancelled the wakeup; the
            # process's exception handler will clean up and release.
            return
        sim = self.sim
        self._fold_to(sim.now, strict=True)
        q = self.quantum
        rem = self._batch_rem
        boundary = self._batch_t + (rem if rem <= q else q)
        if boundary == sim.now and rem > q and \
                sim._root_sched >= self._batch_t:
            # The competitor queued exactly at the current slice's end.
            # In the per-quantum kernel the slice-end wakeup was pushed
            # at the slice's *start*, so when the competitor's cascade
            # root was scheduled no earlier than that, the slice-end
            # entry has the older seq and pops first: it sees an empty
            # run queue, re-grants the idle core, and runs one more
            # slice before handing off.  Replicate that by folding the
            # tied slice (release-to-idle + same-time regrant) and
            # preempting one slice later.
            self._fold_to(sim.now)
            rem = self._batch_rem
            boundary = self._batch_t + (rem if rem <= q else q)
        # Re-key the job's entry: the old one goes stale (lazy
        # cancellation) and its ``_live`` count transfers to the new.
        key = sim._seq = sim._seq + 1
        job._timeout_key = key
        sim._push(boundary, key, None, job)
        self._batch_end = boundary
        self._batch_preempt = True

    def _finalize_batch(self) -> None:
        """Credit elided wakeups for slices completed so far (phase
        boundaries read ``events_processed`` while batches are parked
        across them); the batch itself keeps running."""
        if self._batch_t is None:
            return
        self._fold_to(self.sim.now, strict=self._batch_preempt)
        self.sim.events_processed += self._batch_folded - self._batch_flushed
        self._batch_flushed = self._batch_folded

    def _release(self) -> None:
        # Inlined Resource.release() (the CPU always holds its slot here,
        # so the idle-release guard is vacuous): hand off to the queue
        # head, or free the slot and close the busy span.
        res = self._res
        queue = res._queue
        if queue:
            # Hand-off: in_use is unchanged and the busy period
            # continues under the new holder.
            w = queue.popleft()
            w.granted = True
            self.sim._ready.append((None, w, None))
            return
        res.in_use -= 1
        if res.in_use == 0 and self._busy_since is not None:
            self._busy_accum += self.sim.now - self._busy_since
            self._busy_since = None
