"""Tests for the discrete-event kernel."""

import pytest

from repro.sim import Delay, Event, Interrupt, Simulator
from repro.sim.kernel import SimulationError


def _pending(sim):
    """Every timed entry still in the calendar: the active heap and the
    far buckets (in no particular order)."""
    return [*sim._active, *(e for bucket in sim._far.values() for e in bucket)]


def _live(entry):
    """A callback, or a timeout whose owner still claims its key."""
    proc = entry[3]
    return proc is None or proc._timeout_key == entry[1]


def test_time_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_schedule_callback_runs_at_time():
    sim = Simulator()
    fired = []
    sim.schedule(5.0, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [5.0]


def test_schedule_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-1.0, lambda: None)


@pytest.mark.parametrize("drive", ["run", "step"])
def test_process_negative_delay_rejected(drive):
    # A negative yield used to rewind the clock (``now`` ended at 0.5).
    sim = Simulator()

    def rewinder():
        yield 1.0
        yield -0.5
    sim.spawn(rewinder())
    with pytest.raises(SimulationError, match="negative delay: -0.5"):
        if drive == "run":
            sim.run()
        else:
            while sim.step():
                pass
    assert sim.now == 1.0
    assert sim.current_process is None


def test_callbacks_run_in_time_order():
    sim = Simulator()
    order = []
    sim.schedule(3.0, lambda: order.append("c"))
    sim.schedule(1.0, lambda: order.append("a"))
    sim.schedule(2.0, lambda: order.append("b"))
    sim.run()
    assert order == ["a", "b", "c"]


def test_same_time_callbacks_run_fifo():
    sim = Simulator()
    order = []
    for i in range(5):
        sim.schedule(1.0, lambda i=i: order.append(i))
    sim.run()
    assert order == [0, 1, 2, 3, 4]


def test_process_yield_delay():
    sim = Simulator()
    trace = []

    def proc():
        trace.append(sim.now)
        yield 2.5
        trace.append(sim.now)
        yield Delay(1.5)
        trace.append(sim.now)

    sim.spawn(proc())
    sim.run()
    assert trace == [0.0, 2.5, 4.0]


def test_process_return_value():
    sim = Simulator()

    def proc():
        yield 1.0
        return 99

    p = sim.spawn(proc())
    sim.run()
    assert p.finished
    assert p.result == 99


def test_process_waits_on_event_and_gets_value():
    sim = Simulator()
    got = []
    ev = sim.event()

    def waiter():
        value = yield ev
        got.append((sim.now, value))

    def firer():
        yield 3.0
        ev.trigger("payload")

    sim.spawn(waiter())
    sim.spawn(firer())
    sim.run()
    assert got == [(3.0, "payload")]


def test_waiting_on_already_triggered_event_resumes_immediately():
    sim = Simulator()
    ev = sim.event()
    ev.trigger(7)
    got = []

    def proc():
        value = yield ev
        got.append(value)

    sim.spawn(proc())
    sim.run()
    assert got == [7]


def test_event_double_trigger_raises():
    sim = Simulator()
    ev = sim.event()
    ev.trigger()
    with pytest.raises(SimulationError):
        ev.trigger()


def test_process_join():
    sim = Simulator()
    log = []

    def child():
        yield 5.0
        return "done"

    def parent():
        result = yield sim.spawn(child())
        log.append((sim.now, result))

    sim.spawn(parent())
    sim.run()
    assert log == [(5.0, "done")]


def test_join_already_finished_process():
    sim = Simulator()
    log = []

    def child():
        yield 1.0
        return 42

    child_proc = sim.spawn(child())

    def parent():
        yield 10.0
        result = yield child_proc
        log.append((sim.now, result))

    sim.spawn(parent())
    sim.run()
    assert log == [(10.0, 42)]


def test_interrupt_while_sleeping():
    sim = Simulator()
    log = []

    def sleeper():
        try:
            yield 100.0
        except Interrupt as exc:
            log.append((sim.now, exc.cause))

    victim = sim.spawn(sleeper())

    def killer():
        yield 2.0
        victim.interrupt("wake up")

    sim.spawn(killer())
    sim.run()
    assert log == [(2.0, "wake up")]


def test_interrupt_while_on_event():
    sim = Simulator()
    ev = sim.event()
    log = []

    def waiter():
        try:
            yield ev
        except Interrupt:
            log.append(sim.now)

    victim = sim.spawn(waiter())

    def killer():
        yield 1.0
        victim.interrupt()

    sim.spawn(killer())
    sim.run()
    assert log == [1.0]
    # The interrupted process must not be resumed again if the event fires.
    ev.trigger()
    sim.run()
    assert log == [1.0]


def test_interrupt_finished_process_is_noop():
    sim = Simulator()

    def proc():
        yield 1.0

    p = sim.spawn(proc())
    sim.run()
    p.interrupt()  # must not raise


def test_run_until_bound():
    sim = Simulator()
    fired = []
    sim.schedule(10.0, lambda: fired.append(1))
    sim.run(until=5.0)
    assert fired == []
    assert sim.now == 5.0
    sim.run()
    assert fired == [1]


def test_run_until_advances_time_even_with_empty_heap():
    sim = Simulator()
    sim.run(until=30.0)
    assert sim.now == 30.0


def test_run_until_in_the_past_is_rejected_and_the_clock_stays():
    sim = Simulator()
    sim.schedule(10.0, lambda: None)
    sim.run(until=7.0)
    with pytest.raises(SimulationError, match="in the past"):
        sim.run(until=3.0)
    assert sim.now == 7.0
    assert sim.run(until=7.0) == 7.0       # "until now" is a no-op


def test_spawn_rejects_non_generator():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.spawn(lambda: None)


def test_yield_bad_value_raises():
    sim = Simulator()

    def proc():
        yield "not a waitable"

    sim.spawn(proc())
    with pytest.raises(SimulationError):
        sim.run()


def test_run_all_detects_deadlock():
    sim = Simulator()
    ev = sim.event()

    def stuck():
        yield ev

    p = sim.spawn(stuck())
    with pytest.raises(SimulationError, match="deadlock"):
        sim.run_all([p])


def test_many_processes_fifo_and_flat_stack():
    sim = Simulator()
    ev = sim.event()
    order = []

    def waiter(i):
        yield ev
        order.append(i)

    for i in range(5000):
        sim.spawn(waiter(i))

    def firer():
        yield 1.0
        ev.trigger()

    sim.spawn(firer())
    sim.run()
    assert order == list(range(5000))


def test_nested_spawn_cascade():
    sim = Simulator()
    depth_reached = []

    def recurse(depth):
        if depth == 0:
            depth_reached.append(sim.now)
            return
        yield 1.0
        yield sim.spawn(recurse(depth - 1))

    sim.spawn(recurse(50))
    sim.run()
    assert depth_reached == [50.0]


def test_timeout_event_fires():
    sim = Simulator()
    ev = sim.timeout_event(4.0)
    seen = []

    def proc():
        yield ev
        seen.append(sim.now)

    sim.spawn(proc())
    sim.run()
    assert seen == [4.0]


# -- interrupt vs pending timeouts (regression: stale heap entries) -----------


def test_interrupt_during_timeout_resumes_exactly_once():
    """An interrupted sleeper's pending timeout is cancelled: it must not
    be woken a second time when the stale heap entry surfaces."""
    sim = Simulator()
    resumes = []

    def sleeper():
        try:
            yield 10.0
            resumes.append(("woke", sim.now))
        except Interrupt:
            resumes.append(("interrupted", sim.now))
            yield 1.0
            resumes.append(("slept-again", sim.now))

    proc = sim.spawn(sleeper())

    def killer():
        yield 2.0
        assert proc.interrupt("chaos")

    sim.spawn(killer())
    sim.run()
    assert resumes == [("interrupted", 2.0), ("slept-again", 3.0)]
    assert proc.finished
    # The stale 10 s entry was skipped without advancing virtual time.
    assert sim.now == 3.0


def test_stale_timeout_does_not_cut_a_newer_wait_short():
    sim = Simulator()
    wake = []

    def sleeper():
        try:
            yield 10.0
        except Interrupt:
            yield 20.0          # newer, longer wait
            wake.append(sim.now)

    proc = sim.spawn(sleeper())

    def killer():
        yield 2.0
        proc.interrupt()

    sim.spawn(killer())
    sim.run()
    # The dead 10 s entry must not wake the process at t=10.
    assert wake == [22.0]


def test_interrupt_of_completed_process_returns_false():
    sim = Simulator()

    def quick():
        yield 1.0

    proc = sim.spawn(quick())
    sim.run()
    assert proc.finished
    assert proc.interrupt("late") is False
    sim.run()
    assert sim.quiescent()


def test_interrupt_of_ready_process_returns_false():
    """A process sitting on the ready queue (spawned, not yet run) cannot
    take an interrupt -- callers get False and may re-arm."""
    sim = Simulator()

    def sleeper():
        yield 1.0

    proc = sim.spawn(sleeper())
    assert proc.interrupt("too-early") is False   # still on the ready queue
    sim.run()
    assert proc.finished


def test_quiescent_reflects_pending_and_stale_work():
    sim = Simulator()
    assert sim.quiescent()                        # fresh kernel

    def sleeper():
        try:
            yield 10.0
        except Interrupt:
            return

    proc = sim.spawn(sleeper())
    assert not sim.quiescent()                    # ready queue occupied
    sim.run(until=1.0)
    assert not sim.quiescent()                    # live timeout at t=10

    def killer():
        yield 2.0
        proc.interrupt()

    sim.spawn(killer())
    sim.run(until=5.0)
    assert proc.finished
    # The calendar still holds the sleeper's cancelled t=10 entry; it is
    # stale, so the kernel is quiescent anyway.
    assert [entry for entry in _pending(sim) if not _live(entry)]
    assert sim.quiescent()

    sim.schedule(1.0, lambda: None)
    assert not sim.quiescent()                    # real callback pending
    sim.run()
    assert sim.quiescent()


def test_cancelled_timeout_leaves_no_live_heap_entry():
    """Lazy deletion: interrupting a timed wait clears the process's
    timeout key, so the stale heap entry is skipped without resuming
    anyone and without perturbing virtual time ordering."""
    sim = Simulator()
    wakeups = []

    def sleeper():
        try:
            yield 100.0
        except Interrupt:
            wakeups.append(("interrupt", sim.now))

    proc = sim.spawn(sleeper())
    sim.schedule(1.0, lambda: proc.interrupt())
    sim.run(until=2.0)
    assert wakeups == [("interrupt", 1.0)]
    # The stale entry may still sit in the heap, but it is dead: no
    # process claims its key, so the kernel reports quiescence.
    assert proc._timeout_key is None
    assert not [entry for entry in _pending(sim) if _live(entry)]
    assert sim.quiescent()
    # Draining past the stale entry's deadline must not resume anything.
    before = sim.events_processed
    sim.run(until=200.0)
    assert sim.events_processed == before


def test_new_timeout_after_interrupt_ignores_stale_entry():
    """A process that re-sleeps after an interrupt gets a fresh key;
    the old heap entry popping first must not wake it early."""
    sim = Simulator()
    trace = []

    def sleeper():
        try:
            yield 50.0        # key A: deadline 50
        except Interrupt:
            trace.append(("interrupted", sim.now))
        yield 100.0           # key B: deadline 101, after stale A pops
        trace.append(("woke", sim.now))

    proc = sim.spawn(sleeper())
    sim.schedule(1.0, lambda: proc.interrupt())
    sim.run()
    assert trace == [("interrupted", 1.0), ("woke", 101.0)]


def test_events_processed_counts_resumes():
    sim = Simulator()

    def proc():
        yield 1.0
        yield 1.0

    sim.spawn(proc())
    sim.run()
    # Initial spawn resume plus two timeout wakeups.
    assert sim.events_processed == 3


# ------------------------------------------------------- run-ahead timeouts
#
# Inside run() a plain timeout that nothing can precede advances ``now``
# and resumes the same generator without entering the calendar.  Nothing
# may be able to tell: ties, foreign entries, the horizon and interrupts.

def test_lone_process_timeouts_skip_the_calendar(monkeypatch):
    import heapq

    def ticker():
        for __ in range(1000):
            yield 0.25

    stepped = Simulator()
    stepped.spawn(ticker())
    while stepped.step():
        pass

    # One bucket wide enough for the whole run: every calendar push is
    # a heappush, so counting those counts them all.
    sim = Simulator(bucket_width=1024.0)
    sim.spawn(ticker())
    pushes = []
    real_push = heapq.heappush

    def counting_push(heap, entry):
        pushes.append(entry)
        real_push(heap, entry)
    monkeypatch.setattr(heapq, "heappush", counting_push)
    sim.run()
    assert pushes == []
    assert (sim.now, sim.events_processed, sim._seq) == \
        (stepped.now, stepped.events_processed, stepped._seq) == \
        (250.0, 1001, 1000)
    assert sim.quiescent() and sim._live == 0


def test_run_ahead_stops_at_a_tied_timer_which_fires_first():
    sim = Simulator()
    order = []

    def sleeper():
        yield 1.0
        order.append(("woke", sim.now))
        yield 1.0                 # would end at 2.0, tied with the timer
        order.append(("woke", sim.now))

    sim.schedule(2.0, lambda: order.append(("timer", sim.now)))   # seq 1
    sim.spawn(sleeper())
    sim.run()
    assert order == [("woke", 1.0), ("timer", 2.0), ("woke", 2.0)]


def test_callback_inside_the_interval_bounds_the_run_ahead():
    sim = Simulator()
    seen = []

    def sleeper():
        yield 1.0
        yield 1.0
        seen.append(("woke", sim.now))

    sim.schedule(1.5, lambda: seen.append(("timer", sim.now)))
    sim.spawn(sleeper())
    sim.run()
    assert seen == [("timer", 1.5), ("woke", 2.0)]


def test_run_ahead_never_passes_until():
    sim = Simulator()
    woke = []

    def ticker():
        while True:
            yield 0.5
            woke.append(sim.now)

    sim.spawn(ticker())
    assert sim.run(until=1.25) == 1.25
    assert woke == [0.5, 1.0] and sim.now == 1.25
    assert sim._live == 1                   # the 1.5 wake is parked for real
    assert sim.run(until=1.5) == 1.5        # a wake *at* the horizon runs
    assert woke == [0.5, 1.0, 1.5] and sim._live == 1


def test_step_and_run_all_advance_one_entry_per_call():
    class Stepwise(Simulator):
        __slots__ = ("seen",)

        def step(self):
            advanced = super().step()
            self.seen.append(self.now)
            return advanced

    def ticker():
        for __ in range(3):
            yield 1.0

    sim = Stepwise()
    sim.seen = []
    sim.spawn(ticker())
    while sim.step():
        pass
    assert sim.seen == [1.0, 2.0, 3.0, 3.0]     # the last call found it idle

    sim = Stepwise()
    sim.seen = []
    assert sim.run_all([sim.spawn(ticker())]) == 3.0
    assert sim.seen == [1.0, 2.0, 3.0]


def test_interrupt_right_after_a_run_ahead_chain_finds_a_real_entry():
    sim = Simulator()
    log = []

    def sleeper():
        try:
            yield 1.0             # run ahead
            yield 1.0             # run ahead
            yield 5.0             # bounded by the callback at 2.5: parked
        except Interrupt as irq:
            log.append((sim.now, irq.cause))

    proc = sim.spawn(sleeper())
    sim.schedule(2.5, lambda: log.append(proc.interrupt("stop")))
    sim.run()
    assert log == [True, (2.5, "stop")]
    assert proc.finished and sim.now == 2.5
    assert sim.quiescent() and sim._live == 0
