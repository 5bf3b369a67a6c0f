"""Tests for resources, stores, and the readers/writer lock."""

import pytest

from repro.sim import Interrupt, Resource, RWLock, Simulator, Store
from repro.sim.kernel import SimulationError
from repro.sim.resources import acquire_lock, safe_acquire


# ---------------------------------------------------------------- Resource

def test_resource_grants_up_to_capacity():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    assert res.acquire().triggered
    assert res.acquire().triggered
    third = res.acquire()
    assert not third.triggered
    assert res.queue_length == 1
    res.release()
    assert third.triggered


def test_resource_fifo_order():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    order = []

    def worker(i):
        yield res.acquire()
        order.append(i)
        yield 1.0
        res.release()

    for i in range(4):
        sim.spawn(worker(i))
    sim.run()
    assert order == [0, 1, 2, 3]
    assert sim.now == 4.0


def test_resource_try_acquire():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    assert res.try_acquire()
    assert not res.try_acquire()
    res.release()
    assert res.try_acquire()


def test_resource_release_idle_raises():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    with pytest.raises(SimulationError):
        res.release()


def test_resource_bad_capacity():
    sim = Simulator()
    with pytest.raises(SimulationError):
        Resource(sim, capacity=0)


def test_resource_handoff_keeps_in_use_stable():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    res.acquire()
    waiting = res.acquire()
    assert res.in_use == 1
    res.release()
    assert waiting.triggered
    assert res.in_use == 1
    res.release()
    assert res.in_use == 0


# ------------------------------------------------------------------- Store

def test_store_put_then_get():
    sim = Simulator()
    store = Store(sim)
    store.put("a")
    ev = store.get()
    assert ev.triggered and ev.value == "a"


def test_store_get_then_put_wakes_getter():
    sim = Simulator()
    store = Store(sim)
    got = []

    def consumer():
        item = yield store.get()
        got.append((sim.now, item))

    def producer():
        yield 2.0
        store.put("x")

    sim.spawn(consumer())
    sim.spawn(producer())
    sim.run()
    assert got == [(2.0, "x")]


def test_store_fifo_items_and_getters():
    sim = Simulator()
    store = Store(sim)
    store.put(1)
    store.put(2)
    assert store.get().value == 1
    assert store.get().value == 2
    assert len(store) == 0


# ------------------------------------------------------------------ RWLock

def test_rwlock_readers_share():
    sim = Simulator()
    lock = RWLock(sim)
    assert lock.acquire_read().triggered
    assert lock.acquire_read().triggered
    assert lock.readers == 2


def test_rwlock_writer_excludes_readers():
    sim = Simulator()
    lock = RWLock(sim)
    assert lock.acquire_write().triggered
    r = lock.acquire_read()
    assert not r.triggered
    lock.release_write()
    assert r.triggered


def test_rwlock_write_priority_blocks_new_readers():
    """With writer priority (MyISAM policy), a waiting writer holds off
    newly arriving readers even while current readers are active."""
    sim = Simulator()
    lock = RWLock(sim, write_priority=True)
    lock.acquire_read()
    w = lock.acquire_write()
    assert not w.triggered
    late_reader = lock.acquire_read()
    assert not late_reader.triggered  # queued behind the writer
    lock.release_read()
    assert w.triggered
    assert not late_reader.triggered
    lock.release_write()
    assert late_reader.triggered


def test_rwlock_no_write_priority_lets_readers_through():
    sim = Simulator()
    lock = RWLock(sim, write_priority=False)
    lock.acquire_read()
    w = lock.acquire_write()
    assert not w.triggered
    late_reader = lock.acquire_read()
    assert late_reader.triggered  # reader priority: joins current readers


def test_rwlock_batch_wakes_all_waiting_readers():
    sim = Simulator()
    lock = RWLock(sim, write_priority=True)
    lock.acquire_write()
    readers = [lock.acquire_read() for _ in range(5)]
    assert not any(r.triggered for r in readers)
    lock.release_write()
    assert all(r.triggered for r in readers)
    assert lock.readers == 5


def test_rwlock_writers_fifo():
    sim = Simulator()
    lock = RWLock(sim)
    order = []

    def writer(i):
        yield lock.acquire_write()
        order.append(i)
        yield 1.0
        lock.release_write()

    for i in range(3):
        sim.spawn(writer(i))
    sim.run()
    assert order == [0, 1, 2]


def test_rwlock_release_unheld_raises():
    sim = Simulator()
    lock = RWLock(sim)
    with pytest.raises(SimulationError):
        lock.release_read()
    with pytest.raises(SimulationError):
        lock.release_write()


def test_rwlock_write_then_write_queues():
    sim = Simulator()
    lock = RWLock(sim)
    lock.acquire_write()
    w2 = lock.acquire_write()
    assert not w2.triggered
    lock.release_write()
    assert w2.triggered


def test_interrupted_waiter_does_not_read_a_recycled_wait_event():
    """The holder, interrupted first, releases: the slot goes to the
    interrupted waiter's dead wait event.  Were that event recycled for
    the holder's next acquire (as it once was), the waiter's handler
    would read ``triggered`` on an event that is no longer its own,
    cancel the holder's request instead of giving the slot back, and
    leak the slot.  Found by the CPU differential test of
    ``tests/test_kernel_speed2.py``."""
    sim = Simulator()
    res = Resource(sim, capacity=1)
    log = []

    def holder():
        yield from safe_acquire(res)
        try:
            yield 1.0
        except Interrupt:
            pass
        res.release()
        yield from safe_acquire(res)
        log.append("holder again")
        res.release()

    def waiter():
        try:
            yield from safe_acquire(res)
        except Interrupt:
            return
        res.release()

    def chaos():
        yield 0.5
        procs[0].interrupt()
        procs[1].interrupt()

    procs = [sim.spawn(holder()), sim.spawn(waiter())]
    sim.spawn(chaos())
    sim.run()
    assert log == ["holder again"]
    assert res.in_use == 0 and res.queue_length == 0


# ------------------------------------------ cancellation-safe acquisition
#
# ``mode`` "READ" / "WRITE" takes an RWLock through ``acquire_lock``,
# "SLOT" a one-slot Resource through ``safe_acquire``; "EXCL" is the
# exclusive hold that blocks either.

MODES = ["READ", "WRITE", "SLOT"]


class _Recorder:
    """The two RequestTrace calls the helpers make, as
    ``[name, cat, tier, meta, pushed at, popped at]``."""

    def __init__(self, sim):
        self.sim = sim
        self.spans = []

    def push(self, name, cat, tier, meta=None):
        span = [name, cat, tier, meta, self.sim.now, None]
        self.spans.append(span)
        return span

    def pop(self, span):
        span[5] = self.sim.now


def _target(sim, mode):
    if mode == "SLOT":
        return Resource(sim, capacity=1, name="httpd")
    return RWLock(sim, name="db.items")


def _take(target, mode, rc):
    if isinstance(target, Resource):
        return safe_acquire(target, rc, "httpd.accept", "queue", "web")
    return acquire_lock(target, "WRITE" if mode == "EXCL" else mode, rc,
                        "db", "Cart.add")


def _release(target, mode):
    if isinstance(target, Resource):
        target.release()
    else:
        target.release("WRITE" if mode == "EXCL" else mode)


def _holders(target):
    if isinstance(target, Resource):
        return target.in_use
    return target.readers + target.writer


def _waiting(target):
    if isinstance(target, Resource):
        return target.queue_length
    return target.waiting_readers + target.waiting_writers


@pytest.mark.parametrize("traced", [False, True])
@pytest.mark.parametrize("mode", MODES)
def test_interrupt_while_queued_withdraws_the_request(mode, traced):
    sim = Simulator()
    target = _target(sim, mode)
    rc = _Recorder(sim) if traced else None
    outcome = []

    def acquirer(tag):
        try:
            yield from _take(target, mode, rc)
        except Interrupt:
            outcome.append((tag, "interrupted"))
        else:
            outcome.append((tag, "granted"))

    assert (target.acquire() if mode == "SLOT"
            else target.acquire_write()).triggered
    first = sim.spawn(acquirer("first"))
    sim.spawn(acquirer("next"))
    sim.run()
    assert _waiting(target) == 2
    first.interrupt()
    sim.run()
    assert outcome == [("first", "interrupted")] and _waiting(target) == 1
    _release(target, "EXCL")
    sim.run()
    # Nothing went to the dead request: the next acquirer alone holds.
    assert outcome[1:] == [("next", "granted")]
    assert _waiting(target) == 0 and _holders(target) == 1
    if traced:
        assert [span[4:] for span in rc.spans] == [[0.0, 0.0], [0.0, 0.0]]


@pytest.mark.parametrize("traced", [False, True])
@pytest.mark.parametrize("mode", MODES)
def test_interrupt_after_the_grant_releases_the_hold(mode, traced):
    """Holder and waiter interrupted in one instant (a crash does
    that): the holder's release grants the waiter's request before the
    waiter's handler runs, so the handler must give the hold back."""
    sim = Simulator()
    target = _target(sim, mode)
    rc = _Recorder(sim) if traced else None
    log = []

    def holder():
        yield from _take(target, "EXCL", rc)
        try:
            yield 1.0
        except Interrupt:
            pass
        _release(target, "EXCL")
        log.append(("handed over", _holders(target)))

    def waiter():
        try:
            yield from _take(target, mode, rc)
        except Interrupt:
            log.append(("interrupted", _holders(target)))

    def chaos():
        yield 0.5
        procs[0].interrupt()
        procs[1].interrupt()

    procs = [sim.spawn(holder()), sim.spawn(waiter())]
    sim.spawn(chaos())
    sim.run()
    assert log == [("handed over", 1), ("interrupted", 0)]
    assert _waiting(target) == 0
    if traced:
        assert [span[4:] for span in rc.spans] == [[0.0, 0.5]]


@pytest.mark.parametrize("mode", MODES)
def test_only_a_blocked_traced_acquire_records_a_span(mode):
    sim = Simulator()
    target = _target(sim, mode)
    holder_rc, waiter_rc = _Recorder(sim), _Recorder(sim)

    def holder():
        yield from _take(target, "EXCL", holder_rc)
        yield 1.0
        _release(target, "EXCL")

    def waiter():
        yield from _take(target, mode, waiter_rc)
        _release(target, mode)

    sim.spawn(holder())
    sim.spawn(waiter())
    sim.run()
    assert holder_rc.spans == []
    wait = ["httpd.accept", "queue", "web", None] if mode == "SLOT" \
        else [f"db.items {mode}", "lock", "db", {"origin": "Cart.add"}]
    assert waiter_rc.spans == [[*wait, 0.0, 1.0]]
    assert _holders(target) == 0


def test_an_unlabelled_lock_wait_carries_no_meta():
    sim = Simulator()
    lock = RWLock(sim, name="sync.cart")
    rc = _Recorder(sim)
    assert lock.acquire_write().triggered
    sim.spawn(acquire_lock(lock, "READ", rc, "servlet"))
    sim.run()
    lock.release_write()
    sim.run()
    assert rc.spans == [["sync.cart READ", "lock", "servlet", None, 0.0, 0.0]]
    assert lock.readers == 1
