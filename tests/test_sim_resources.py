"""Tests for resources, stores, and the readers/writer lock."""

import pytest

from repro.sim import Interrupt, Resource, RWLock, Simulator, Store
from repro.sim.kernel import SimulationError
from repro.sim.resources import safe_acquire


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
