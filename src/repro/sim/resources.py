"""Synchronization primitives built on the kernel: resources, stores, locks."""

from __future__ import annotations

from collections import deque
from typing import Any

from repro.sim.kernel import Event, SimulationError, Simulator


class Resource:
    """A counting resource with a FIFO wait queue (e.g. a CPU core, a
    connection-pool slot, an Apache process slot).

    Usage inside a process::

        yield cpu.acquire()
        yield service_time
        cpu.release()

    An uncontended :meth:`acquire` returns a shared pre-triggered event
    (waiters never subscribe to a triggered event, so sharing is safe).
    A queued one always gets a fresh event: an interrupted waiter's
    handler still reads ``triggered`` on its own event after the slot
    was handed to it, so wait events are never recycled.
    """

    __slots__ = ("sim", "capacity", "in_use", "_queue", "name",
                 "_granted")

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = ""):
        if capacity < 1:
            raise SimulationError("resource capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self.in_use = 0
        self._queue: deque[Event] = deque()
        self.name = name
        self._granted = Event(sim)
        self._granted.triggered = True

    @property
    def queue_length(self) -> int:
        """Number of acquirers currently waiting."""
        return len(self._queue)

    def acquire(self) -> Event:
        """Return an event that fires when a slot is granted."""
        if self.in_use < self.capacity and not self._queue:
            self.in_use += 1
            return self._granted
        ev = Event(self.sim)
        self._queue.append(ev)
        return ev

    def try_acquire(self) -> bool:
        """Take a slot immediately if available; never queues."""
        if self.in_use < self.capacity and not self._queue:
            self.in_use += 1
            return True
        return False

    def release(self) -> None:
        """Free one slot, waking the head of the queue if any."""
        if self.in_use <= 0:
            raise SimulationError(f"release of idle resource {self.name!r}")
        if self._queue:
            # Hand the slot directly to the next waiter: in_use is unchanged.
            self._queue.popleft().trigger(None)
        else:
            self.in_use -= 1

    def cancel(self, ev: Event) -> None:
        """Withdraw a queued (untriggered) acquire request -- used when
        the waiting process is interrupted so the slot is never handed
        to a dead waiter."""
        try:
            self._queue.remove(ev)
        except ValueError:
            pass


# -- cancellation-safe acquisition helpers -----------------------------------
#
# ``yield resource.acquire()`` leaks the queued request if the waiting
# process is interrupted; these ``yield from`` wrappers withdraw it (and
# release an already-granted slot) before re-raising, so chaos in one
# interaction can never strand a CPU slot or a table lock.
#
# With ``rc`` (a repro.obs RequestTrace) set, a wait that actually blocks
# is recorded as a span on it.  Uncontended acquires return before any
# span or ``try``, so the span stream carries only real waits;
# virtual-time behaviour is identical either way (spans never add
# events).

def safe_acquire(resource: "Resource", rc=None, name: str = "",
                 cat: str = "", tier: str = ""):
    ev = resource.acquire()
    if ev.triggered:
        return
    span = rc.push(name, cat, tier) if rc is not None else None
    try:
        yield ev
    except BaseException:
        if ev.triggered:
            resource.release()
        else:
            resource.cancel(ev)
        raise
    finally:
        if span is not None:
            rc.pop(span)


def acquire_lock(lock: "RWLock", mode: str, rc=None, tier: str = "",
                 origin: str = ""):
    """Take an RW lock in ``mode`` ("READ"/"WRITE"); a traced wait is a
    ``lock`` span named after the lock and mode."""
    ev = lock.acquire_write() if mode == "WRITE" else lock.acquire_read()
    if ev.triggered:
        return
    span = rc.push(f"{lock.name} {mode}", "lock", tier,
                   meta={"origin": origin} if origin else None) \
        if rc is not None else None
    try:
        yield ev
    except BaseException:
        if ev.triggered:
            lock.release(mode)
        else:
            lock.cancel(ev)
        raise
    finally:
        if span is not None:
            rc.pop(span)


class Store:
    """An unbounded FIFO message store (producer/consumer channel)."""

    __slots__ = ("sim", "_items", "_getters", "name")

    def __init__(self, sim: Simulator, name: str = ""):
        self.sim = sim
        self._items: deque[Any] = deque()
        self._getters: deque[Event] = deque()
        self.name = name

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        """Deposit an item, waking the longest-waiting getter if any."""
        if self._getters:
            self._getters.popleft().trigger(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        """Return an event that fires with the next item."""
        ev = Event(self.sim)
        if self._items:
            ev.trigger(self._items.popleft())
        else:
            self._getters.append(ev)
        return ev


class RWLock:
    """A readers/writer lock with optional writer priority.

    MySQL's MyISAM storage engine uses table-level locks in which waiting
    writers take priority over new readers; that policy is what produces
    the database lock contention the paper observes on the bookstore
    benchmark, so the policy is explicit and testable here.
    """

    __slots__ = ("sim", "write_priority", "readers", "writer",
                 "_wait_readers", "_wait_writers", "name")

    def __init__(self, sim: Simulator, write_priority: bool = True, name: str = ""):
        self.sim = sim
        self.write_priority = write_priority
        self.readers = 0
        self.writer = False
        self._wait_readers: deque[Event] = deque()
        self._wait_writers: deque[Event] = deque()
        self.name = name

    @property
    def waiting_readers(self) -> int:
        return len(self._wait_readers)

    @property
    def waiting_writers(self) -> int:
        return len(self._wait_writers)

    def acquire_read(self) -> Event:
        """Grant shared access; blocks behind writers (and, with writer
        priority, behind *waiting* writers too)."""
        ev = Event(self.sim)
        blocked = self.writer or (self.write_priority and self._wait_writers)
        if not blocked:
            self.readers += 1
            ev.trigger(None)
        else:
            self._wait_readers.append(ev)
        return ev

    def acquire_write(self) -> Event:
        """Grant exclusive access."""
        ev = Event(self.sim)
        if not self.writer and self.readers == 0 and not self._wait_writers:
            self.writer = True
            ev.trigger(None)
        else:
            self._wait_writers.append(ev)
        return ev

    def release_read(self) -> None:
        if self.readers <= 0:
            raise SimulationError(f"read-release of unheld lock {self.name!r}")
        self.readers -= 1
        if self.readers == 0:
            self._wake()

    def release_write(self) -> None:
        if not self.writer:
            raise SimulationError(f"write-release of unheld lock {self.name!r}")
        self.writer = False
        self._wake()

    def release(self, mode: str) -> None:
        """Release a hold taken in ``mode`` ("READ"/"WRITE")."""
        if mode == "WRITE":
            self.release_write()
        else:
            self.release_read()

    def cancel(self, ev: Event) -> None:
        """Withdraw a queued (untriggered) lock request (see
        :meth:`Resource.cancel`)."""
        for queue in (self._wait_readers, self._wait_writers):
            try:
                queue.remove(ev)
                return
            except ValueError:
                continue

    def _wake(self) -> None:
        if self.writer or self.readers:
            return
        if self._wait_writers and (self.write_priority or not self._wait_readers):
            self.writer = True
            self._wait_writers.popleft().trigger(None)
            return
        if self._wait_readers:
            # Admit the whole batch of waiting readers at once.
            while self._wait_readers:
                self.readers += 1
                self._wait_readers.popleft().trigger(None)
        elif self._wait_writers:
            self.writer = True
            self._wait_writers.popleft().trigger(None)
