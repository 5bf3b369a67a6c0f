"""Full-duplex switched LAN.

Each attached machine gets a :class:`Nic` with independent transmit and
receive channels of the link bandwidth (full duplex), matching the paper's
switched 100 Mbps Ethernet: concurrent flows between distinct machine
pairs do not interfere, and a single NIC saturates at its line rate --
which is exactly the mechanism behind the one network-limited result in
the paper (the auction browsing mix with dedicated servlet machines, where
the web server NIC carries ~94 Mb/s).
"""

from __future__ import annotations

from typing import Dict

from repro.sim.kernel import Simulator
from repro.sim.resources import Resource, safe_acquire


class Nic:
    """One network interface: separate tx and rx channels plus counters."""

    __slots__ = ("sim", "bandwidth", "base_bandwidth", "_tx", "_rx",
                 "bytes_sent", "bytes_received", "name")

    def __init__(self, sim: Simulator, bandwidth_bps: float, name: str):
        if bandwidth_bps <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth_bps}")
        self.sim = sim
        self.bandwidth = bandwidth_bps
        # Nominal line rate; ``bandwidth`` may be scaled down temporarily
        # by fault injection (Lan.set_bandwidth_factor).
        self.base_bandwidth = bandwidth_bps
        self._tx = Resource(sim, capacity=1, name=f"{name}.tx")
        self._rx = Resource(sim, capacity=1, name=f"{name}.rx")
        self.bytes_sent = 0
        self.bytes_received = 0
        self.name = name


class Lan:
    """A switch: point-to-point store-and-forward transfers between NICs."""

    def __init__(self, sim: Simulator, latency: float = 0.0001):
        self.sim = sim
        self.latency = latency
        self._nics: Dict[str, Nic] = {}

    def attach(self, machine) -> Nic:
        """Give ``machine`` a NIC on this LAN (idempotent per machine)."""
        nic = self._nics.get(machine.name)
        if nic is None:
            nic = Nic(self.sim, machine.spec.nic_bandwidth_bps, f"{machine.name}.nic")
            self._nics[machine.name] = nic
            machine.nic = nic
        return nic

    def set_bandwidth_factor(self, factor: float) -> None:
        """Scale every NIC's line rate (fault injection: a congested or
        renegotiated-down LAN).  ``factor`` of 1.0 restores nominal rates;
        transfers already on the wire keep their computed times."""
        if factor <= 0:
            raise ValueError(f"bandwidth factor must be positive, got {factor}")
        for nic in self._nics.values():
            nic.bandwidth = nic.base_bandwidth * factor

    def nic_of(self, machine_name: str) -> Nic:
        try:
            return self._nics[machine_name]
        except KeyError:
            raise KeyError(f"machine {machine_name!r} is not attached to this LAN") from None

    def nics(self) -> Dict[str, Nic]:
        """Attached NICs by machine name (read-only snapshot; cluster
        reports iterate pool members' NICs through this)."""
        return dict(self._nics)

    def transfer(self, src, dst, nbytes: int):
        """Process-style: move ``nbytes`` from machine ``src`` to ``dst``.

        Co-located endpoints (same machine) cost nothing on the wire --
        that is PHP's structural advantage over the servlet engine.

        With a tracer attached and a request in flight the transfer is
        recorded as one net span (channel occupancy on both NICs plus
        switch latency); virtual-time behaviour is identical either way.
        """
        if src.name == dst.name:
            return _EMPTY_TRANSFER
        if nbytes < 0:
            raise ValueError(f"negative transfer size: {nbytes}")
        tracer = self.sim.tracer
        if tracer is not None:
            rc = tracer.current()
            if rc is not None:
                return self._transfer_traced(src, dst, nbytes, rc)
        return self._transfer(src, dst, nbytes)

    def _transfer_traced(self, src, dst, nbytes: int, rc):
        span = rc.push(f"net:{src.name}->{dst.name}", "net", "net",
                       meta={"bytes": nbytes})
        try:
            yield from self._transfer(src, dst, nbytes)
        finally:
            rc.pop(span)

    def _transfer(self, src, dst, nbytes: int):
        src_nic = self.nic_of(src.name)
        dst_nic = self.nic_of(dst.name)
        # Both channel holds are written out here rather than delegated:
        # every dynamic request crosses the wire at least twice, and each
        # delegation is a generator object and a ``yield from`` level
        # per message.  Uncontended channels are the common case:
        # try_acquire() takes the slot without allocating an Event (or
        # the safe_acquire generator frame); the queued path keeps full
        # interrupt safety.  Wire time is priced at transmission start,
        # so a fault-injected bandwidth change never rewrites transfers
        # already on the wire.
        src_nic.bytes_sent += nbytes
        tx = src_nic._tx
        if not tx.try_acquire():
            yield from safe_acquire(tx)
        try:
            yield (nbytes * 8.0) / src_nic.bandwidth
        finally:
            tx.release()
        yield self.latency
        dst_nic.bytes_received += nbytes
        rx = dst_nic._rx
        if not rx.try_acquire():
            yield from safe_acquire(rx)
        try:
            yield (nbytes * 8.0) / dst_nic.bandwidth
        finally:
            rx.release()


# ``yield from`` over an exhausted iterator costs one next() call; using
# a shared empty tuple iterator keeps the co-located fast path free of a
# per-call generator frame.
class _EmptyTransfer:
    __slots__ = ()

    def __iter__(self):
        return iter(())


_EMPTY_TRANSFER = _EmptyTransfer()
