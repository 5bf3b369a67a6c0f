"""Deterministic load balancing across a pool of tier instances.

The balancer is control plane only: picking a backend schedules no
simulator events, transfers no bytes, and -- crucially for the
trivial-cluster identity guarantee -- draws no random numbers unless a
least-connections pick is genuinely tied between two live backends.
Ties break through a dedicated :class:`~repro.sim.rng.RngStreams`
stream, so balanced runs stay bit-reproducible under pinned seeds and
independent of the client population's draws.

This mirrors the Fermilab flexible-server result (arXiv:cs/0307001):
a pool of stateless servers behind a dispatcher scales query
throughput until a shared downstream resource saturates.

Policies
--------
``round_robin``        rotate over the pool, skipping crashed members;
                       the rotation cursor keeps its place across
                       crashes and rejoins.
``least_connections``  pick the live member with the fewest in-flight
                       requests; RNG tie-break.
``affinity``           sessions stick to their first backend and only
                       re-bind (round-robin) when it crashes.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence, Set

from repro.faults.errors import TierDown

POLICIES = ("round_robin", "least_connections", "affinity")


class LoadBalancer:
    """Routes requests over named backends; all state is bookkeeping."""

    __slots__ = ("name", "policy", "backends", "in_flight", "served",
                 "_cursor", "_rng", "_bindings", "_is_up")

    def __init__(self, name: str, backends: Sequence[str],
                 policy: str = "round_robin", rng=None,
                 is_up: Optional[Callable[[str], bool]] = None):
        if policy not in POLICIES:
            raise ValueError(f"unknown balancing policy {policy!r}; "
                             f"have {POLICIES}")
        if not backends:
            raise ValueError(f"balancer {name!r} needs at least one backend")
        self.name = name
        self.policy = policy
        self.backends = tuple(backends)
        self.in_flight: Dict[str, int] = {b: 0 for b in self.backends}
        self.served: Dict[str, int] = {b: 0 for b in self.backends}
        self._cursor = 0
        self._rng = rng
        self._bindings: Dict[object, str] = {}
        self._is_up = is_up if is_up is not None else (lambda __: True)

    # -- picking --------------------------------------------------------------

    def _live(self, eligible: Optional[Set[str]]) -> list:
        is_up = self._is_up
        if eligible is None:
            return [b for b in self.backends if is_up(b)]
        return [b for b in self.backends if b in eligible and is_up(b)]

    def _rotate(self, live) -> str:
        live = set(live)
        n = len(self.backends)
        for __ in range(n):
            candidate = self.backends[self._cursor % n]
            self._cursor += 1
            if candidate in live:
                return candidate
        raise AssertionError("unreachable: live pool was non-empty")

    def pick(self, session_key=None,
             eligible: Optional[Set[str]] = None) -> str:
        """Choose a live backend (optionally restricted to ``eligible``).

        Raises :class:`~repro.faults.errors.TierDown` when every backend
        is down -- the pool as a whole is the failed "machine".
        """
        live = self._live(eligible)
        if not live:
            raise TierDown(self.backends[0])
        if self.policy == "affinity" and session_key is not None:
            bound = self._bindings.get(session_key)
            if bound is None or bound not in live:
                bound = live[0] if len(live) == 1 else self._rotate(live)
                self._bindings[session_key] = bound
            return bound
        if len(live) == 1:
            return live[0]
        if self.policy == "least_connections":
            in_flight = self.in_flight
            low = min(in_flight[b] for b in live)
            tied = [b for b in live if in_flight[b] == low]
            if len(tied) == 1 or self._rng is None:
                return tied[0]
            return tied[self._rng.randrange(len(tied))]
        return self._rotate(live)

    # -- request lifecycle ----------------------------------------------------

    def acquire(self, session_key=None,
                eligible: Optional[Set[str]] = None) -> str:
        """Pick a backend and count the request against it."""
        backend = self.pick(session_key, eligible)
        self.in_flight[backend] += 1
        self.served[backend] += 1
        return backend

    def release(self, backend: str) -> None:
        count = self.in_flight[backend]
        if count <= 0:
            raise ValueError(f"balancer {self.name!r}: release of idle "
                             f"backend {backend!r}")
        self.in_flight[backend] = count - 1

    def forget_session(self, session_key) -> None:
        """Drop a session's sticky binding (session end / logout)."""
        self._bindings.pop(session_key, None)
