"""Stateless session beans and RMI stubs.

The paper uses the session façade pattern: presentation servlets call
stateless session beans over RMI; the façade methods drive entity beans.
The stub counts every call with estimated request/reply serialization
sizes so the profiling pass can charge RMI CPU and wire bytes on both
endpoints.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class RmiCosts:
    """Serialization/marshalling prices, charged on both endpoints."""

    per_call: float = 1.8e-3
    per_byte: float = 110.0e-9
    request_overhead_bytes: int = 380
    reply_overhead_bytes: int = 340


def estimate_serialized_bytes(obj) -> int:
    """Approximate Java-serialization size of a method argument/result."""
    if obj is None:
        return 8
    if isinstance(obj, bool):
        return 4
    if isinstance(obj, (int, float)):
        return 10
    if isinstance(obj, str):
        return 24 + len(obj)
    if isinstance(obj, dict):
        return 32 + sum(estimate_serialized_bytes(k) +
                        estimate_serialized_bytes(v) for k, v in obj.items())
    if isinstance(obj, (list, tuple, set)):
        return 24 + sum(estimate_serialized_bytes(v) for v in obj)
    return 48


class SessionBean:
    """Base class for stateless session façades.

    Subclasses receive the container as ``self.ejb`` and reach entity
    homes via ``self.ejb.home("table")``.  Public methods (not starting
    with ``_``) become remote methods on the stub, each wrapped in a
    container transaction (transaction-attribute REQUIRED).
    """

    def __init__(self, container):
        self.ejb = container

    def home(self, table: str):
        return self.ejb.home(table)


class RmiStub:
    """Client-side proxy: counts calls, sizes payloads, runs the
    container transaction around every invocation."""

    def __init__(self, bean: SessionBean, container, costs: RmiCosts,
                 trace_sink: Optional[object] = None):
        self._bean = bean
        self._container = container
        self._costs = costs
        self._trace_sink = trace_sink
        self.calls = 0

    def __getattr__(self, name: str):
        if name.startswith("_"):
            raise AttributeError(name)
        method = getattr(self._bean, name, None)
        if method is None or not callable(method):
            raise AttributeError(
                f"session bean {type(self._bean).__name__} has no remote "
                f"method {name!r}")

        def remote_call(*args, **kwargs):
            self.calls += 1
            request_bytes = (self._costs.request_overhead_bytes +
                             estimate_serialized_bytes(args) +
                             estimate_serialized_bytes(kwargs))
            sink = self._trace_sink
            origin = f"{type(self._bean).__name__}.{name}"
            if sink is not None:
                sink.push_origin(origin)
            try:
                with self._container.transaction(trace=sink):
                    result = method(*args, **kwargs)
            finally:
                if sink is not None:
                    sink.pop_origin()
            reply_bytes = (self._costs.reply_overhead_bytes +
                           estimate_serialized_bytes(result))
            if sink is not None:
                sink.add_rmi_call(name, request_bytes, reply_bytes)
            return result

        return remote_call
