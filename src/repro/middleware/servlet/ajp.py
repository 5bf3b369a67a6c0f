"""The AJP12-like connector between the web server and the servlet engine.

The servlet engine runs in its own process (JVM in the paper), so every
dynamic request crosses a process boundary twice: request forward and
response return.  The paper measured this cost directly ("on average,
the cost of sending one character of dynamic content between the servlet
engine and the Web server is 191 microseconds" -- an amortized figure
dominated by per-message overhead at the small message sizes involved).
We model the connector as a per-message cost plus a per-byte cost on
*both* endpoints, and a wire transfer when the endpoints sit on
different machines.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class AjpCosts:
    """CPU charged per crossing; split between the two endpoints."""

    per_message: float = 0.35e-3      # syscall + framing per crossing
    per_byte: float = 90.0e-9         # copy + encode per payload byte
    request_overhead_bytes: int = 420  # forwarded headers + attributes
    reply_overhead_bytes: int = 260


@dataclass(frozen=True)
class AjpConnector:
    """Connector descriptor consumed by the profiling pass."""

    costs: AjpCosts = AjpCosts()

