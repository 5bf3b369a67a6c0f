"""Interaction traces: the ordered record of everything one dynamic
request did -- queries, lock spans, RMI calls -- plus the response.

Traces serve two purposes: tests assert on them (e.g. "the sync variant
issues no LOCK TABLES"), and the profiling pass compiles them into the
simulator's interaction profiles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.db.driver import QueryRecord
from repro.web.http import HttpResponse


@dataclass(slots=True)
class TraceStep:
    """One event inside an interaction.

    kind is one of:
      "query"        -- payload is a QueryRecord
      "sync_acquire" -- payload is ((name, mode), ...) container locks
      "sync_release" -- payload is (name, ...)
      "rmi_call"     -- payload is (method_name, request_bytes, reply_bytes)

    ``origin`` names the code site that produced the step (e.g.
    "php:/order.php" or "Cart.checkOut") -- the attribution layer uses
    it to label lock-wait sites in bottleneck reports.
    """

    kind: str
    payload: object
    origin: str = ""


@dataclass
class InteractionTrace:
    steps: List[TraceStep] = field(default_factory=list)
    response: Optional[HttpResponse] = None
    interaction: str = ""
    # Stack of code-site labels; the middleware pushes one per
    # script/servlet/bean-method so every recorded step knows where it
    # came from.  The top of the stack is stamped onto new steps.
    origin_stack: List[str] = field(default_factory=list)

    @property
    def origin(self) -> str:
        return self.origin_stack[-1] if self.origin_stack else ""

    def push_origin(self, label: str) -> None:
        self.origin_stack.append(label)

    def pop_origin(self) -> None:
        if self.origin_stack:
            self.origin_stack.pop()

    def add_query(self, record: QueryRecord) -> None:
        origin = record.origin
        if not origin:
            origin = record.origin = self.origin
        self.steps.append(TraceStep("query", record, origin))

    def add_sync_acquire(self, locks: Tuple[Tuple[str, str], ...]) -> None:
        self.steps.append(TraceStep("sync_acquire", locks,
                                    origin=self.origin))

    def add_sync_release(self, names: Tuple[str, ...]) -> None:
        self.steps.append(TraceStep("sync_release", names,
                                    origin=self.origin))

    def add_rmi_call(self, method: str, request_bytes: int,
                     reply_bytes: int) -> None:
        self.steps.append(TraceStep("rmi_call",
                                    (method, request_bytes, reply_bytes),
                                    origin=self.origin))

    # -- inspection helpers (used heavily by tests) ------------------------------

    def queries(self) -> List[QueryRecord]:
        return [s.payload for s in self.steps if s.kind == "query"]

    def query_count(self, kind: Optional[str] = None) -> int:
        records = self.queries()
        if kind is None:
            return len(records)
        return sum(1 for r in records if r.kind == kind)

    def lock_statement_count(self) -> int:
        return sum(1 for r in self.queries() if r.kind in ("lock", "unlock"))

    def sync_spans(self) -> int:
        return sum(1 for s in self.steps if s.kind == "sync_acquire")

    def rmi_calls(self) -> List[tuple]:
        return [s.payload for s in self.steps if s.kind == "rmi_call"]

    def db_cpu_seconds(self) -> float:
        return sum(r.cpu_seconds for r in self.queries())

    def tables_written(self) -> set:
        out: set = set()
        for record in self.queries():
            out.update(record.tables_written)
        return out
