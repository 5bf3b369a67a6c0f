"""The PHP module: in-process scripts over a native database driver.

Structural properties reproduced from the paper:

* scripts run in the web server's address space -> zero IPC between the
  web server and the generator, and the generator *must* be co-located
  with the web server (`requires_colocation`);
* the database driver is the native one (cheap calls);
* locking is always done in the database (`LOCK TABLES`): System-V
  semaphore locking exists in PHP but the paper explicitly does not use
  it, so the module rejects a sync policy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Tuple

from repro.db.driver import NativeDriver
from repro.db.engine import Database
from repro.middleware.context import AppContext, LockingPolicy
from repro.middleware.trace import InteractionTrace
from repro.web.http import HttpRequest, HttpResponse


@dataclass(frozen=True)
class PhpCosts:
    """CPU prices of the interpreter, charged to the web server machine."""

    # PHP4 without an opcode cache re-parses the script on every hit,
    # so the per-request price dominates.
    per_request: float = 3.5e-3       # interpreter startup + script parse
    per_query_call: float = 0.12e-3   # native driver call
    per_output_byte: float = 120.0e-9  # interpreted string assembly
    # Serving the degraded/static fallback page under load shedding
    # (repro.overload): no script parse, no database work.
    per_degraded_script: float = 0.25e-3


@dataclass
class PhpScript:
    """A registered script: path plus the page function."""

    path: str
    handler: Callable[[AppContext], HttpResponse]


class PhpModule:
    """mod_php: a script registry bound to a database via native driver."""

    name = "php"
    requires_colocation = True
    costs = PhpCosts()

    def __init__(self, database: Database):
        self.database = database
        self.driver = NativeDriver(database)
        self.scripts: Dict[str, PhpScript] = {}
        self.requests_served = 0

    def register(self, path: str,
                 handler: Callable[[AppContext], HttpResponse]) -> None:
        if path in self.scripts:
            raise ValueError(f"script already registered at {path!r}")
        self.scripts[path] = PhpScript(path=path, handler=handler)

    def register_app(self, pages: Dict[str, Callable]) -> None:
        for path, handler in pages.items():
            self.register(path, handler)

    def handle(self, request: HttpRequest) \
            -> Tuple[HttpResponse, InteractionTrace]:
        """Execute the script for ``request.path``."""
        script = self.scripts.get(request.path)
        if script is None:
            trace = InteractionTrace(interaction=request.path)
            response = HttpResponse(body="<html>404</html>", status=404)
            trace.response = response
            return response, trace
        trace = InteractionTrace(interaction=request.path)
        conn = self.driver.connect()
        ctx = AppContext(request, conn, policy=LockingPolicy.DB_LOCKS,
                         trace=trace)
        trace.push_origin(f"php:{request.path}")
        try:
            response = script.handler(ctx)
        finally:
            trace.pop_origin()
            conn.close()
        if trace.response is None:
            trace.response = response
        self.requests_served += 1
        return response, trace
