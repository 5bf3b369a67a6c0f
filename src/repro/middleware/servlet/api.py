"""The servlet programming interface.

A servlet is a class with a ``service`` method; the engine also accepts
plain functions (the shared interaction logic) and wraps them.
"""

from __future__ import annotations

from typing import Callable

from repro.middleware.context import AppContext
from repro.web.http import HttpResponse


class HttpServlet:
    """Base class: subclass and override :meth:`service`."""

    def init(self, engine) -> None:
        """Called once when the engine loads the servlet."""

    def service(self, ctx: AppContext) -> HttpResponse:
        raise NotImplementedError


class FunctionServlet(HttpServlet):
    """Adapts a plain ``fn(ctx) -> HttpResponse`` to the servlet API."""

    def __init__(self, fn: Callable[[AppContext], HttpResponse]):
        self.fn = fn

    def service(self, ctx: AppContext) -> HttpResponse:
        return self.fn(ctx)
