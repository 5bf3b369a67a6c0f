"""HTTP session management for the servlet container.

The paper lists "client session management" among the container's
responsibilities.  Sessions are keyed by the request's ``session_id``
(the client emulator holds one per session, like a JSESSIONID cookie),
expire after an idle timeout, and store arbitrary attributes.  The
benchmark applications keep their state in the database (TPC-W carries
the customer id in the request), so sessions are an offered container
service rather than something the figures depend on.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Optional


class HttpSession:
    """One client's conversational state inside the container."""

    def __init__(self, session_id: str, created_at: float):
        self.id = session_id
        self.created_at = created_at
        self.last_accessed = created_at
        self._attributes: Dict[str, Any] = {}
        self.valid = True

    def _check(self) -> None:
        if not self.valid:
            raise RuntimeError(f"session {self.id!r} was invalidated")

    def get(self, name: str, default: Any = None) -> Any:
        self._check()
        return self._attributes.get(name, default)

    def set(self, name: str, value: Any) -> None:
        self._check()
        self._attributes[name] = value

    def remove(self, name: str) -> None:
        self._check()
        self._attributes.pop(name, None)

    def invalidate(self) -> None:
        self._attributes.clear()
        self.valid = False


class SessionManager:
    """Container-level registry of HTTP sessions with idle expiry."""

    def __init__(self, timeout: float = 1800.0, clock=time.monotonic):
        if timeout <= 0:
            raise ValueError("session timeout must be positive")
        self.timeout = timeout
        self._clock = clock
        self._sessions: Dict[str, HttpSession] = {}
        self.created = 0
        self.expired = 0

    def __len__(self) -> int:
        return len(self._sessions)

    def get_session(self, session_id: Optional[str],
                    create: bool = True) -> Optional[HttpSession]:
        """The session for ``session_id``, creating or renewing it.

        Expired or invalidated sessions are discarded; with
        ``create=False`` a missing session yields None.
        """
        now = self._clock()
        session = self._sessions.get(session_id) if session_id else None
        if session is not None:
            if not session.valid or \
                    now - session.last_accessed > self.timeout:
                del self._sessions[session.id]
                if session.valid:
                    session.invalidate()
                    self.expired += 1
                session = None
        if session is None:
            if not create or not session_id:
                return None
            session = HttpSession(session_id, now)
            self._sessions[session_id] = session
            self.created += 1
        session.last_accessed = now
        return session

    def invalidate(self, session_id: str) -> None:
        session = self._sessions.pop(session_id, None)
        if session is not None:
            session.invalidate()

    def sweep(self) -> int:
        """Drop every idle-expired session; returns how many."""
        now = self._clock()
        stale = [sid for sid, s in self._sessions.items()
                 if now - s.last_accessed > self.timeout or not s.valid]
        for sid in stale:
            session = self._sessions.pop(sid)
            if session.valid:
                session.invalidate()
                self.expired += 1
        return len(stale)
