"""Resource/lifetime tracking with acquisition-site stack capture.

Tracks span handles, run writers and journal segments as
acquire/release pairs.  Two checks consume the ledger:

* **commit check** (dynamic REP205, "never closed"): when the coordinator appends
  ``K_OUTPUT_COMMIT``, every tracked resource except the journal's own
  open segment must already be released — a still-live writer or span at
  commit is exactly the "resource open across a commit point" shape the
  static rule forbids.

* **exception check** (dynamic REP205/REP005, the exception path): when engine scope exits after a
  (non-crash-simulated) exception, resources acquired before the
  exception and never released witness a release site that fails to
  post-dominate its acquisition.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

__all__ = ["ResourceRecord", "ResourceTracker"]


@dataclass
class ResourceRecord:
    token: int
    kind: str
    name: str
    task: str
    clock: int
    stack: tuple[tuple[str, int, str], ...]


class ResourceTracker:
    """The acquire/release ledger for one sanitized run."""

    def __init__(self) -> None:
        self._live: dict[int, ResourceRecord] = {}
        self._seq = 0
        self._exc_marker: int | None = None
        # Acquisitions can arrive from executor pool threads.
        self._lock = threading.Lock()

    @property
    def seq(self) -> int:
        """The current acquisition sequence number (a ledger marker)."""
        return self._seq

    # -- ledger --------------------------------------------------------

    def acquire(
        self,
        kind: str,
        name: str,
        *,
        task: str = "",
        clock: int = 0,
        stack: tuple[tuple[str, int, str], ...] = (),
    ) -> int:
        """Record an acquisition; returns the release token."""
        with self._lock:
            self._seq += 1
            token = self._seq
            self._live[token] = ResourceRecord(
                token=token,
                kind=kind,
                name=name,
                task=task,
                clock=clock,
                stack=stack,
            )
        return token

    def release(self, token: int) -> None:
        with self._lock:
            self._live.pop(token, None)

    def forget_since(self, marker: int) -> None:
        """Drop every record acquired after ``marker`` without reporting
        (an injected task fault killed the simulated worker mid-attempt;
        its OS reclaims the attempt's resources)."""
        with self._lock:
            for token in [t for t in self._live if t > marker]:
                del self._live[token]

    def note_exception(self) -> None:
        """Mark that an exception is unwinding engine scope.

        Resources acquired before this marker and still live at scope
        exit are REP205-class leaks (release did not post-dominate the
        acquisition); later acquisitions belong to cleanup code and are
        judged by the ordinary commit check.
        """
        if self._exc_marker is None:
            self._exc_marker = self._seq

    def forget_live(self) -> None:
        """Drop the ledger without reporting (simulated coordinator
        crash: the process is modelled as dead, leaks are expected)."""
        self._live.clear()
        self._exc_marker = None

    # -- checks --------------------------------------------------------

    def take_leaks(
        self, *, exclude_kinds: tuple[str, ...] = ()
    ) -> list[ResourceRecord]:
        """Pop and return every still-live record."""
        return [
            self._live.pop(token)
            for token in sorted(self._live)
            if self._live[token].kind not in exclude_kinds
        ]

    def classify(self, record: ResourceRecord) -> str:
        """SAN205 when the leak predates the noted exception, SAN103
        otherwise (still-live at a commit/exit point)."""
        if self._exc_marker is not None and record.token <= self._exc_marker:
            return "SAN205"
        return "SAN103"

    @property
    def live_count(self) -> int:
        return len(self._live)
