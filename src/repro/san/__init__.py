"""reprosan: the runtime race sanitizer.

An opt-in harness (:class:`repro.san.harness.Sanitizer`) instruments
real engine runs with a batch-window race detector — a kernel-scope
write to shared state or to its own spec inside one executor batch — and
reports logical-clock-ordered, canonical violations.  The clean matrix also
byte-compares every leg's output against ``san-baseline.json``.  See
``docs/SANITIZERS.md``.
"""

from repro.san.harness import Sanitizer, SanitizerConfig, active_sanitizer
from repro.san.report import DETECTORS, DetectorInfo, SanReport, Violation

__all__ = [
    "DETECTORS",
    "DetectorInfo",
    "SanReport",
    "Sanitizer",
    "SanitizerConfig",
    "Violation",
    "active_sanitizer",
]
