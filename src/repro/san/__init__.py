"""reprosan: the runtime race sanitizer.

Dynamic cross-validation of the static kernel-state rule (REP201): an
opt-in harness (:class:`repro.san.harness.Sanitizer`) instruments real
engine runs with a batch-window race detector and reports
logical-clock-ordered, canonical violations.  The clean matrix also
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
