"""reprosan: the runtime determinism/race/leak sanitizer.

Dynamic cross-validation of the static lint layers (REP002..REP205):
an opt-in harness (:class:`repro.san.harness.Sanitizer`) instruments
real engine runs with four detectors — nondeterminism sentinels,
a batch-window race detector, resource/lifetime tracking and
pickle-boundary checks — and reports logical-clock-ordered, canonical
violations.  See ``docs/SANITIZERS.md``.
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
