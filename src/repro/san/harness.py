"""The reprosan harness: scoped instrumentation of real engine runs.

One :class:`Sanitizer` instruments the whole process while installed
(``with Sanitizer() as san: ...``): executor sessions, the driver's
``run``, the job journal and the tracer absorb path.  All hooks are
*observing passthroughs* — the run executes exactly as it would
unsanitized (same kernels, same order, same output bytes), which is what
lets the clean matrix byte-compare sanitized vs unsanitized runs.

The one detector, ``race``: each executor batch is a fork/join window.
Registered shared objects and the batch's specs are fingerprinted at the
fork and again at the join, and any change is a kernel-scope write the
coordinator never ordered (SAN201).

Scope rule: the detector only observes between engine ``run`` entry and
exit (``_ENGINE_DEPTH``).

Logical determinism: the sanitizer's clock ticks on tracer ``absorb``
and journal appends — coordinator-ordered events — never on wall time,
so reports are byte-identical across repeated runs.
"""

from __future__ import annotations

import hashlib
import threading
from contextlib import contextmanager
from dataclasses import dataclass, fields, is_dataclass
from typing import Any, Callable, Sequence

from repro.san.report import SanReport, Violation

__all__ = [
    "Sanitizer",
    "SanitizerConfig",
    "active_sanitizer",
    "fingerprint",
]

ALL_DETECTORS = ("race",)

# Process-wide state: one sanitizer may be installed at a time, and the
# engine-scope depth gates the detector.
_ACTIVE: "Sanitizer | None" = None
_ENGINE_DEPTH = 0
_TLS = threading.local()


def active_sanitizer() -> "Sanitizer | None":
    return _ACTIVE


# -- value fingerprinting -----------------------------------------------------

_FP_DEPTH = 6


def fingerprint(obj: Any, depth: int = 0) -> str:
    """A stable content digest for race detection.

    Order-independent for sets, content-based for buffers, identity-free
    for callables (module.qualname) — two fingerprints taken inside one
    process compare equal iff the value trees match.
    """
    h = hashlib.sha256()
    _fp(obj, h, depth)
    return h.hexdigest()[:16]


def _fp(obj: Any, h: "hashlib._Hash", depth: int) -> None:
    if depth > _FP_DEPTH:
        h.update(b"<deep>")
        return
    if obj is None or isinstance(obj, (bool, int, float, complex, str)):
        h.update(repr(obj).encode())
        return
    if isinstance(obj, (bytes, bytearray, memoryview)):
        h.update(b"buf:")
        h.update(bytes(obj))
        return
    if isinstance(obj, dict):
        h.update(b"dict:")
        entries = []
        for key, value in obj.items():
            eh = hashlib.sha256()
            _fp(key, eh, depth + 1)
            _fp(value, eh, depth + 1)
            entries.append(eh.digest())
        for digest in sorted(entries):
            h.update(digest)
        return
    if isinstance(obj, (list, tuple)):
        h.update(b"seq:")
        for value in obj:
            _fp(value, h, depth + 1)
        return
    if isinstance(obj, (set, frozenset)):
        h.update(b"set:")
        entries = []
        for value in obj:
            eh = hashlib.sha256()
            _fp(value, eh, depth + 1)
            entries.append(eh.digest())
        for digest in sorted(entries):
            h.update(digest)
        return
    if callable(obj) and hasattr(obj, "__qualname__"):
        h.update(f"fn:{getattr(obj, '__module__', '')}.{obj.__qualname__}".encode())
        return
    if hasattr(obj, "tobytes"):  # array.array and friends
        h.update(b"arr:")
        h.update(obj.tobytes())
        return
    if is_dataclass(obj) and not isinstance(obj, type):
        h.update(f"dc:{type(obj).__name__}:".encode())
        for f in fields(obj):
            _fp(getattr(obj, f.name), h, depth + 1)
        return
    state = getattr(obj, "__dict__", None)
    if state is None and hasattr(type(obj), "__slots__"):
        state = {
            slot: getattr(obj, slot)
            for slot in type(obj).__slots__
            if slot != "__weakref__" and hasattr(obj, slot)
        }
    if isinstance(state, dict):
        h.update(f"obj:{type(obj).__name__}:".encode())
        _fp(state, h, depth + 1)
        return
    h.update(f"opaque:{type(obj).__name__}".encode())


# -- configuration ------------------------------------------------------------


@dataclass(frozen=True)
class SanitizerConfig:
    """Which detectors run (extra shared state is registered with
    :meth:`Sanitizer.track_shared`)."""

    detectors: tuple[str, ...] = ALL_DETECTORS

    def __post_init__(self) -> None:
        unknown = set(self.detectors) - set(ALL_DETECTORS)
        if unknown:
            raise ValueError(f"unknown detectors: {sorted(unknown)}")


# -- the harness --------------------------------------------------------------


class Sanitizer:
    """Install/remove the instrumentation and collect the report."""

    def __init__(self, config: SanitizerConfig | None = None) -> None:
        self.config = config or SanitizerConfig()
        self.report = SanReport(detectors=self.config.detectors)
        self._lock = threading.Lock()
        self._patches: list[tuple[Any, str, Any]] = []
        self._installed = False
        self._clock = 0
        self._task_seq = 0
        self._shared: dict[str, Any] = {}

    # -- lifecycle -----------------------------------------------------

    def __enter__(self) -> "Sanitizer":
        self.install()
        return self

    def __exit__(self, *exc: object) -> None:
        self.remove()

    def install(self) -> None:
        global _ACTIVE
        if self._installed:
            raise RuntimeError("sanitizer already installed")
        if _ACTIVE is not None:
            raise RuntimeError("another sanitizer is already installed")
        from repro.exec import base as exec_base

        if "race" in self.config.detectors:
            self._shared["repro.exec.base._KERNELS"] = exec_base._KERNELS
        self._patch_executors(exec_base)
        self._patch_engines()
        self._patch_journal()
        self._patch_tracer()
        self._installed = True
        _ACTIVE = self

    def remove(self) -> None:
        global _ACTIVE
        if not self._installed:
            return
        for obj, attr, original in reversed(self._patches):
            setattr(obj, attr, original)
        self._patches = []
        self._installed = False
        _ACTIVE = None
        self.report.finalize()

    def track_shared(self, name: str, obj_or_provider: Any) -> None:
        """Register extra shared state for the race detector.

        ``obj_or_provider`` is either the object itself or a zero-arg
        callable returning the value to fingerprint (use a provider when
        only part of a large structure is shared, e.g. cache keys).
        """
        self._shared[name] = obj_or_provider

    # -- violations ----------------------------------------------------

    def _violation(
        self,
        vid: str,
        message: str,
        *,
        task: str = "",
        witness: tuple[tuple[str, str], ...] = (),
    ) -> None:
        with self._lock:
            self.report.add(
                Violation(
                    id=vid,
                    message=message,
                    task=task,
                    clock=self._clock,
                    witness=witness,
                )
            )

    # -- engine scope --------------------------------------------------

    @contextmanager
    def engine_scope(self):
        """Activate the detector for one engine run."""
        global _ENGINE_DEPTH
        _ENGINE_DEPTH += 1
        try:
            yield
        finally:
            _ENGINE_DEPTH -= 1

    # -- patch plumbing ------------------------------------------------

    def _patch(self, obj: Any, attr: str, factory: Callable[[Callable], Callable]) -> None:
        original = obj.__dict__[attr]
        setattr(obj, attr, factory(original))
        self._patches.append((obj, attr, original))

    # -- executor instrumentation --------------------------------------

    def _patch_executors(self, exec_base: Any) -> None:
        san = self

        def wrap_batch(orig):
            def run_batch(session, kernel, specs):
                if getattr(_TLS, "dispatch", False) or _ENGINE_DEPTH <= 0:
                    return orig(session, kernel, specs)
                return san._sanitized_dispatch(
                    lambda: san._guarded(orig, session, kernel, specs),
                    kernel,
                    specs,
                )

            return run_batch

        for cls in (
            exec_base._InlineSession,
            exec_base._ThreadSession,
            exec_base._ForkSession,
        ):
            self._patch(cls, "run_batch", wrap_batch)

    @staticmethod
    def _guarded(orig: Callable, session: Any, kernel: str, payload: Any):
        """Run the original dispatch with the re-entrancy flag set (a
        thread session delegating small batches to an inline session
        must not be instrumented twice)."""
        _TLS.dispatch = True
        try:
            return orig(session, kernel, payload)
        finally:
            _TLS.dispatch = False

    def _sanitized_dispatch(
        self, call: Callable[[], list], kernel: str, specs: Sequence[Any]
    ) -> list:
        """One executor batch as a fork/join window around the real dispatch."""
        tasks = []
        for _spec in specs:
            self._task_seq += 1
            tasks.append(f"{kernel}:{self._task_seq}")
        if "race" not in self.config.detectors:
            return call()
        before_shared = {
            name: fingerprint(self._snapshot(value)) for name, value in self._shared.items()
        }
        before_specs = [fingerprint(spec) for spec in specs]
        results = call()
        self._check_shared_writes(kernel, tasks, before_shared)
        for task, spec, before in zip(tasks, specs, before_specs):
            if fingerprint(spec) != before:
                self._violation(
                    "SAN201",
                    f"kernel mutated its spec in place ({type(spec).__name__})",
                    task=task,
                    witness=(("spec", type(spec).__name__),),
                )
        return results

    def _snapshot(self, value: Any) -> Any:
        return value() if callable(value) and not hasattr(value, "__self__") else value

    def _check_shared_writes(
        self, kernel: str, tasks: list[str], before: dict[str, str]
    ) -> None:
        """One SAN201 per shared object the batch changed.

        The batch window is the whole detection: an object that differs
        at the join was written by one of the batch's tasks, none of
        which the coordinator ordered against its siblings.
        """
        for name, old in before.items():
            new = fingerprint(self._snapshot(self._shared[name]))
            if new == old:
                continue
            self._violation(
                "SAN201",
                f"kernel-scope write to shared state '{name}'",
                task=tasks[0] if len(tasks) == 1 else kernel,
                witness=(
                    ("object", name),
                    ("fingerprint", f"{old} -> {new}"),
                    ("batch", f"{kernel}: {', '.join(tasks)}"),
                ),
            )

    # -- engines -------------------------------------------------------

    def _patch_engines(self) -> None:
        # One lifecycle under all three engines: patching the driver's
        # ``run`` puts every engine inside the engine scope.
        from repro.mapreduce.driver import JobDriver

        san = self

        def wrap_run(orig):
            def run(engine, job):
                san._track_engine_shared(engine)
                with san.engine_scope():
                    return orig(engine, job)

            return run

        self._patch(JobDriver, "run", wrap_run)

    def _track_engine_shared(self, engine: Any) -> None:
        """Auto-register the partition cache (chained jobs) so kernel
        writes to cached blocks are race-checked by key set."""
        if "race" not in self.config.detectors:
            return
        cache = getattr(
            getattr(getattr(engine, "cluster", None), "hdfs", None),
            "block_cache",
            None,
        )
        if cache is not None and "hdfs.block_cache" not in self._shared:
            entries = cache._entries
            self._shared["hdfs.block_cache"] = lambda: sorted(
                repr(key) for key in entries
            )

    # -- journal -------------------------------------------------------

    def _patch_journal(self) -> None:
        from repro.mapreduce.journal import JobJournal

        san = self

        def wrap_append(orig):
            def append(journal, kind, **fields):
                san._clock += 1
                return orig(journal, kind, **fields)

            return append

        self._patch(JobJournal, "append", wrap_append)

    # -- tracer / spans ------------------------------------------------

    def _patch_tracer(self) -> None:
        from repro.obs.tracer import Tracer

        san = self

        def wrap_absorb(orig):
            def absorb(tracer, trace, *, args=None):
                san._clock += 1
                return orig(tracer, trace, args=args)

            return absorb

        self._patch(Tracer, "absorb", wrap_absorb)
