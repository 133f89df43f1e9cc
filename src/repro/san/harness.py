"""The reprosan harness: scoped instrumentation of real engine runs.

One :class:`Sanitizer` instruments the whole process while installed
(``with Sanitizer() as san: ...``): executor sessions, engine ``run``
methods, the job journal, the tracer absorb path, span handles, run
writers, record batches and the nondeterminism sentinels.  All hooks are
*observing passthroughs* — the run executes exactly as it would
unsanitized (same kernels, same order, same output bytes), which is what
lets the battery byte-compare sanitized vs unsanitized runs.

Detector wiring (see docs/SANITIZERS.md for the full matrix):

* ``race`` — each executor batch is a fork/join window: registered
  shared objects and the batch's specs are fingerprinted at the fork and
  again at the join, and any change is a kernel-scope write the
  coordinator never ordered (SAN201 / REP201).
* ``sentinel`` — wall-clock/entropy calls inside engine scope report
  SAN001 (REP101) via :mod:`repro.san.sentinels`.
* ``resource`` — spans, run writers, journal segments and record
  batches are ledgered with acquisition stacks
  (:mod:`repro.san.resources`); still-live resources at the
  ``output-commit`` journal append report SAN103 (REP205), leaks on an
  exception unwind report SAN205 (REP005/REP205).
* ``pickle`` — every spec entering an executor batch is round-tripped
  and scanned (:mod:`repro.san.pickles`): SAN102 (REP102) / SAN202
  (REP202).

Scope rules: detectors only observe between engine ``run`` entry and
exit (``_ENGINE_DEPTH``), so CLI scaffolding may freely read the clock.
Injected faults are not leaks: a ``TaskFailure``/``FetchFailedError``
unwinding a batch drops that attempt's acquisitions (the simulated
worker died; its OS reclaims them), and a ``CoordinatorCrash`` drops
the whole ledger (the simulated coordinator died).  That is what keeps
chaos/fault-plan runs sanitizer-clean.

Logical determinism: the sanitizer's clock ticks on tracer ``absorb``
and journal appends — coordinator-ordered events — never on wall time,
so reports are byte-identical across repeated runs.
"""

from __future__ import annotations

import hashlib
import threading
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, fields, is_dataclass
from typing import Any, Callable, Sequence

from repro.san.pickles import check_spec
from repro.san.report import SanReport, Violation
from repro.san.resources import ResourceTracker
from repro.san.sentinels import SentinelPatches, SentinelTrip

__all__ = [
    "Sanitizer",
    "SanitizerConfig",
    "active_sanitizer",
    "fingerprint",
]

ALL_DETECTORS = ("sentinel", "race", "resource", "pickle")

# Process-wide state: one sanitizer may be installed at a time, and the
# engine-scope depth gates every detector.
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


def capture_stack(skip_prefixes: tuple[str, ...] = ()) -> tuple[tuple[str, int, str], ...]:
    """The repo-relative acquisition stack, innermost last."""
    out = []
    for frame in traceback.extract_stack()[:-1]:
        path = frame.filename.replace("\\", "/")
        marker = "/src/repro/"
        idx = path.find(marker)
        if idx < 0:
            continue
        rel = "src/repro/" + path[idx + len(marker) :]
        # Skip the sanitizer's own plumbing, but keep san/matrix.py —
        # the battery fixtures are the acquisition sites under test.
        if rel.startswith("src/repro/san/") and not rel.endswith("matrix.py"):
            continue
        if any(rel.startswith(p) for p in skip_prefixes):
            continue
        out.append((rel, frame.lineno or 0, frame.name))
    return tuple(out[-4:])


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
        self.resources = ResourceTracker()
        self._lock = threading.Lock()
        self._patches: list[tuple[Any, str, Any]] = []
        self._sentinels: SentinelPatches | None = None
        self._installed = False
        self._pid = 0
        self._clock = 0
        self._task_seq = 0
        self._task_names: dict[int, str] = {}
        self._kernel_cache: dict[tuple[str, int], Callable] = {}
        self._shared: dict[str, Any] = {}
        self._recoverable: tuple[type, ...] = ()
        self._crash_exc: type = ()  # type: ignore[assignment]

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
        import os

        from repro.exec import base as exec_base
        from repro.exec import kernels  # noqa: F401 - warm the deferred registry
        from repro.mapreduce.faults import TaskFailure
        from repro.mapreduce.journal import CoordinatorCrash
        from repro.mapreduce.shuffle import FetchFailedError

        self._pid = os.getpid()
        self._recoverable = (TaskFailure, FetchFailedError)
        self._crash_exc = CoordinatorCrash
        if "race" in self.config.detectors:
            self._shared["repro.exec.base._KERNELS"] = exec_base._KERNELS
        self._patch_executors(exec_base)
        self._patch_engines()
        self._patch_journal()
        self._patch_tracer()
        if "resource" in self.config.detectors:
            self._patch_resources()
        if "sentinel" in self.config.detectors:
            self._sentinels = SentinelPatches(self._on_trip)
            self._sentinels.install()
        self._installed = True
        _ACTIVE = self

    def remove(self) -> None:
        global _ACTIVE
        if not self._installed:
            return
        if self._sentinels is not None:
            self._sentinels.remove()
            self._sentinels = None
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
        stack: tuple[tuple[str, int, str], ...] = (),
    ) -> None:
        path, line, func = "<runtime>", 0, ""
        if stack:
            path, line, func = stack[-1]
        with self._lock:
            self.report.add(
                Violation(
                    id=vid,
                    message=message,
                    path=path,
                    line=line,
                    func=func,
                    task=task,
                    clock=self._clock,
                    witness=witness,
                    stack=stack,
                )
            )

    # -- engine scope --------------------------------------------------

    @contextmanager
    def engine_scope(self):
        """Activate the detectors for one engine run."""
        global _ENGINE_DEPTH
        _ENGINE_DEPTH += 1
        try:
            yield
        except BaseException as exc:
            if isinstance(exc, self._crash_exc):
                # Simulated coordinator death: the ledger dies with it.
                self.resources.forget_live()
            else:
                self.resources.note_exception()
            raise
        finally:
            _ENGINE_DEPTH -= 1
            if _ENGINE_DEPTH == 0:
                self._scope_exit_check()

    def _scope_exit_check(self) -> None:
        if "resource" not in self.config.detectors:
            return
        for record in self.resources.take_leaks():
            vid = self.resources.classify(record)
            if vid == "SAN205":
                message = (
                    f"{record.kind} '{record.name}' leaked on an exception "
                    "path (release does not post-dominate acquisition)"
                )
            else:
                message = (
                    f"{record.kind} '{record.name}' still live at "
                    "engine-scope exit"
                )
            self._violation(
                vid,
                message,
                task=record.task,
                witness=(("acquired", f"{record.kind} '{record.name}'"),),
                stack=record.stack,
            )

    def _commit_check(self) -> None:
        """The output-commit barrier: everything but the journal's own
        open segment (sealed by finalize, which follows the commit) must
        be released."""
        if "resource" not in self.config.detectors:
            return
        for record in self.resources.take_leaks(exclude_kinds=("journal.segment",)):
            vid = self.resources.classify(record)
            self._violation(
                vid,
                f"{record.kind} '{record.name}' still live at output commit",
                task=record.task,
                witness=(("acquired", f"{record.kind} '{record.name}'"),),
                stack=record.stack,
            )

    # -- sentinel trips ------------------------------------------------

    def _on_trip(self, dotted: str, message: str) -> None:
        if _ENGINE_DEPTH <= 0:
            return
        if getattr(_TLS, "dispatch_quiet", False):
            return
        import os

        if os.getpid() != self._pid:
            # Fork child: no shared report; surface the trip as a
            # picklable exception the parent records (fail-fast by
            # design — a nondeterministic MP kernel cannot be allowed
            # to keep producing output that will be byte-compared).
            raise SentinelTrip(dotted, message)
        self._violation(
            "SAN001",
            message,
            task=getattr(_TLS, "task", ""),
            witness=(("call", f"{dotted}()"),),
            stack=capture_stack(),
        )

    # -- patch plumbing ------------------------------------------------

    def _patch(self, obj: Any, attr: str, factory: Callable[[Callable], Callable]) -> None:
        original = obj.__dict__[attr]
        setattr(obj, attr, factory(original))
        self._patches.append((obj, attr, original))

    # -- executor instrumentation --------------------------------------

    def _patch_executors(self, exec_base: Any) -> None:
        san = self

        def wrap_get_kernel(orig):
            def get_kernel(name: str):
                fn = orig(name)
                key = (name, id(fn))
                cached = san._kernel_cache.get(key)
                if cached is None:
                    cached = san._wrap_kernel(name, fn)
                    san._kernel_cache[key] = cached
                return cached

            return get_kernel

        self._patch_module_attr(exec_base, "get_kernel", wrap_get_kernel)

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

    def _patch_module_attr(
        self, module: Any, attr: str, factory: Callable[[Callable], Callable]
    ) -> None:
        original = getattr(module, attr)
        setattr(module, attr, factory(original))
        self._patches.append((module, attr, original))

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

    def _wrap_kernel(self, name: str, fn: Callable) -> Callable:
        san = self

        def kernel(ctx, spec):
            prior = getattr(_TLS, "task", "")
            _TLS.task = san._task_names.get(id(spec), name)
            try:
                return fn(ctx, spec)
            finally:
                _TLS.task = prior

        kernel.__name__ = getattr(fn, "__name__", name)
        kernel.__reprosan_wrapped__ = fn  # type: ignore[attr-defined]
        return kernel

    def _sanitized_dispatch(
        self, call: Callable[[], list], kernel: str, specs: Sequence[Any]
    ) -> list:
        """One executor batch as a fork/join window with all four
        detector hooks around the real dispatch."""
        race = "race" in self.config.detectors
        tasks = []
        for spec in specs:
            self._task_seq += 1
            task = f"{kernel}:{self._task_seq}"
            tasks.append(task)
            self._task_names[id(spec)] = task

        if "pickle" in self.config.detectors:
            for task, spec in zip(tasks, specs):
                hit = check_spec(spec)
                if hit is not None:
                    vid, message = hit
                    self._violation(
                        vid,
                        message,
                        task=task,
                        witness=(("spec", type(spec).__name__),),
                        stack=capture_stack(),
                    )

        before_shared: dict[str, str] = {}
        before_specs: list[str] = []
        if race:
            before_shared = {
                name: fingerprint(self._snapshot(value))
                for name, value in self._shared.items()
            }
            before_specs = [fingerprint(spec) for spec in specs]

        marker = self.resources.seq
        try:
            results = call()
        except SentinelTrip as trip:
            # Raised across the fork boundary by a child-process sentinel.
            self._violation(
                "SAN001",
                trip.message,
                task=tasks[0] if len(tasks) == 1 else kernel,
                witness=(("call", f"{trip.dotted}()"),),
            )
            raise
        except self._recoverable:
            # An injected task/fetch fault: the simulated worker died and
            # its OS reclaims the attempt's resources — not a leak.
            self.resources.forget_since(marker)
            raise
        except self._crash_exc:
            raise
        except BaseException:
            self.resources.note_exception()
            raise
        else:
            if race:
                self._check_shared_writes(kernel, tasks, before_shared)
                for task, spec, before in zip(tasks, specs, before_specs):
                    if fingerprint(spec) != before:
                        self._violation(
                            "SAN201",
                            f"kernel mutated its spec in place "
                            f"({type(spec).__name__})",
                            task=task,
                            witness=(("spec", type(spec).__name__),),
                        )
            return results
        finally:
            for spec in specs:
                self._task_names.pop(id(spec), None)

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
        from repro.mapreduce.journal import K_OUTPUT_COMMIT, JobJournal

        san = self

        def wrap_append(orig):
            def append(journal, kind, **fields):
                if kind == K_OUTPUT_COMMIT and _ENGINE_DEPTH > 0:
                    san._commit_check()
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

    def _patch_resources(self) -> None:
        from repro.io.runio import RunWriter
        from repro.mapreduce.journal import JobJournal
        from repro.obs.tracer import _SpanHandle

        self._track(_SpanHandle, "__enter__", "__exit__", "span", lambda h: h._span.name)
        self._track(RunWriter, "__init__", "close", "disk.writer", lambda w: w.path)
        # ``_ensure_segment`` runs on every append; it opens a segment
        # only when the journal holds no handle.
        self._track(
            JobJournal,
            "_ensure_segment",
            "_drop_handle",
            "journal.segment",
            JobJournal._open_segment_path,
            opens=lambda journal: journal._fh is None,
        )

    def _track(
        self,
        cls: type,
        acquire: str,
        release: str,
        kind: str,
        name_of: Callable[[Any], str],
        opens: Callable[[Any], bool] = lambda obj: True,
    ) -> None:
        """Ledger one resource class: a call to ``cls.acquire`` that
        ``opens`` the object records an acquisition named ``name_of(obj)``
        (inside engine scope only); ``cls.release`` releases it."""
        san = self
        tokens: dict[int, int] = {}

        def wrap_acquire(orig):
            def acquired(obj, *args, **kwargs):
                opening = opens(obj)
                out = orig(obj, *args, **kwargs)
                if opening and _ENGINE_DEPTH > 0:
                    tokens[id(obj)] = san.resources.acquire(
                        kind,
                        name_of(obj),
                        task=getattr(_TLS, "task", ""),
                        clock=san._clock,
                        stack=capture_stack(),
                    )
                return out

            return acquired

        def wrap_release(orig):
            def released(obj, *args):
                token = tokens.pop(id(obj), None)
                if token is not None:
                    san.resources.release(token)
                return orig(obj, *args)

            return released

        self._patch(cls, acquire, wrap_acquire)
        self._patch(cls, release, wrap_release)
