"""Executor protocol and its three implementations.

An engine opens one :class:`ExecSession` per job run, handing it the *job
context* — the non-picklable parts every task of the job shares (the job
object with its closures, the input codec, engine config).  Task *specs*
and kernel *results* are plain picklable data; only they cross process
boundaries.

The :class:`MPExecutor` relies on ``fork``: the pool is created lazily
*after* the session publishes the job context in a module global, so
worker processes inherit the context (closures included) by address-space
copy and nothing unpicklable is ever serialized.  On platforms without
``fork`` the executor degrades to inline execution.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from typing import Any, Callable, Protocol, Sequence, runtime_checkable

__all__ = [
    "Executor",
    "ExecSession",
    "SerialExecutor",
    "ThreadExecutor",
    "MPExecutor",
    "resolve_executor",
    "register_kernel",
    "get_kernel",
]

Kernel = Callable[[Any, Any], Any]

_KERNELS: dict[str, Kernel] = {}


def register_kernel(name: str, fn: Kernel) -> None:
    """Register a task kernel under ``name`` (idempotent re-registration)."""
    _KERNELS[name] = fn


def get_kernel(name: str) -> Kernel:
    try:
        return _KERNELS[name]
    except KeyError:
        pass
    # Deferred registration keeps this module a leaf: the kernels module
    # imports the engine task classes, which import this module.  The
    # import system's own once-only latch makes this thread-safe — no
    # mutable module flag, which would race across kernel invocations.
    from repro.exec import kernels  # noqa: F401

    try:
        return _KERNELS[name]
    except KeyError:
        raise KeyError(
            f"unknown kernel {name!r}; registered: {sorted(_KERNELS)}"
        ) from None


# -- sessions -----------------------------------------------------------------


class ExecSession(Protocol):
    """One job run's view of an executor.

    ``max_batch`` is how many specs the engine should accumulate before a
    ``run_batch`` call (1 for serial execution — the engine then degenerates
    to a per-task loop).  ``run_batch`` returns results in spec order.  A
    wave of one — a retry, or every wave under a fault plan, where the
    coordinator interleaves recovery decisions between attempts — runs
    inline in the coordinator on every session.
    """

    max_batch: int

    def run_batch(self, kernel: str, specs: Sequence[Any]) -> list[Any]: ...

    def __enter__(self) -> "ExecSession": ...

    def __exit__(self, *exc: object) -> bool | None: ...


class _InlineSession:
    """Run kernels inline in the coordinator (serial execution)."""

    max_batch = 1

    def __init__(self, context: Any) -> None:
        self._context = context

    def run_batch(self, kernel: str, specs: Sequence[Any]) -> list[Any]:
        fn = get_kernel(kernel)
        ctx = self._context
        return [fn(ctx, spec) for spec in specs]

    def __enter__(self) -> "_InlineSession":
        return self

    def __exit__(self, *exc: object) -> None:
        self._context = None


class _ThreadSession:
    """Run kernels on a thread pool (results gathered in spec order)."""

    def __init__(self, context: Any, workers: int) -> None:
        self._context = context
        self.workers = workers
        self.max_batch = 2 * workers
        self._pool: ThreadPoolExecutor | None = None

    def _ensure_pool(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(max_workers=self.workers)
        return self._pool

    def run_batch(self, kernel: str, specs: Sequence[Any]) -> list[Any]:
        if len(specs) <= 1:
            return _InlineSession(self._context).run_batch(kernel, specs)
        fn = get_kernel(kernel)
        ctx = self._context
        pool = self._ensure_pool()
        return list(pool.map(lambda spec: fn(ctx, spec), specs))

    def __enter__(self) -> "_ThreadSession":
        return self

    def __exit__(self, *exc: object) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        self._context = None


# The job context inherited by forked pool workers.  Set by the session
# *before* the pool is created so children receive it via fork; holds the
# non-picklable closures (map/reduce functions) that must never cross a
# pipe.
_FORK_CONTEXT: Any = None


def _invoke_chunk(kernel: str, specs: Sequence[Any]) -> list[Any]:
    """Pool entry point: run one chunk of specs against the inherited context."""
    fn = get_kernel(kernel)
    ctx = _FORK_CONTEXT
    return [fn(ctx, spec) for spec in specs]


def fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


class _ForkSession:
    """Run kernels on a fork-based process pool with batched submission.

    Specs are submitted in contiguous chunks (one future per chunk, not
    per task) so the per-submission pickle/IPC overhead amortises across a
    whole wave — the "batched task submission" the map phase needs to
    scale past per-task dispatch latency.
    """

    def __init__(self, context: Any, workers: int) -> None:
        self._context = context
        self.workers = workers
        self.max_batch = 4 * workers
        self._pool: ProcessPoolExecutor | None = None

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            global _FORK_CONTEXT
            _FORK_CONTEXT = self._context
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=multiprocessing.get_context("fork"),
            )
        return self._pool

    def run_batch(self, kernel: str, specs: Sequence[Any]) -> list[Any]:
        if len(specs) <= 1:
            return _InlineSession(self._context).run_batch(kernel, specs)
        pool = self._ensure_pool()
        nchunks = min(self.workers, len(specs))
        size = (len(specs) + nchunks - 1) // nchunks
        chunks = [specs[i : i + size] for i in range(0, len(specs), size)]
        futures = [pool.submit(_invoke_chunk, kernel, chunk) for chunk in chunks]
        out: list[Any] = []
        for future in futures:
            out.extend(future.result())
        return out

    def __enter__(self) -> "_ForkSession":
        return self

    def __exit__(self, *exc: object) -> None:
        global _FORK_CONTEXT
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        _FORK_CONTEXT = None
        self._context = None


# -- executors ----------------------------------------------------------------


@runtime_checkable
class Executor(Protocol):
    """Factory of per-job execution sessions."""

    name: str
    workers: int

    def session(self, context: Any) -> ExecSession: ...


class SerialExecutor:
    """Today's behaviour: every task runs inline in the coordinator."""

    name = "serial"
    workers = 1

    def session(self, context: Any) -> _InlineSession:
        return _InlineSession(context)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "SerialExecutor()"


class ThreadExecutor:
    """Thread-pool execution: shared memory, bounded by the GIL.

    Useful as a determinism cross-check and for kernels that release the
    GIL; map waves still submit in batches.
    """

    name = "threads"

    def __init__(self, workers: int | None = None) -> None:
        self.workers = max(1, workers if workers is not None else _default_workers())

    def session(self, context: Any) -> _ThreadSession:
        return _ThreadSession(context, self.workers)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ThreadExecutor(workers={self.workers})"


class MPExecutor:
    """Fork-based process-pool execution — real multicore task parallelism.

    Falls back to inline execution where ``fork`` is unavailable (the
    context cannot be shipped to spawn-style children without pickling
    job closures).
    """

    name = "processes"

    def __init__(self, workers: int | None = None) -> None:
        self.workers = max(1, workers if workers is not None else _default_workers())

    def session(self, context: Any) -> ExecSession:
        if not fork_available():  # pragma: no cover - non-POSIX only
            return _InlineSession(context)
        return _ForkSession(context, self.workers)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"MPExecutor(workers={self.workers})"


def _default_workers() -> int:
    return os.cpu_count() or 1


def resolve_executor(value: "Executor | str | None") -> "Executor":
    """Turn a constructor argument into an executor.

    Accepts an :class:`Executor` instance, ``None`` (serial), or a spec
    string: ``"serial"``, ``"threads"``, ``"threads:4"``, ``"processes"``,
    ``"processes:4"``.
    """
    if value is None:
        return SerialExecutor()
    if isinstance(value, str):
        name, _, arg = value.partition(":")
        workers = None
        if arg:
            try:
                workers = int(arg)
            except ValueError:
                raise ValueError(f"bad executor worker count in {value!r}") from None
            if workers < 1:
                raise ValueError(f"executor worker count must be >= 1: {value!r}")
        if name == "serial":
            if workers not in (None, 1):
                raise ValueError("serial executor takes no worker count")
            return SerialExecutor()
        if name in ("threads", "thread"):
            return ThreadExecutor(workers)
        if name in ("processes", "process", "mp"):
            return MPExecutor(workers)
        raise ValueError(f"unknown executor spec {value!r}")
    if isinstance(value, Executor):
        return value
    raise TypeError(f"cannot resolve executor from {value!r}")
