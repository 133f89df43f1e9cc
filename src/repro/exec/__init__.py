"""Pluggable task execution backends for the three engines.

The engines describe each map/reduce task as a small picklable *spec*; a
registered *kernel* (a pure function of ``(context, spec)``) executes it
and returns a picklable result.  An :class:`Executor` decides where those
kernel invocations run:

* :class:`SerialExecutor`    — inline in the coordinator (the default);
* :class:`ThreadExecutor`    — a thread pool (shared-memory, GIL-bound);
* :class:`MPExecutor`        — a fork-based process pool with batched
  task submission (real multicore execution).

A session has one dispatch method, ``run_batch(kernel, specs)``; a wave
of one (a retry, or every wave under a fault plan) runs inline in the
coordinator on every session.

Determinism is preserved by construction: kernels never touch shared
engine state — all side effects (disk installs, shuffle registration,
chunk delivery, fault injection, recovery decisions) are replayed by the
coordinator in task order from the kernels' returned effect lists.
"""

from repro.exec.base import (
    ExecSession,
    Executor,
    MPExecutor,
    SerialExecutor,
    ThreadExecutor,
    get_kernel,
    register_kernel,
    resolve_executor,
)

# NOTE: repro.exec.kernels is imported lazily (see base.get_kernel) — the
# kernels module depends on the engine task classes, whose modules import
# this package for resolve_executor and the spec types.

__all__ = [
    "ExecSession",
    "Executor",
    "SerialExecutor",
    "ThreadExecutor",
    "MPExecutor",
    "resolve_executor",
    "register_kernel",
    "get_kernel",
]
