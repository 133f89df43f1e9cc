"""Kernel isolation, checked on real jobs: tasks share no hidden state.

Re-execution after a failure, speculative backups and HOP's pipelined
pushes all assume a map or reduce task is a pure function of its input
split.  Three exact checks hold the engines to that at run time:

1. ``register_kernel`` refuses a name that is already registered
   (``tests/exec/test_executors.py``), so a task cannot re-register
   itself into the coordinator's registry;
2. a job leaves every ``repro`` module's state as it found it: every
   module-level ``dict`` / ``list`` / ``set`` / ``bytearray`` outside
   ``repro.lint`` and ``repro.san`` (which hold their own fixtures)
   fingerprints the same after each engine has run ``page-frequency``
   and ``sessionization`` serially and on two threads.  ``processes:2``
   is left out on purpose: a forked worker's write lands in the child,
   where the parent cannot see it;
3. no ``repro`` module holds a fork-unsafe OS resource at module scope,
   which a forked worker would inherit in whatever state the fork
   caught it.

Each check is seeded below the way ``tests/lint/test_self_clean.py``
seeds its tripwires, so a check that can no longer fire fails too.
"""

import importlib
import io
import pkgutil
import socket
import subprocess
import sys
import threading
import types

import pytest

import repro
from repro.exec.base import SerialExecutor, register_kernel
from repro.san.harness import fingerprint
from repro.workloads import paper_cell

#: Packages whose module state is not tracked: their fixtures write it.
UNTRACKED = ("repro.lint.", "repro.san.")
STATE_TYPES = (dict, list, set, bytearray)
#: Fork-unsafe value types -> what to call them in a failure.
UNSAFE_KINDS = {
    type(threading.Lock()): "lock",
    type(threading.RLock()): "rlock",
    threading.Condition: "condition",
    threading.Semaphore: "semaphore",
    threading.Event: "event",
    socket.socket: "socket",
    io.IOBase: "open file",
    types.GeneratorType: "generator",
    subprocess.Popen: "process handle",
}

WORKLOADS = ("page-frequency", "sessionization")
ENGINES = ("hadoop", "hop", "onepass")
EXECUTORS = ("serial", "threads:2")
#: Two input splits per workload, so a two-thread map wave runs on threads.
RECORDS = 10_000


def repro_modules():
    """Every ``repro`` module, imported (``__main__`` apart)."""
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith(".__main__"):
            importlib.import_module(info.name)
    return [
        module
        for name, module in sorted(sys.modules.items())
        if (name == "repro" or name.startswith("repro.")) and not name.endswith(".__main__")
    ]


def module_state(modules):
    """``module.name`` -> fingerprint, for every module-level container."""
    return {
        f"{module.__name__}.{name}": fingerprint(value)
        for module in modules
        if not (module.__name__ + ".").startswith(UNTRACKED)
        for name, value in vars(module).items()
        if isinstance(value, STATE_TYPES) and not name.startswith("__")
    }


def unsafe_globals(modules):
    """(module, name, kind) for every fork-unsafe value at module scope."""
    return sorted(
        (module.__name__, name, kind)
        for module in modules
        for name, value in vars(module).items()
        for cls, kind in UNSAFE_KINDS.items()
        if isinstance(value, cls)
    )


def run_job(workload, engine, executor):
    cluster, engine_cls, job = paper_cell(workload, engine, RECORDS, 3)
    assert len(cluster.hdfs.input_splits("in")) >= 2
    engine_cls(cluster, executor=executor).run(job)


def changed(before, after):
    return sorted(name for name in before.keys() | after.keys() if before.get(name) != after.get(name))


@pytest.fixture(scope="module")
def modules():
    return repro_modules()


def test_a_job_leaves_module_state_as_it_found_it(modules):
    # Warm-up, one job per engine: lazy imports settle, and the driver
    # makes its engine's logger (``repro.obs.log._loggers``) on first use.
    for engine in ENGINES:
        run_job("page-frequency", engine, "serial")
    before = module_state(modules)
    assert before, "no module-level container to watch"
    for workload in WORKLOADS:
        for engine in ENGINES:
            for executor in EXECUTORS:
                run_job(workload, engine, executor)
                moved = changed(before, module_state(modules))
                assert not moved, f"{workload}/{engine}/{executor} changed module state: {moved}"


def test_no_module_holds_a_fork_unsafe_resource(modules):
    assert not unsafe_globals(modules)


# -- the checks can fire -------------------------------------------------------

#: The seeded violation of check 2: a kernel that appends to module state.
_NOTES: list = []


def _noting_kernel(ctx, spec):
    _NOTES.append(spec)
    return spec


register_kernel("test_module_state.noting", _noting_kernel)


def test_a_kernel_writing_a_module_list_changes_module_state(modules):
    here = [*modules, sys.modules[__name__]]
    before = module_state(here)
    with SerialExecutor().session(context=None) as session:
        session.run_batch("test_module_state.noting", [1, 2])
    assert changed(before, module_state(here)) == [f"{__name__}._NOTES"]


def test_a_module_level_lock_is_a_fork_unsafe_global():
    scratch = types.ModuleType("repro.scratch")
    scratch._GUARD = threading.Lock()
    scratch._FLAG = threading.Event()
    scratch._LOCAL = threading.local()  # per-thread storage is fork-safe
    assert unsafe_globals([scratch]) == [
        ("repro.scratch", "_FLAG", "event"),
        ("repro.scratch", "_GUARD", "lock"),
    ]
