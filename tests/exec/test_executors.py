"""Unit tests for the pluggable task executor subsystem (repro.exec)."""

import dataclasses

import pytest

from repro.exec import kernels
from repro.exec import (
    Executor,
    MPExecutor,
    SerialExecutor,
    ThreadExecutor,
    get_kernel,
    register_kernel,
    resolve_executor,
)
from repro.exec.base import _InlineSession, fork_available


# A tiny picklable kernel for session tests.  Registered at import time so
# forked pool workers inherit it.
def _square_kernel(context, spec):
    return (context["scale"] * spec) ** 2


register_kernel("test_square", _square_kernel)


class TestResolveExecutor:
    def test_none_is_serial(self):
        ex = resolve_executor(None)
        assert isinstance(ex, SerialExecutor)
        assert ex.name == "serial"
        assert ex.workers == 1

    def test_serial_string(self):
        assert isinstance(resolve_executor("serial"), SerialExecutor)

    def test_threads_default_workers(self):
        ex = resolve_executor("threads")
        assert isinstance(ex, ThreadExecutor)
        assert ex.workers >= 1

    def test_threads_with_count(self):
        ex = resolve_executor("threads:3")
        assert isinstance(ex, ThreadExecutor)
        assert ex.workers == 3

    def test_thread_alias(self):
        assert isinstance(resolve_executor("thread:2"), ThreadExecutor)

    def test_processes_with_count(self):
        ex = resolve_executor("processes:2")
        assert isinstance(ex, MPExecutor)
        assert ex.workers == 2

    def test_process_and_mp_aliases(self):
        assert isinstance(resolve_executor("process"), MPExecutor)
        assert isinstance(resolve_executor("mp:4"), MPExecutor)

    def test_instance_passthrough(self):
        ex = ThreadExecutor(2)
        assert resolve_executor(ex) is ex

    def test_executors_satisfy_protocol(self):
        for ex in (SerialExecutor(), ThreadExecutor(2), MPExecutor(2)):
            assert isinstance(ex, Executor)

    def test_serial_rejects_worker_count(self):
        with pytest.raises(ValueError):
            resolve_executor("serial:2")

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            resolve_executor("threads:0")

    def test_rejects_non_numeric_count(self):
        with pytest.raises(ValueError):
            resolve_executor("threads:lots")

    def test_rejects_unknown_name(self):
        with pytest.raises(ValueError):
            resolve_executor("gpu")

    def test_rejects_wrong_type(self):
        with pytest.raises(TypeError):
            resolve_executor(42)


class TestKernelRegistry:
    def test_registered_kernel_is_returned(self):
        assert get_kernel("test_square") is _square_kernel

    def test_unknown_kernel_raises(self):
        with pytest.raises(KeyError, match="no_such_kernel"):
            get_kernel("no_such_kernel")

    def test_a_name_registers_once(self):
        # A task that re-registers itself would write the coordinator's
        # registry from kernel scope (tests/exec/test_module_state.py).
        with pytest.raises(ValueError, match="'test_square' is already registered"):
            register_kernel("test_square", _square_kernel)
        assert get_kernel("test_square") is _square_kernel

    def test_engine_kernels_register_lazily(self):
        # get_kernel triggers registration of the built-in engine kernels.
        for name in ("hadoop_map", "hadoop_reduce", "hop_map", "onepass_map"):
            assert callable(get_kernel(name))

    @pytest.mark.parametrize(
        "name",
        sorted(
            name for name, cls in vars(kernels).items()
            if name.endswith("Spec") and dataclasses.is_dataclass(cls)
        ),
    )
    def test_task_specs_have_no_instance_dict(self, name):
        # One spec crosses the executor per task: slots keep it small.
        spec_cls = getattr(kernels, name)
        assert not hasattr(object.__new__(spec_cls), "__dict__")


CONTEXT = {"scale": 2}
SPECS = list(range(7))
EXPECTED = [(2 * s) ** 2 for s in SPECS]


class TestSessions:
    def test_serial_session_batches_of_one(self):
        with SerialExecutor().session(CONTEXT) as session:
            assert session.max_batch == 1
            assert session.run_batch("test_square", SPECS) == EXPECTED
            assert session.run_batch("test_square", [5]) == [100]

    def test_thread_session_preserves_spec_order(self):
        with ThreadExecutor(3).session(CONTEXT) as session:
            assert session.max_batch == 6
            assert session.run_batch("test_square", SPECS) == EXPECTED
            assert session.run_batch("test_square", [5]) == [100]

    @pytest.mark.skipif(not fork_available(), reason="requires fork start method")
    def test_fork_session_preserves_spec_order(self):
        with MPExecutor(2).session(CONTEXT) as session:
            assert session.max_batch == 8
            assert session.run_batch("test_square", SPECS) == EXPECTED
            assert session.run_batch("test_square", [5]) == [100]

    @pytest.mark.skipif(not fork_available(), reason="requires fork start method")
    def test_fork_session_single_spec_runs_inline(self):
        # A one-element batch must not spin up the pool.
        session = MPExecutor(2).session(CONTEXT)
        with session:
            assert session.run_batch("test_square", [3]) == [36]
            assert session._pool is None

    def test_thread_session_single_spec_runs_inline(self):
        session = ThreadExecutor(2).session(CONTEXT)
        with session:
            assert session.run_batch("test_square", [3]) == [36]
            assert session._pool is None

    def test_sessions_are_reusable_across_batches(self):
        with ThreadExecutor(2).session(CONTEXT) as session:
            first = session.run_batch("test_square", SPECS)
            second = session.run_batch("test_square", SPECS)
        assert first == second == EXPECTED

    def test_inline_session_releases_context_on_exit(self):
        session = _InlineSession(CONTEXT)
        with session:
            pass
        assert session._context is None
