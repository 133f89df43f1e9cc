"""The execution-context layer: the worker/coordinator closure over the
call graph, and its entry -> function chains.
"""

import textwrap

from repro.lint import LintConfig
from repro.lint.core import LintContext, LintModule

ENGINE_MOD = "repro/core/fixture.py"
KERNEL_MOD = "repro/exec/kernels.py"
EXEC_MOD = "repro/exec/base.py"


# -- execution contexts -------------------------------------------------------

KERNEL_SRC = textwrap.dedent(
    """
    def wordcount_kernel(ctx, spec):
        return shared_tally(spec)

    def shared_tally(x):
        return x

    class MapSpec:
        pass

    register_kernel("wordcount", wordcount_kernel)
    """
)

EXEC_SRC = textwrap.dedent(
    """
    def _invoke(spec):
        return spec

    def run(pool, spec):
        return pool.submit(_invoke, spec)
    """
)


def context_of(extra_modules=None, **cfg_kw):
    modules = {KERNEL_MOD: KERNEL_SRC, EXEC_MOD: EXEC_SRC}
    modules.update(extra_modules or {})
    config = LintConfig(
        program_modules_override=modules,
        kernel_source_override=KERNEL_SRC,
        executor_source_override=EXEC_SRC,
        **cfg_kw,
    )
    # The kernel module as the program holds it: the shared classification.
    kernels = LintModule(KERNEL_SRC, path=KERNEL_MOD, modpath=KERNEL_MOD)
    return LintContext(config).exec_contexts(kernels)


class TestExecContexts:
    def test_registered_kernel_and_submitted_fn_are_worker_scope(self):
        cx = context_of()
        assert cx.classify(f"{KERNEL_MOD}::wordcount_kernel") == "kernel"
        assert cx.classify(f"{EXEC_MOD}::_invoke") == "kernel"

    def test_coordinator_scope_and_shared_helpers(self):
        engine = textwrap.dedent(
            """
            from repro.exec.kernels import shared_tally

            def schedule():
                return shared_tally(1)
            """
        )
        cx = context_of({ENGINE_MOD: engine})
        assert cx.classify(f"{ENGINE_MOD}::schedule") == "coordinator"
        # Called from the kernel and from the scheduler: both.
        assert cx.classify(f"{KERNEL_MOD}::shared_tally") == "both"
        assert cx.classify("repro/nowhere.py::ghost") is None

    def test_worker_chain_runs_from_the_entry_to_the_function(self):
        cx = context_of()
        kernel = f"{KERNEL_MOD}::wordcount_kernel"
        assert cx.worker_chain(kernel) == (kernel,)
        assert cx.worker_chain(f"{KERNEL_MOD}::shared_tally") == (
            kernel,
            f"{KERNEL_MOD}::shared_tally",
        )
        # Pool entry points are worker scope but not kernel-rooted.
        assert f"{EXEC_MOD}::_invoke" in cx.pool
        assert f"{EXEC_MOD}::_invoke" not in cx.kernel
