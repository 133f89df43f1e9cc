"""The CFG layer's substrate: builder and execution contexts.

These tests pin the graph shapes the REP20x rules depend on — exception
edges, the once-built ``finally`` fan-out, acyclic-forward reachability
— plus the worker/coordinator closure and its entry -> function chains.
"""

import ast
import textwrap

from repro.lint import LintConfig
from repro.lint.cfg import build_cfg, function_cfgs
from repro.lint.core import LintContext, LintModule

ENGINE_MOD = "repro/core/fixture.py"
KERNEL_MOD = "repro/exec/kernels.py"
EXEC_MOD = "repro/exec/base.py"


def cfg_of(source):
    tree = ast.parse(textwrap.dedent(source))
    fn = next(
        n for n in tree.body
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
    )
    return build_cfg(fn)


def block_for(cfg, predicate):
    for block in cfg.blocks:
        if block.node is not None and predicate(block.node):
            return block
    raise AssertionError("no block matched")


def assign_block(cfg, name):
    return block_for(
        cfg,
        lambda n: isinstance(n, ast.Assign)
        and isinstance(n.targets[0], ast.Name)
        and n.targets[0].id == name,
    )


class TestBuilder:
    def test_linear_function_chains_through_to_exit(self):
        cfg = cfg_of(
            """
            def f(x):
                a = x
                b = a
                return b
            """
        )
        a = assign_block(cfg, "a")
        b = assign_block(cfg, "b")
        assert (b.index, "flow") in a.succs
        ret = block_for(cfg, lambda n: isinstance(n, ast.Return))
        assert (cfg.exit, "return") in ret.succs

    def test_branch_edges_and_join(self):
        cfg = cfg_of(
            """
            def f(x):
                if x:
                    a = 1
                else:
                    b = 2
                c = 3
            """
        )
        head = block_for(cfg, lambda n: isinstance(n, ast.If))
        kinds = sorted(kind for _i, kind in head.succs)
        assert kinds == ["false", "true"]
        c = assign_block(cfg, "c")
        # Both arms reach the statement after the join.
        reach = cfg.reachable([head.index], forward=True)
        assert c.index in reach

    def test_loop_back_edge_and_acyclic_reachability(self):
        cfg = cfg_of(
            """
            def f(xs):
                total = 0
                for x in xs:
                    total = total + x
                done = 1
            """
        )
        # Two 'total' assigns; take the one inside the loop.
        loop = block_for(cfg, lambda n: isinstance(n, ast.For))
        inner = next(
            b
            for b in cfg.blocks
            if isinstance(b.node, ast.Assign) and (loop.index, "true") in b.preds
        )
        assert (loop.index, "back") in inner.succs
        # Acyclic-forward from the body does not wrap around the loop —
        # without a break, even the code after the loop is only reachable
        # through the back edge.
        ahead = cfg.reachable([inner.index], forward=True, include_back=False)
        assert loop.index not in ahead
        assert assign_block(cfg, "done").index not in ahead
        full = cfg.reachable([inner.index], forward=True)
        assert assign_block(cfg, "done").index in full

    def test_call_gets_exception_edge_to_exit(self):
        cfg = cfg_of(
            """
            def f(x):
                y = parse(x)
                return y
            """
        )
        y = assign_block(cfg, "y")
        assert (cfg.exit, "exc") in y.succs

    def test_try_except_routes_body_raises_to_handler(self):
        cfg = cfg_of(
            """
            def f(x):
                try:
                    y = parse(x)
                except ValueError:
                    y = None
                return y
            """
        )
        y = assign_block(cfg, "y")
        handler = block_for(cfg, lambda n: isinstance(n, ast.ExceptHandler))
        exc_targets = [i for i, kind in y.succs if kind == "exc"]
        assert exc_targets, "body call should have an exception edge"
        reach = cfg.reachable(exc_targets, forward=True, include_starts=True)
        assert handler.index in reach

    def test_finally_is_built_once_and_fans_out(self):
        cfg = cfg_of(
            """
            def f(x):
                try:
                    y = parse(x)
                    return y
                finally:
                    cleanup()
            """
        )
        fin_calls = [
            b
            for b in cfg.blocks
            if b.node is not None
            and isinstance(b.node, ast.Expr)
            and isinstance(b.node.value, ast.Call)
        ]
        assert len(fin_calls) == 1, "finally body must be built exactly once"
        fin = fin_calls[0]
        kinds = {kind for _i, kind in fin.succs}
        # Fan-out: the finally continues to the return target and carries
        # the in-flight exception outward.
        assert "return" in kinds
        assert "exc" in kinds
        # The return inside try routes *through* the finally.
        ret = block_for(cfg, lambda n: isinstance(n, ast.Return))
        assert any(
            cfg.blocks[i].kind == "finally" for i, _k in ret.succs
        ) or any(i == fin.index for i, _k in ret.succs)

    def test_break_in_try_reaches_loop_exit_through_finally(self):
        cfg = cfg_of(
            """
            def f(xs):
                for x in xs:
                    try:
                        check(x)
                        break
                    finally:
                        cleanup()
                done = 1
            """
        )
        brk = block_for(cfg, lambda n: isinstance(n, ast.Break))
        done = assign_block(cfg, "done")
        reach = cfg.reachable([brk.index], forward=True)
        assert done.index in reach

    def test_live_excludes_code_after_return(self):
        cfg = cfg_of(
            """
            def f(x):
                return x
                dead = 1
            """
        )
        dead = assign_block(cfg, "dead")
        assert dead.index not in cfg.live()

    def test_function_cfgs_covers_methods(self):
        tree = ast.parse(
            textwrap.dedent(
                """
                def top(): pass

                class C:
                    def m(self): pass
                """
            )
        )
        names = [qual for qual, _fn, _cfg in function_cfgs(tree)]
        assert names == ["top", "C.m"]


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
