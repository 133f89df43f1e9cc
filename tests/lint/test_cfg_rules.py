"""REP201 and REP202 fixture suites: one true positive, one clean guard
and one suppression per rule, all injected hermetically via
``program_modules_override`` (plus kernel/executor source overrides for
the context model)."""

import textwrap

from repro.lint import LintConfig, lint_source

ENGINE_MOD = "repro/core/fixture.py"
KERNEL_MOD = "repro/exec/kernels.py"
EXEC_MOD = "repro/exec/base.py"

BASE_KERNEL_SRC = textwrap.dedent(
    """
    class MapSpec:
        pass

    def wordcount_kernel(ctx, spec):
        return spec

    register_kernel("wordcount", wordcount_kernel)
    """
)

BASE_EXEC_SRC = textwrap.dedent(
    """
    def _invoke(spec):
        return spec

    def run(pool, spec):
        return pool.submit(_invoke, spec)
    """
)


def lint(source, *, modpath=ENGINE_MOD, modules=None, kernel_src=None,
         exec_src=None, **cfg_kw):
    kernel_src = textwrap.dedent(kernel_src) if kernel_src else BASE_KERNEL_SRC
    exec_src = textwrap.dedent(exec_src) if exec_src else BASE_EXEC_SRC
    source = textwrap.dedent(source)
    over = {KERNEL_MOD: kernel_src, EXEC_MOD: exec_src}
    over.update(modules or {})
    over.setdefault(modpath, source)
    config = LintConfig(
        program_modules_override=over,
        kernel_source_override=kernel_src,
        executor_source_override=exec_src,
        **cfg_kw,
    )
    return lint_source(source, modpath=modpath, config=config)


def rules_of(findings):
    return [f.rule for f in findings]


# -- REP201: shared mutable state across contexts -----------------------------


class TestREP201:
    def test_kernel_scope_global_write_flagged(self):
        src = """
        TOTAL = 0

        class MapSpec:
            pass

        def tally_kernel(ctx, spec):
            global TOTAL
            TOTAL = TOTAL + 1
            return TOTAL

        register_kernel("tally", tally_kernel)
        """
        findings = lint(
            src, modpath=KERNEL_MOD, kernel_src=src, select=("REP201",)
        )
        assert rules_of(findings) == ["REP201"]
        assert "TOTAL" in findings[0].message
        assert "kernel scope" in findings[0].message

    def test_coordinator_write_kernel_read_flagged(self):
        src = """
        MODE = "strict"

        class MapSpec:
            pass

        def set_mode(mode):
            global MODE
            MODE = mode

        def mode_kernel(ctx, spec):
            return MODE

        register_kernel("mode", mode_kernel)
        """
        findings = lint(
            src, modpath=KERNEL_MOD, kernel_src=src, select=("REP201",)
        )
        assert rules_of(findings) == ["REP201"]
        assert "read here in kernel scope" in findings[0].message

    def test_coordinator_only_state_is_clean(self):
        src = """
        _JOBS = 0

        def schedule(job):
            global _JOBS
            _JOBS = _JOBS + 1
            return _JOBS
        """
        assert lint(src, select=("REP201",)) == []

    def test_suppression_on_the_read_site(self):
        # The coordinator-write/kernel-read shape is reported at the
        # read, so that is where the justification lives.
        src = """
        CONFIG = None

        class MapSpec:
            pass

        def freeze_config(cfg):
            global CONFIG
            CONFIG = cfg

        def cfg_kernel(ctx, spec):
            return CONFIG  # reprolint: disable=REP201 -- frozen before workers start

        register_kernel("cfg", cfg_kernel)
        """
        assert lint(
            src, modpath=KERNEL_MOD, kernel_src=src, select=("REP201",)
        ) == []

    def test_thread_executor_shared_state_race_regression(self):
        # The synthetic regression: a worker entry submitted to the pool
        # in the executor module mutates executor-module state — exactly
        # the shape of a results-dict race under the thread executor.
        exec_src = """
        _LAST_RESULT = None

        def _invoke(spec):
            global _LAST_RESULT
            _LAST_RESULT = spec
            return _LAST_RESULT

        def run(pool, spec):
            return pool.submit(_invoke, spec)
        """
        findings = lint(
            exec_src, modpath=EXEC_MOD, exec_src=exec_src, select=("REP201",)
        )
        assert rules_of(findings) == ["REP201"]
        assert "_LAST_RESULT" in findings[0].message

    def test_write_two_modules_from_the_kernel_reported_at_the_write(self):
        # kernel -> helper (another module) -> helper -> module-global
        # write: one finding, in the module that holds the write, with
        # the whole chain; nothing at the kernel.
        kernel_src = """
        from repro.core.tally import note

        class MapSpec:
            pass

        def tally_kernel(ctx, spec):
            return note(spec)

        register_kernel("tally", tally_kernel)
        """
        tally = textwrap.dedent(
            """
            _SEEN = []

            def note(x):
                return _record(x)

            def _record(x):
                _SEEN.append(x)
                return x
            """
        )
        modules = {"repro/core/tally.py": tally}
        at_write = lint(
            tally, modpath="repro/core/tally.py", modules=modules,
            kernel_src=kernel_src, select=("REP201",),
        )
        assert [(f.rule, f.line) for f in at_write] == [("REP201", 8)]
        assert "tally_kernel (repro/exec/kernels.py) -> note" in at_write[0].message
        assert "-> _record (repro/core/tally.py)" in at_write[0].message
        assert lint(
            kernel_src, modpath=KERNEL_MOD, modules=modules, kernel_src=kernel_src
        ) == []

    def test_helper_reached_only_through_a_comprehension_is_in_kernel_scope(self):
        # The kernel's one call into the stateful module sits in a list
        # comprehension's element: an edge the statement interpreter this
        # scan replaced never recorded, so the write went unreported.
        kernel_src = """
        from repro.core.tally import note

        class MapSpec:
            pass

        def tally_kernel(ctx, specs):
            return [note(s) for s in specs]

        register_kernel("tally", tally_kernel)
        """
        tally = textwrap.dedent(
            """
            _SEEN = []

            def note(x):
                _SEEN.append(x)
                return x
            """
        )
        findings = lint(
            tally, modpath="repro/core/tally.py",
            modules={"repro/core/tally.py": tally},
            kernel_src=kernel_src, select=("REP201",),
        )
        assert [(f.rule, f.line) for f in findings] == [("REP201", 5)]
        assert "tally_kernel (repro/exec/kernels.py) -> note" in findings[0].message

    def test_singleton_read_from_a_kernel_flagged_pool_entry_exempt(self):
        # The executor's pool entry reads the fork context by design;
        # the same read reached from a registered kernel is a violation.
        exec_src = """
        _FORK_CONTEXT = None

        def _invoke(spec):
            return _FORK_CONTEXT, spec

        def current():
            return _FORK_CONTEXT

        def run(pool, spec):
            return pool.submit(_invoke, spec)
        """
        kernel_src = """
        from repro.exec.base import current

        class MapSpec:
            pass

        def peek_kernel(ctx, spec):
            return current()

        register_kernel("peek", peek_kernel)
        """
        findings = lint(
            exec_src, modpath=EXEC_MOD, exec_src=exec_src,
            kernel_src=kernel_src, select=("REP201",),
        )
        assert [(f.rule, f.line) for f in findings] == [("REP201", 8)]
        assert "_FORK_CONTEXT" in findings[0].message
        assert "peek_kernel" in findings[0].message

    def test_write_through_an_import_alias_names_the_other_module(self):
        # Another module's global written directly from kernel scope —
        # REP002's state half flagged all three; imports bound inside
        # the function are locals and stay clean.
        src = """
        import repro.core.stateful as st
        from repro.core.stateful import CACHE

        class MapSpec:
            pass

        def poke_kernel(ctx, spec):
            st.COUNT = 1
            st.SEEN.append(spec)
            CACHE[spec] = ctx
            import repro.core.other as local_mod
            local_mod.COUNT = 2
            return spec

        register_kernel("poke", poke_kernel)
        """
        findings = lint(
            src, modpath=KERNEL_MOD, kernel_src=src, select=("REP201",)
        )
        assert [(f.rule, f.line) for f in findings] == [
            ("REP201", 9), ("REP201", 10), ("REP201", 11),
        ]
        assert "'repro.core.stateful'" in findings[0].message
        assert "'repro.core.stateful.CACHE'" in findings[2].message


# -- REP202: fork-unsafe captures ---------------------------------------------


class TestREP202:
    def test_open_handle_on_spec_ctor_flagged(self):
        src = """
        from repro.exec.kernels import MapSpec

        def build(path):
            fh = open(path)
            return MapSpec(fh)
        """
        findings = lint(src, select=("REP202",))
        assert rules_of(findings) == ["REP202"]
        assert "open file handle" in findings[0].message

    def test_generator_on_spec_field_flagged(self):
        src = """
        from repro.exec.kernels import MapSpec

        def rows(path):
            yield path

        def build(path):
            spec = MapSpec()
            spec.stream = rows(path)
            return spec
        """
        findings = lint(src, select=("REP202",))
        assert rules_of(findings) == ["REP202"]
        assert "live generator" in findings[0].message

    def test_kernel_capturing_module_lock_flagged(self):
        src = """
        import threading

        _GUARD = threading.Lock()

        class MapSpec:
            pass

        def guarded_kernel(ctx, spec):
            with _GUARD:
                return spec

        register_kernel("guarded", guarded_kernel)
        """
        findings = lint(
            src, modpath=KERNEL_MOD, kernel_src=src, select=("REP202",)
        )
        assert rules_of(findings) == ["REP202"]
        assert "thread lock" in findings[0].message

    def test_plain_values_on_specs_are_clean(self):
        src = """
        from repro.exec.kernels import MapSpec

        def build(path, n):
            spec = MapSpec(str(path), n + 1)
            spec.retries = 3
            return spec
        """
        assert lint(src, select=("REP202",)) == []

    def test_suppression(self):
        src = """
        from repro.exec.kernels import MapSpec

        def build(path):
            fh = open(path)
            return MapSpec(fh)  # reprolint: disable=REP202 -- serial-only harness
        """
        assert lint(src, select=("REP202",)) == []
