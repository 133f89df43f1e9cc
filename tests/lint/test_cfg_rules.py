"""REP201..REP206 fixture suites: one true positive, one clean guard
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

    def test_resource_via_helper_carries_witness(self):
        src = """
        from repro.exec.kernels import MapSpec
        from repro.core.rio import acquire

        def build(path):
            fh = acquire(path)
            return MapSpec(fh)
        """
        helper = textwrap.dedent(
            """
            def acquire(path):
                return open(path)
            """
        )
        findings = lint(
            src, modules={"repro/core/rio.py": helper}, select=("REP202",)
        )
        assert rules_of(findings) == ["REP202"]
        assert "acquire" in findings[0].message  # the witness chain

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


# -- REP203: blocking calls in coordinator scope ------------------------------


class TestREP203:
    def test_direct_sleep_in_coordinator_flagged(self):
        src = """
        import time

        def poll(engine):
            time.sleep(0.5)
            return engine
        """
        findings = lint(src, select=("REP203",))
        assert rules_of(findings) == ["REP203"]
        assert "time.sleep" in findings[0].message
        assert "coordinator-scope" in findings[0].message

    def test_transitive_block_reported_with_chain(self):
        src = """
        from repro.workloads.backoff import settle

        def drain(engine):
            settle()
            return engine
        """
        helper = textwrap.dedent(
            """
            import time

            def settle():
                time.sleep(1)
            """
        )
        # repro/workloads/ is outside the coordinator scope, so the
        # helper has no finding of its own; the caller gets the chain.
        findings = lint(
            src,
            modules={"repro/workloads/backoff.py": helper},
            select=("REP203",),
        )
        assert rules_of(findings) == ["REP203"]
        assert "transitively" in findings[0].message
        assert "settle" in findings[0].message

    def test_kernel_scope_sleep_is_clean(self):
        src = """
        import time

        class MapSpec:
            pass

        def throttled_kernel(ctx, spec):
            time.sleep(0.01)
            return spec

        register_kernel("throttled", throttled_kernel)
        """
        assert lint(
            src, modpath=KERNEL_MOD, kernel_src=src, select=("REP203",)
        ) == []

    def test_transitive_not_duplicated_at_coordinator_callers(self):
        src = """
        import time

        def nap():
            time.sleep(1)

        def outer():
            nap()
        """
        findings = lint(src, select=("REP203",))
        # One finding at nap()'s own sleep; outer is not re-reported.
        assert rules_of(findings) == ["REP203"]
        assert "nap" in findings[0].message

    def test_suppression(self):
        src = """
        import time

        def poll(engine):
            time.sleep(0.5)  # reprolint: disable=REP203 -- bounded startup wait
            return engine
        """
        assert lint(src, select=("REP203",)) == []


# -- REP204: commit-then-emit ordering ----------------------------------------


class TestREP204:
    def test_emit_before_commit_flagged(self):
        src = """
        def flush(journal, hdfs, job, block):
            hdfs.append_block(job.output_path, block)
            journal.append(K_REDUCE_COMMIT, {"reduce": job.rid})
        """
        findings = lint(src, select=("REP204",))
        assert rules_of(findings) == ["REP204"]
        assert "before its reduce-commit" in findings[0].message

    def test_emit_with_no_commit_record_flagged(self):
        src = """
        def flush(journal, hdfs, job, block):
            journal.append(K_TASK_DONE, {"task": job.rid})
            hdfs.append_block(job.output_path, block)
        """
        findings = lint(src, select=("REP204",))
        assert rules_of(findings) == ["REP204"]
        assert "appends no reduce-commit" in findings[0].message

    def test_emit_on_commit_free_branch_flagged(self):
        src = """
        def flush(journal, hdfs, job, block, fresh):
            if fresh:
                journal.append(K_REDUCE_COMMIT, {"reduce": job.rid})
            else:
                hdfs.append_block(job.output_path, block)
        """
        findings = lint(src, select=("REP204",))
        assert rules_of(findings) == ["REP204"]
        assert "no path" in findings[0].message

    def test_commit_then_emit_is_clean(self):
        src = """
        def flush(journal, hdfs, job, blocks):
            for rid in job.reduces:
                journal.append(K_REDUCE_COMMIT, {"reduce": rid})
            for block in blocks:
                hdfs.append_block(job.output_path, block)
            journal.append(K_OUTPUT_COMMIT, {"job": job.jid})
        """
        assert lint(src, select=("REP204",)) == []

    def test_replay_emit_after_loop_commit_is_clean(self):
        # The crash-recovery shape: within one loop iteration the commit
        # precedes the emission; later iterations' emits see the earlier
        # commit through the back edge.
        src = """
        def drain(journal, hdfs, job, parts):
            for part in parts:
                journal.append("reduce-commit", {"part": part.rid})
                hdfs.append_block(job.output_path, part.data)
        """
        assert lint(src, select=("REP204",)) == []

    def test_emit_only_helpers_are_out_of_scope(self):
        src = """
        def copy_out(hdfs, job, block):
            hdfs.append_block(job.output_path, block)
        """
        assert lint(src, select=("REP204",)) == []

    def test_suppression(self):
        src = """
        def flush(journal, hdfs, job, block):
            hdfs.append_block(job.output_path, block)  # reprolint: disable=REP204 -- scratch path
            journal.append(K_REDUCE_COMMIT, {"reduce": job.rid})
        """
        assert lint(src, select=("REP204",)) == []


    def test_real_tree_the_drivers_emission_site_is_what_the_rule_checks(self):
        # One lifecycle means one function for REP204 to reason about:
        # ``JobDriver._reduce_phase``.  The shipped driver is clean, and a
        # one-token mutation that demotes its reduce-commit append makes
        # the rule fire there — so it is the real emission site under
        # check, not a fixture.
        from pathlib import Path

        from repro.lint.config import repo_root

        modpath = "repro/mapreduce/driver.py"
        source = (Path(repo_root()) / "src" / modpath).read_text()
        assert source.count("append_block(") == 1
        assert lint(source, modpath=modpath, select=("REP204",)) == []
        mutated = source.replace(
            "journal.append(K_REDUCE_COMMIT,", "journal.append(K_SHUFFLE_COMMIT,"
        )
        assert mutated != source
        findings = lint(mutated, modpath=modpath, select=("REP204",))
        assert rules_of(findings) == ["REP204"]
        assert "JobDriver._reduce_phase" in findings[0].message


# -- REP205: path-sensitive resource release ----------------------------------


class TestREP205:
    def test_raise_window_between_acquire_and_finally_flagged(self):
        src = """
        def load(path, parse):
            fh = open(path)
            header = parse(fh.readline())
            try:
                return header
            finally:
                fh.close()
        """
        findings = lint(src, select=("REP205",))
        assert rules_of(findings) == ["REP205"]
        assert "exception path" in findings[0].message

    def test_immediate_try_finally_is_clean(self):
        src = """
        def load(path, parse):
            fh = open(path)
            try:
                header = parse(fh.readline())
                return header
            finally:
                fh.close()
        """
        assert lint(src, select=("REP205",)) == []

    def test_with_statement_is_clean(self):
        src = """
        def load(path, parse):
            fh = open(path)
            with fh:
                return parse(fh.readline())
        """
        assert lint(src, select=("REP205",)) == []

    def test_rep103_owns_plainly_broken_cases(self):
        # No release at all: what REP103 used to report is one REP205
        # finding, with REP103's message.
        src = """
        def load(path):
            fh = open(path)
            return 1
        """
        findings = lint(src, select=("REP205",))
        assert rules_of(findings) == ["REP205"]
        assert "never closed" in findings[0].message

    def test_suppression(self):
        src = """
        def load(path, parse):
            fh = open(path)  # reprolint: disable=REP205 -- parse cannot raise here
            header = parse(fh.readline())
            try:
                return header
            finally:
                fh.close()
        """
        assert lint(src, select=("REP205",)) == []


# -- REP206: lock-order consistency -------------------------------------------


class TestREP206:
    def test_opposite_nesting_order_flagged(self):
        src = """
        import threading

        A = threading.Lock()
        B = threading.Lock()

        def one():
            with A:
                with B:
                    pass

        def two():
            with B:
                with A:
                    pass
        """
        findings = lint(src, select=("REP206",))
        assert rules_of(findings) == ["REP206", "REP206"]
        assert "lock-order cycle" in findings[0].message

    def test_cycle_through_a_call_under_lock(self):
        src = """
        import threading

        A = threading.Lock()
        B = threading.Lock()

        def one():
            with A:
                grab_b()

        def grab_b():
            with B:
                pass

        def two():
            with B:
                with A:
                    pass
        """
        findings = lint(src, select=("REP206",))
        assert findings, "interprocedural cycle must be detected"
        assert all(f.rule == "REP206" for f in findings)

    def test_consistent_order_is_clean(self):
        src = """
        import threading

        A = threading.Lock()
        B = threading.Lock()

        def one():
            with A:
                with B:
                    pass

        def two():
            with A:
                with B:
                    pass
        """
        assert lint(src, select=("REP206",)) == []

    def test_suppression_on_one_site_breaks_the_cycle(self):
        src = """
        import threading

        A = threading.Lock()
        B = threading.Lock()

        def one():
            with A:
                with B:
                    pass

        def two():
            with B:
                with A:  # reprolint: disable=REP206 -- shutdown path, workers quiesced
                    pass
        """
        assert lint(src, select=("REP206",)) == []
