"""The interprocedural layer: summaries, splicing, fixpoint, REP101..REP104.

Every REP10x rule is demonstrated with at least one true positive the
per-file rules cannot catch (multi-hop flows) and at least one
false-positive guard (seeded RNG, ``sorted(...)``, context managers,
ownership transfer).  Fixture programs are injected hermetically via
``LintConfig.program_modules_override`` so no test depends on the real
tree's contents.  ``TestREP103``'s fixtures assert REP205, the rule
REP103 was retired into, and ``TestREP105``'s assert REP201.
"""

import subprocess
import textwrap

from repro.lint import LintConfig, lint_paths, lint_source
from repro.lint.core import LintContext, LintModule
from repro.lint.dataflow import clear_program_memo, summarize_module

ENGINE_MOD = "repro/core/fixture.py"
KERNEL_MOD = "repro/exec/kernels.py"

#: Helper module every fixture program shares.
HELPER_MOD = "repro/core/helper.py"
HELPER_SRC = textwrap.dedent(
    """
    import random
    import time

    def now():
        return time.time()

    def two_hop():
        return now()

    def seeded():
        rng = random.Random(7)
        return rng.random()

    def keys_list(d):
        return list(set(d))

    def make_cb():
        return lambda x: x + 1

    def acquire(path):
        return open(path)

    def attach_cb(spec):
        spec.cb = lambda x: x

    def pure(x):
        return x + 1
    """
)


def lint(source, *, modpath=ENGINE_MOD, modules=None, **cfg_kw):
    over = {HELPER_MOD: HELPER_SRC}
    over.update(modules or {})
    cfg_kw.setdefault("kernel_source_override", "class FakeSpec:\n    pass\n")
    cfg_kw.setdefault("span_names_override", frozenset({"map", "reduce"}))
    cfg_kw.setdefault("event_names_override", frozenset({"node.crash"}))
    config = LintConfig(program_modules_override=over, **cfg_kw)
    return lint_source(textwrap.dedent(source), modpath=modpath, config=config)


def rules_of(findings):
    return [f.rule for f in findings]


# -- summaries ----------------------------------------------------------------


def summarize(source, modpath=ENGINE_MOD):
    module = LintModule(textwrap.dedent(source), path=modpath, modpath=modpath)
    return summarize_module(module)


class TestSummaries:
    def test_return_taint_and_call_sites(self):
        s = summarize(
            """
            import time
            from repro.core import helper

            def stamp():
                return time.time()

            def relay():
                return helper.two_hop()
            """
        )
        assert ("nondet", "time.time", 6) in s.functions["stamp"].return_taints
        kinds = [t[0] for t in s.functions["relay"].return_taints]
        assert kinds == ["call"]
        assert any(
            c[0] == "repro.core.helper.two_hop"
            for c in s.functions["relay"].calls
        )

    def test_param_attr_write_records_lambda(self):
        s = summarize(
            """
            def attach(spec):
                spec.cb = lambda x: x
            """
        )
        writes = s.functions["attach"].param_attr_writes
        assert writes and writes[0][0] == 0 and writes[0][1] == "unpicklable"

    def test_suppressed_source_not_summarised(self):
        s = summarize(
            """
            import time

            def stamp():
                return time.time()  # reprolint: disable=REP101 -- test clock
            """
        )
        assert s.functions["stamp"].return_taints == []

    def test_with_managed_resource_not_tainted(self):
        s = summarize(
            """
            def read(path):
                with open(path) as f:
                    return f.read()
            """
        )
        kinds = {t[0] for t in s.functions["read"].return_taints}
        assert "resource" not in kinds


# -- one summary per file per run ----------------------------------------------


def _write_tree(root, files):
    for rel, src in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(src))


class TestSummaryCacheIncremental:
    """What the on-disk summary store used to promise, now promised by
    the run itself: no file is summarised twice."""

    FILES = {
        "src/repro/core/a.py": """
            import time

            def stamp():
                return time.time()
            """,
        "src/repro/core/b.py": """
            from repro.core import a

            def relay():
                return a.stamp()
            """,
    }

    @staticmethod
    def count_summaries(monkeypatch):
        import repro.lint.dataflow.summary as summary_mod

        calls = []
        real = summary_mod.summarize_module

        def counting(module):
            calls.append(module.modpath)
            return real(module)

        monkeypatch.setattr(summary_mod, "summarize_module", counting)
        monkeypatch.setattr("repro.lint.dataflow.graph.summarize_module", counting)
        return calls

    def test_warm_run_does_not_reparse_unchanged_modules(self, tmp_path, monkeypatch):
        _write_tree(tmp_path, self.FILES)
        clear_program_memo()
        calls = self.count_summaries(monkeypatch)
        config = LintConfig(root=tmp_path)
        cold = lint_paths([tmp_path / "src"], config)
        # Linted files share the program's summaries: one each, not two.
        assert sorted(calls) == ["repro/core/a.py", "repro/core/b.py"]
        warm = lint_paths([tmp_path / "src"], config)  # in-process memo
        assert len(calls) == 2
        assert warm == cold and {f.rule for f in cold} == {"REP101"}

    def test_changed_file_reparsed_alone(self, tmp_path, monkeypatch):
        _write_tree(tmp_path, self.FILES)
        clear_program_memo()
        config = LintConfig(root=tmp_path)
        ctx = LintContext(config)
        assert "repro/core/b.py::relay" in ctx.program.facts.nondet
        calls = self.count_summaries(monkeypatch)
        edited = LintModule(
            "from repro.core import a\n\ndef relay():\n    return 1\n",
            path="b.py",
            modpath="repro/core/b.py",
        )
        assert "repro/core/b.py::relay" not in ctx.facts_for(edited).nondet
        ctx.facts_for(edited)
        assert calls == ["repro/core/b.py"]

    def test_facts_for_shares_program_facts_when_unchanged(self, tmp_path):
        _write_tree(tmp_path, self.FILES)
        clear_program_memo()
        config = LintConfig(root=tmp_path)
        ctx = LintContext(config)
        source = (tmp_path / "src/repro/core/b.py").read_text()
        module = LintModule(source, path="b.py", modpath="repro/core/b.py")
        assert ctx.facts_for(module) is ctx.program.facts
        edited = LintModule(
            source + "\n\nX = 1\n", path="b.py", modpath="repro/core/b.py"
        )
        assert ctx.facts_for(edited) is not ctx.program.facts


class TestOutOfProgramFiles:
    """Files outside the program (``benchmarks/``, ``examples/``) are
    layered on the shared facts: only their own functions propagate."""

    BENCH = textwrap.dedent(
        """
        from repro.core import helper

        def tainted(path):
            return helper.acquire(path)

        def use(path):
            handle = tainted(path)
            data = handle.read()
            return data
        """
    )

    def test_tainted_helper_caught_through_program_callee(self):
        findings = lint(self.BENCH, modpath="benchmarks/bench_fixture.py")
        assert rules_of(findings) == ["REP205"]
        assert "never closed" in findings[0].message
        # the chain runs benchmarks helper -> src/repro callee
        assert "tainted" in findings[0].message
        assert "acquire" in findings[0].message

    def test_layered_facts_leave_the_program_facts_alone(self):
        ctx = LintContext(LintConfig(program_modules_override={HELPER_MOD: HELPER_SRC}))
        module = LintModule(
            self.BENCH, path="b.py", modpath="benchmarks/bench_fixture.py"
        )
        facts = ctx.facts_for(module)
        assert facts.base is ctx.program.facts
        assert "benchmarks/bench_fixture.py::tainted" in facts.resource
        assert "benchmarks/bench_fixture.py::tainted" not in ctx.program.facts.resource

    def test_module_the_program_calls_into_reruns_the_fixpoint(self):
        caller = "from benchmarks import bench_fixture\n\ndef run(p):\n    return bench_fixture.tainted(p)\n"
        ctx = LintContext(
            LintConfig(
                program_modules_override={
                    HELPER_MOD: HELPER_SRC,
                    "repro/core/caller.py": caller,
                }
            )
        )
        module = LintModule(
            self.BENCH, path="b.py", modpath="benchmarks/bench_fixture.py"
        )
        facts = ctx.facts_for(module)
        assert facts.base is None
        assert "repro/core/caller.py::run" in facts.resource


# -- REP101: transitive nondeterminism ----------------------------------------


class TestREP101:
    def test_two_hop_wall_clock_flagged(self):
        findings = lint(
            """
            from repro.core import helper

            def run():
                return helper.two_hop()
            """
        )
        assert rules_of(findings) == ["REP101"]
        assert "time.time" in findings[0].message
        assert "two_hop" in findings[0].message  # witness chain

    def test_direct_source_left_to_rep001(self):
        findings = lint(
            """
            import time

            def run():
                return time.time()
            """
        )
        assert rules_of(findings) == ["REP101"]

    def test_seeded_rng_helper_not_flagged(self):
        findings = lint(
            """
            from repro.core import helper

            def run():
                return helper.seeded()
            """
        )
        assert findings == []

    def test_hash_order_return_flagged_but_sorted_absorbs(self):
        flagged = lint(
            """
            from repro.core import helper

            def run(d):
                return helper.keys_list(d)
            """
        )
        assert rules_of(flagged) == ["REP101"]
        clean = lint(
            """
            from repro.core import helper

            def run(d):
                return sorted(helper.keys_list(d))
            """
        )
        assert clean == []

    def test_source_suppression_silences_transitive_finding(self):
        helper = """
        import time

        def now():
            return time.time()  # reprolint: disable=REP101 -- advisory stamp
        """
        findings = lint(
            """
            from repro.core import quiet

            def run():
                return quiet.now()
            """,
            modules={"repro/core/quiet.py": textwrap.dedent(helper)},
        )
        assert findings == []

    def test_call_site_suppression(self):
        findings = lint(
            """
            from repro.core import helper

            def run():
                return helper.two_hop()  # reprolint: disable=REP101 -- bench only
            """
        )
        assert findings == []

    def test_out_of_scope_module_ignored(self):
        findings = lint(
            """
            from repro.core import helper

            def run():
                return helper.two_hop()
            """,
            modpath="repro/analysis/report.py",
        )
        assert findings == []


# -- REP102: pickle-reachability ----------------------------------------------


class TestREP102:
    def test_ctor_arg_call_returning_lambda_flagged(self):
        findings = lint(
            """
            from repro.core import helper
            from repro.exec.kernels import FakeSpec

            def build():
                return FakeSpec(helper.make_cb())
            """
        )
        assert rules_of(findings) == ["REP102"]
        assert "make_cb" in findings[0].message

    def test_attribute_assignment_flagged(self):
        findings = lint(
            """
            from repro.exec.kernels import FakeSpec

            def build():
                spec = FakeSpec()
                spec.cb = lambda x: x
                return spec
            """
        )
        assert rules_of(findings) == ["REP102"]
        assert "will not pickle" in findings[0].message

    def test_helper_smuggling_closure_onto_spec_flagged(self):
        findings = lint(
            """
            from repro.core import helper
            from repro.exec.kernels import FakeSpec

            def build():
                spec = FakeSpec()
                helper.attach_cb(spec)
                return spec
            """
        )
        assert rules_of(findings) == ["REP102"]
        assert "attach_cb" in findings[0].message

    def test_plain_values_clean(self):
        findings = lint(
            """
            from repro.core import helper
            from repro.exec.kernels import FakeSpec

            def build():
                spec = FakeSpec(helper.pure(2))
                spec.n = 3
                return spec
            """
        )
        assert findings == []

    def test_suppressed(self):
        findings = lint(
            """
            from repro.exec.kernels import FakeSpec

            def build():
                spec = FakeSpec()
                spec.cb = lambda x: x  # reprolint: disable=REP102 -- local-only run
                return spec
            """
        )
        assert findings == []


# -- REP103: resource leaks ---------------------------------------------------


class TestREP103:
    def test_interprocedural_acquisition_never_closed(self):
        findings = lint(
            """
            from repro.core import helper

            def read(path):
                f = helper.acquire(path)
                data = f.read()
                return data
            """
        )
        assert rules_of(findings) == ["REP205"]
        assert "never closed" in findings[0].message
        assert "acquire" in findings[0].message  # witness chain

    def test_close_outside_finally_flagged(self):
        findings = lint(
            """
            def read(path):
                f = open(path)
                data = f.read()
                f.close()
                return data
            """
        )
        assert rules_of(findings) == ["REP205"]
        assert "outside try/finally" in findings[0].message

    def test_context_manager_clean(self):
        findings = lint(
            """
            from repro.core import helper

            def direct(path):
                with open(path) as f:
                    return f.read()

            def named(path):
                f = helper.acquire(path)
                with f:
                    return f.read()
            """
        )
        assert findings == []

    def test_close_in_finally_clean(self):
        findings = lint(
            """
            def read(path):
                f = open(path)
                try:
                    return f.read()
                finally:
                    f.close()
            """
        )
        assert findings == []

    def test_ownership_transfer_clean(self):
        findings = lint(
            """
            class Sink:
                def store(self, path, registry):
                    w = open(path)
                    registry["w"] = w

            def make(path):
                return open(path)

            def handoff(path, owner):
                f = open(path)
                owner.adopt(f)
            """
        )
        assert findings == []

    def test_suppressed(self):
        findings = lint(
            """
            def read(path):
                f = open(path)  # reprolint: disable=REP205 -- process-lifetime handle
                return f.read()
            """
        )
        assert findings == []


# -- REP104: registry name flow -----------------------------------------------


class TestREP104:
    def test_folded_unregistered_name_flagged(self):
        findings = lint(
            """
            def run(tracer):
                part = "re"
                with tracer.span(f"{part}play"):
                    pass
            """
        )
        assert rules_of(findings) == ["REP104"]
        assert "'replay'" in findings[0].message

    def test_concatenation_folds_to_registered_name(self):
        findings = lint(
            """
            def run(tracer):
                part = "re"
                with tracer.span(part + "duce"):
                    pass
            """
        )
        assert findings == []

    def test_constant_local_name(self):
        findings = lint(
            """
            def run(tracer):
                name = "map"
                with tracer.span(name):
                    pass
            """
        )
        assert findings == []

    def test_unfoldable_name_rejected(self):
        findings = lint(
            """
            def run(tracer, shard):
                with tracer.span(f"shard-{shard}"):
                    pass
            """
        )
        assert rules_of(findings) == ["REP104"]
        assert "cannot be resolved statically" in findings[0].message

    def test_reassigned_local_does_not_fold(self):
        findings = lint(
            """
            def run(tracer, flag):
                name = "map"
                if flag:
                    name = "oops"
                with tracer.span(name):
                    pass
            """
        )
        assert rules_of(findings) == ["REP104"]

    def test_literal_names_left_to_rep005(self):
        findings = lint(
            """
            def run(tracer):
                with tracer.span("unregistered"):
                    pass
            """
        )
        assert rules_of(findings) == ["REP104"]

    def test_suppressed(self):
        findings = lint(
            """
            def run(tracer, shard):
                with tracer.span(f"shard-{shard}"):  # reprolint: disable=REP104 -- debug build
                    pass
            """
        )
        assert findings == []


# -- REP105 -> REP201: kernel state escape -------------------------------------

_STATEFUL_HELPER = """
_SEEN = []

def bump(x):
    _SEEN.append(x)
    return x
"""

_SINGLETON_HELPER = """
_KERNELS = {}

def lookup(name):
    return _KERNELS[name]
"""


class TestREP105:
    """REP105's fixtures, asserted on the rule it was folded into: the
    kernel -> helper -> state programs are unchanged, and the one REP201
    finding sits at the write/read in the helper module, not at the
    kernel — so each fixture program is linted module by module."""

    def kernel(self, body, modules):
        program = {KERNEL_MOD: textwrap.dedent(body), **modules}
        return [
            (modpath, finding)
            for modpath, source in program.items()
            for finding in lint(
                source,
                modpath=modpath,
                modules=program,
                kernel_source_override=program[KERNEL_MOD],
            )
        ]

    def test_transitive_global_write_flagged(self):
        findings = self.kernel(
            """
            import repro.core.stateful as st

            def my_kernel(context, spec):
                return st.bump(spec)

            register_kernel("k", my_kernel)
            """,
            {"repro/core/stateful.py": textwrap.dedent(_STATEFUL_HELPER)},
        )
        [(where, finding)] = findings
        assert (where, finding.rule) == ("repro/core/stateful.py", "REP201")
        assert "_SEEN" in finding.message
        assert "my_kernel (repro/exec/kernels.py) -> bump" in finding.message

    def test_transitive_singleton_read_flagged(self):
        findings = self.kernel(
            """
            import repro.core.registry as reg

            def my_kernel(context, spec):
                return reg.lookup(spec)

            register_kernel("k", my_kernel)
            """,
            {"repro/core/registry.py": textwrap.dedent(_SINGLETON_HELPER)},
        )
        [(where, finding)] = findings
        assert (where, finding.rule) == ("repro/core/registry.py", "REP201")
        assert "_KERNELS" in finding.message

    def test_pure_helper_clean(self):
        findings = self.kernel(
            """
            from repro.core import helper

            def my_kernel(context, spec):
                return helper.pure(spec)

            register_kernel("k", my_kernel)
            """,
            {},
        )
        assert findings == []

    def test_unregistered_function_ignored(self):
        findings = self.kernel(
            """
            import repro.core.stateful as st

            def coordinator_only(x):
                return st.bump(x)
            """,
            {"repro/core/stateful.py": textwrap.dedent(_STATEFUL_HELPER)},
        )
        assert findings == []


# -- the git-aware CLI helper -------------------------------------------------


class TestChangedOnly:
    def test_changed_py_files_lists_edits_vs_ref(self, tmp_path):
        from repro.lint.cli import changed_py_files

        def git(*argv):
            subprocess.run(
                ["git", *argv], cwd=tmp_path, check=True, capture_output=True
            )

        git("init", "-q")
        git("config", "user.email", "t@example.com")
        git("config", "user.name", "t")
        (tmp_path / "a.py").write_text("x = 1\n")
        (tmp_path / "b.txt").write_text("not python\n")
        git("add", ".")
        git("commit", "-q", "-m", "seed")
        (tmp_path / "a.py").write_text("x = 2\n")
        (tmp_path / "b.txt").write_text("still not python\n")
        changed = changed_py_files(tmp_path, "HEAD")
        assert changed == [str(tmp_path / "a.py")]

    def test_missing_git_returns_none(self, tmp_path):
        from repro.lint.cli import changed_py_files

        assert changed_py_files(tmp_path, "HEAD") is None
