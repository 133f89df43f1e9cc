"""The whole-program layer: summaries, splicing, REP101..REP104 and REP201.

The summaries hold call edges, module-global writes and coordinator-
singleton reads; REP201 (``TestREP105``) is the rule that follows the
edges.  The REP10x fixtures are the direct ones — a violation laundered
through a helper is caught where it stands (REP101: the helper's module
is in deterministic scope) or by the sanitizer (SAN102/SAN202), and the
guards (context managers, ownership transfer, plain values) stay.
Fixture programs are injected hermetically via
``LintConfig.program_modules_override`` so no test depends on the real
tree's contents.  ``TestREP103``'s fixtures assert REP205, the rule
REP103 was retired into, and ``TestREP105``'s assert REP201.
"""

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
    def test_call_sites_in_every_expression_position(self):
        # One helper call per function, each in a different position.
        # The statement interpreter this scan replaced saw the first only.
        s = summarize(
            """
            from repro.core import helper
            from repro.core.helper import pure, seeded

            def in_for(xs):
                for x in xs:
                    helper.pure(x)

            def in_list_comp(xs):
                return [helper.pure(x) for x in xs]

            def in_set_comp_condition(xs):
                return {x for x in xs if helper.pure(x)}

            def in_dict_comp(xs):
                return {x: helper.pure(x) for x in xs}

            def in_generator(xs):
                return sum(helper.pure(x) for x in xs)

            def in_lambda(xs):
                return sorted(xs, key=lambda x: helper.pure(x))

            def in_default(x=helper.pure(0)):
                return x

            def in_receiver():
                return seeded().bit_length()
            """
        )
        edges = {
            name: [c[0] for c in fn.calls if c[0].startswith("repro.")]
            for name, fn in s.functions.items()
            if name != "<module>"
        }
        assert edges.pop("in_receiver") == ["repro.core.helper.seeded"]
        assert set(edges) == {
            "in_for", "in_list_comp", "in_set_comp_condition", "in_dict_comp",
            "in_generator", "in_lambda", "in_default",
        }
        assert all(targets == ["repro.core.helper.pure"] for targets in edges.values()), edges

    def test_receivers_resolve_through_bindings(self):
        s = summarize(
            """
            from repro.core.helper import Box, pure

            class Engine:
                def run(self, spec, *, sink):
                    box = Box(spec)
                    box.open()
                    self.step()
                    spec.validate()
                    sink.write(spec)
                    for item in spec.items:
                        item.visit()
                    return (lambda cell: cell.value())(box)

                def step(self):
                    return pure(1)
            """
        )
        run = [c[0] for c in s.functions["Engine.run"].calls]
        # Constructor-typed local -> Class.method; self.x() stays symbolic;
        # parameters, loop variables and lambda arguments are opaque.
        assert run == ["repro.core.helper.Box", "repro.core.helper.Box.open", "self.step"]
        assert [c[0] for c in s.functions["Engine.step"].calls] == ["repro.core.helper.pure"]

    def test_state_touches_and_their_suppression(self):
        s = summarize(
            """
            from repro.core.helper import CACHE

            _SEEN = []
            _KERNELS = {}

            def touch(x, local):
                global _COUNT
                _COUNT = x
                _SEEN.append(x)
                CACHE[x] = x
                local.append(x)
                return _KERNELS[x]

            def justified(x):
                _SEEN.append(x)  # reprolint: disable=REP201 -- handed off before workers start
            """
        )
        touch = s.functions["touch"]
        assert touch.global_writes == [
            ("_COUNT", 8), ("_SEEN", 10), ("repro.core.helper.CACHE", 11),
        ]
        assert touch.singleton_reads == [("_KERNELS", 13)]
        assert s.functions["justified"].global_writes == []
        # The module body defines its globals; that is not a write.
        assert s.functions["<module>"].global_writes == []


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
        relay = ctx.program.functions["repro/core/b.py::relay"]
        assert [c[0] for c in relay.calls] == ["repro.core.a.stamp"]
        calls = self.count_summaries(monkeypatch)
        edited = LintModule(
            "from repro.core import a\n\ndef relay():\n    return 1\n",
            path="b.py",
            modpath="repro/core/b.py",
        )
        assert ctx.module_summary(edited).functions["relay"].calls == []
        ctx.exec_contexts(edited)
        assert calls == ["repro/core/b.py"]

    def test_unchanged_module_shares_the_program_summary_and_contexts(self, tmp_path):
        _write_tree(tmp_path, self.FILES)
        clear_program_memo()
        config = LintConfig(root=tmp_path)
        ctx = LintContext(config)
        source = (tmp_path / "src/repro/core/b.py").read_text()
        module = LintModule(source, path="b.py", modpath="repro/core/b.py")
        assert ctx.module_summary(module) is ctx.program.modules["repro/core/b.py"]
        shared = ctx.exec_contexts(module)
        assert ctx.exec_contexts(module) is shared
        edited = LintModule(
            source + "\n\ndef extra():\n    return relay()\n",
            path="b.py",
            modpath="repro/core/b.py",
        )
        spliced = ctx.exec_contexts(edited)
        assert spliced is not shared
        assert spliced.classify("repro/core/b.py::extra") == "coordinator"
        assert shared.classify("repro/core/b.py::extra") is None


class TestOutOfProgramFiles:
    """A file outside the program (``benchmarks/``, ``examples/``) that
    nothing in the program calls into cannot move any reachability: it
    is linted against the program as it stands."""

    BENCH = textwrap.dedent(
        """
        from repro.core import helper

        _RUNS = []

        def tainted(path):
            _RUNS.append(path)
            return helper.pure(path)
        """
    )

    def test_uncalled_outside_module_leaves_the_program_alone(self):
        ctx = LintContext(LintConfig(program_modules_override={HELPER_MOD: HELPER_SRC}))
        module = LintModule(
            self.BENCH, path="b.py", modpath="benchmarks/bench_fixture.py"
        )
        assert ctx.program.spliced(ctx.module_summary(module)) is ctx.program
        helper = LintModule(HELPER_SRC, path="h.py", modpath=HELPER_MOD)
        assert ctx.exec_contexts(module) is ctx.exec_contexts(helper)
        assert lint(self.BENCH, modpath="benchmarks/bench_fixture.py") == []

    def test_module_the_program_calls_into_is_spliced(self):
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
        spliced = ctx.program.spliced(ctx.module_summary(module))
        assert spliced is not ctx.program
        assert "benchmarks/bench_fixture.py::tainted" in spliced.functions
        contexts = ctx.exec_contexts(module)
        assert contexts.classify("benchmarks/bench_fixture.py::tainted") == "coordinator"


# -- REP101: nondeterminism, where the clock is read ---------------------------


class TestREP101:
    def test_direct_source_left_to_rep001(self):
        findings = lint(
            """
            import time

            def run():
                return time.time()
            """
        )
        assert rules_of(findings) == ["REP101"]

    def test_helper_chain_is_flagged_where_the_clock_is_read(self):
        # run -> two_hop -> now -> time.time(): the caller is clean, the
        # helper module (in deterministic scope, as every module such
        # code imports is) holds the one finding.
        caller = lint(
            """
            from repro.core import helper

            def run():
                return helper.two_hop()
            """
        )
        assert caller == []
        at_source = lint(HELPER_SRC, modpath=HELPER_MOD, select=("REP101",))
        assert [(f.rule, f.line) for f in at_source] == [("REP101", 6)]
        assert "time.time" in at_source[0].message


# -- REP102: pickle-reachability ----------------------------------------------


class TestREP102:
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
