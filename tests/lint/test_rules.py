"""Per-rule fixtures: each REP rule on violating, clean and suppressed code.

Every rule is demonstrated three ways: a snippet that fails before the
rule existed (and would pass without it), the contract-conforming
rewrite, and the violating snippet under an inline suppression.

The test classes keep the names of the ids their fixtures were written
for.  Three of those ids are retired into the rule that owns the same
contract — REP001 -> REP101, REP003 -> REP102, REP005's registry-name
half -> REP104 — so those fixtures, unchanged, now assert the surviving
id.  (REP008's fixtures
went with the metrics registry whose names it checked: a distribution is
now a row the analyzer reads off span args, with no call site to lint.)
"""

import textwrap

import pytest

from repro.lint import LintConfig, lint_source

ENGINE_MOD = "repro/core/fixture.py"
KERNEL_MOD = "repro/exec/kernels.py"


def lint(source, *, modpath=ENGINE_MOD, config=None, select=None):
    if config is None:
        config = LintConfig()
    if select:
        config.select = (select,)
    return lint_source(textwrap.dedent(source), modpath=modpath, config=config)


def rules_of(findings):
    return [f.rule for f in findings]


# -- REP001: nondeterministic calls -------------------------------------------


class TestREP001:
    def test_wall_clock_flagged(self):
        findings = lint(
            """
            import time
            STAMP = time.time()
            """
        )
        assert rules_of(findings) == ["REP101"]
        assert "time.time" in findings[0].message

    @pytest.mark.parametrize(
        "snippet",
        [
            "from time import time\nx = time()\n",
            "import datetime\nx = datetime.datetime.now()\n",
            "from datetime import datetime\nx = datetime.utcnow()\n",
            "import os\nx = os.urandom(8)\n",
            "import uuid\nx = uuid.uuid4()\n",
            "import random\nx = random.randint(0, 9)\n",
            "import secrets\nx = secrets.token_bytes(4)\n",
            "import numpy as np\nrng = np.random.default_rng()\n",
            "import numpy as np\nx = np.random.rand(3)\n",
        ],
    )
    def test_variants_flagged(self, snippet):
        assert rules_of(lint(snippet)) == ["REP101"]

    @pytest.mark.parametrize(
        "snippet",
        [
            # advisory timers are the sanctioned exception
            "import time\nt0 = time.perf_counter()\n",
            "import time\nt0 = time.process_time()\n",
            # seeded randomness is the contract
            "import random\nrng = random.Random(42)\n",
            "import numpy as np\nrng = np.random.default_rng(7)\n",
        ],
    )
    def test_clean_variants(self, snippet):
        assert lint(snippet) == []

    def test_out_of_scope_module_ignored(self):
        src = "import time\nSTAMP = time.time()\n"
        assert lint(src, modpath="repro/san/report.py") == []

    def test_suppressed(self):
        findings = lint(
            """
            import time
            STAMP = time.time()  # reprolint: disable=REP101 -- display only
            """
        )
        assert findings == []


# -- REP002: kernel I/O purity (its state half is REP201's) -------------------


def kernel_config(source):
    return LintConfig(kernel_source_override=textwrap.dedent(source))


class TestREP002:
    def test_impure_kernel_flagged(self):
        src = """
        import os
        _SEEN = []

        def bad_kernel(ctx, spec):
            global _STATE
            _SEEN.append(spec)
            os.remove("/tmp/x")
            data = open("/tmp/y").read()
            return ctx, _FORK_CONTEXT

        register_kernel("bad", bad_kernel)
        """
        findings = lint(src, modpath=KERNEL_MOD, config=kernel_config(src))
        by_rule = {
            rule: " ".join(f.message for f in findings if f.rule == rule)
            for rule in rules_of(findings)
        }
        # One finding per violation: the I/O calls are REP002's, the
        # three state touches (once also REP002's) are REP201's.
        assert sorted(rules_of(findings)) == ["REP002"] * 2 + ["REP201"] * 3
        assert "os.remove" in by_rule["REP002"]
        assert "open()" in by_rule["REP002"]
        assert "_STATE" in by_rule["REP201"]
        assert "_SEEN" in by_rule["REP201"]
        assert "_FORK_CONTEXT" in by_rule["REP201"]

    def test_purity_extends_to_module_helpers(self):
        src = """
        def helper(spec):
            print(spec)

        def kernel(ctx, spec):
            return helper(spec)

        register_kernel("k", kernel)
        """
        findings = lint(src, modpath=KERNEL_MOD, config=kernel_config(src))
        assert rules_of(findings) == ["REP002"]
        assert "print" in findings[0].message

    def test_clean_kernel(self):
        src = """
        def good_kernel(ctx, spec):
            staged = []
            staged.append(spec)
            return ctx["job"], staged

        register_kernel("good", good_kernel)
        """
        assert lint(src, modpath=KERNEL_MOD, config=kernel_config(src)) == []

    def test_unregistered_function_not_checked(self):
        src = """
        def coordinator_only(plan):
            print(plan)
        """
        assert lint(src, modpath=KERNEL_MOD, config=kernel_config(src)) == []

    def test_suppressed(self):
        src = """
        def k(ctx, spec):
            print(spec)  # reprolint: disable=REP002 -- debugging aid

        register_kernel("k", k)
        """
        assert lint(src, modpath=KERNEL_MOD, config=kernel_config(src)) == []


# -- REP003: picklable task specs ---------------------------------------------


SPEC_CFG_SRC = """
from dataclasses import dataclass

@dataclass(slots=True)
class DemoMapSpec:
    task_id: int
    emit: object
"""


class TestREP003:
    def cfg(self):
        return LintConfig(kernel_source_override=SPEC_CFG_SRC)

    def test_lambda_argument_flagged(self):
        findings = lint(
            """
            def build(block):
                return DemoMapSpec(1, lambda pair: pair)
            """,
            modpath="repro/mapreduce/fixture.py",
            config=self.cfg(),
        )
        assert rules_of(findings) == ["REP102"]
        assert "lambda" in findings[0].message

    def test_local_function_flagged(self):
        findings = lint(
            """
            def build(block):
                def emit(pair):
                    return pair
                return DemoMapSpec(1, emit=emit)
            """,
            modpath="repro/mapreduce/fixture.py",
            config=self.cfg(),
        )
        assert rules_of(findings) == ["REP102"]
        assert "will not pickle" in findings[0].message

    def test_module_level_function_ok(self):
        findings = lint(
            """
            def emit(pair):
                return pair

            def build(block):
                return DemoMapSpec(1, emit=emit)
            """,
            modpath="repro/mapreduce/fixture.py",
            config=self.cfg(),
        )
        assert findings == []

    def test_lambda_default_on_spec_class_flagged(self):
        bad = textwrap.dedent(
            """
            from dataclasses import dataclass

            @dataclass
            class OtherSpec:
                key = lambda x: x
            """
        )
        findings = lint(
            bad, modpath=KERNEL_MOD, config=LintConfig(kernel_source_override=bad)
        )
        assert rules_of(findings) == ["REP102"]

    def test_suppressed(self):
        findings = lint(
            """
            def build(block):
                return DemoMapSpec(1, lambda p: p)  # reprolint: disable=REP102 -- serial-only path
            """,
            modpath="repro/mapreduce/fixture.py",
            config=self.cfg(),
        )
        assert findings == []


# -- REP004: declared counters ------------------------------------------------


class TestREP004:
    def cfg(self):
        return LintConfig(counter_names_override=frozenset({"MAP_INPUT_RECORDS"}))

    def test_undeclared_counter_flagged(self):
        findings = lint(
            """
            from repro.mapreduce.counters import C
            NAME = C.MAP_INPUT_RECORD
            """,
            config=self.cfg(),
        )
        assert rules_of(findings) == ["REP004"]
        assert "C.MAP_INPUT_RECORD " in findings[0].message + " "

    def test_aliased_import_resolved(self):
        findings = lint(
            """
            import repro.mapreduce.counters as ctr
            NAME = ctr.C.TYPO
            """,
            config=self.cfg(),
        )
        assert rules_of(findings) == ["REP004"]

    def test_declared_counter_clean(self):
        findings = lint(
            """
            from repro.mapreduce.counters import C
            NAME = C.MAP_INPUT_RECORDS
            """,
            config=self.cfg(),
        )
        assert findings == []

    def test_unrelated_c_object_ignored(self):
        findings = lint(
            """
            class C:
                pass
            X = C.anything  # a different C, no counters import
            """,
            config=self.cfg(),
        )
        assert findings == []

    def test_suppressed(self):
        findings = lint(
            """
            from repro.mapreduce.counters import C
            NAME = C.EXPERIMENTAL  # reprolint: disable=REP004 -- staged rollout
            """,
            config=self.cfg(),
        )
        assert findings == []


# -- REP005: tracer discipline ------------------------------------------------


class TestREP005:
    def cfg(self):
        return LintConfig(
            span_names_override=frozenset({"map", "sort"}),
            event_names_override=frozenset({"node.crash"}),
        )

    def test_span_outside_with_flagged(self):
        findings = lint(
            """
            def run(tracer):
                handle = tracer.span("map")
                handle.__enter__()
            """,
            config=self.cfg(),
        )
        assert rules_of(findings) == ["REP005"]
        assert "with" in findings[0].message

    def test_unregistered_span_name_flagged(self):
        findings = lint(
            """
            def run(self):
                with self.tracer.span("mystery-phase"):
                    pass
            """,
            config=self.cfg(),
        )
        assert rules_of(findings) == ["REP104"]
        assert "mystery-phase" in findings[0].message

    def test_unregistered_event_name_flagged(self):
        findings = lint(
            """
            def run(tracer):
                tracer.event("node.crashed")
            """,
            config=self.cfg(),
        )
        assert rules_of(findings) == ["REP104"]

    def test_dynamic_name_deferred_to_rep104(self):
        findings = lint(
            """
            def run(tracer, phase):
                with tracer.span(f"phase-{phase}"):
                    pass
            """,
            config=self.cfg(),
        )
        assert rules_of(findings) == ["REP104"]
        assert "cannot be resolved statically" in findings[0].message

    def test_clean_usage(self):
        findings = lint(
            """
            def run(self, trc):
                with self.tracer.span("map", "map", cost=3):
                    pass
                trc.event("node.crash", "recovery")
                self.tracer.add_span("sort", "sort", 0, 4)
            """,
            config=self.cfg(),
        )
        assert findings == []

    def test_non_tracer_receivers_ignored(self):
        findings = lint(
            """
            def run(doc):
                doc.span("anything")
                doc.event("whatever")
            """,
            config=self.cfg(),
        )
        assert findings == []

    def test_suppressed(self):
        findings = lint(
            """
            def run(tracer):
                h = tracer.span("map")  # reprolint: disable=REP005 -- closed by caller
                return h
            """,
            config=self.cfg(),
        )
        assert findings == []


class TestJournalNamesRegistered:
    """The journal/chaos observability names are in the real registry.

    Unlike :class:`TestREP005` these fixtures run against the actual
    ``repro.obs.names`` registry (no override), so they fail if the
    names the journal subsystem emits ever drop out of ``names.py``.
    """

    def test_journal_names_lint_clean(self):
        findings = lint(
            """
            def run(self, tracer):
                with tracer.span("journal-replay", "journal"):
                    pass
                tracer.event("journal.resume", "journal")
                tracer.event("journal.commit", "journal")
                tracer.event("journal.truncated", "journal")
                tracer.event("chaos.crashpoint", "chaos")
            """
        )
        assert findings == []

    def test_near_miss_names_flagged(self):
        findings = lint(
            """
            def run(tracer):
                tracer.event("journal.resumed")
                with tracer.span("journal-replayed"):
                    pass
            """
        )
        assert rules_of(findings) == ["REP104", "REP104"]


# -- REP006: unordered set iteration ------------------------------------------


class TestREP006:
    def test_for_over_set_flagged(self):
        findings = lint(
            """
            def emit(keys):
                pending = set(keys)
                for key in pending:
                    yield key
            """
        )
        assert rules_of(findings) == ["REP006"]
        assert "sorted" in findings[0].message

    def test_set_difference_flagged(self):
        findings = lint(
            """
            def evict(table, hot):
                resident = {k for k in table}
                for key in resident - hot:
                    table.pop(key)
            """
        )
        assert rules_of(findings) == ["REP006"]

    def test_self_attribute_set_flagged(self):
        findings = lint(
            """
            class Tracker:
                def __init__(self):
                    self._seen: set[str] = set()

                def dump(self):
                    return [k for k in self._seen]
            """
        )
        assert rules_of(findings) == ["REP006"]

    def test_list_of_set_literal_flagged(self):
        findings = lint("VALUES = list({'a', 'b'})\n")
        assert rules_of(findings) == ["REP006"]

    @pytest.mark.parametrize(
        "snippet",
        [
            # sorted() is the fix
            "def f(keys):\n    s = set(keys)\n    for k in sorted(s):\n        pass\n",
            # order-free reductions
            "def f(keys):\n    s = set(keys)\n    return sum(1 for k in s)\n",
            "def f(keys):\n    s = set(keys)\n    return max(s), len(s), any(k for k in s)\n",
            # set-to-set rebuilds cannot leak order
            "def f(keys):\n    s = set(keys)\n    return {k for k in s if k}\n",
            # membership is not iteration
            "def f(keys, k):\n    s = set(keys)\n    return k in s\n",
            # lists iterate deterministically
            "def f(keys):\n    s = list(keys)\n    for k in s:\n        pass\n",
        ],
    )
    def test_clean_variants(self, snippet):
        assert lint(snippet) == []

    def test_out_of_scope_module_ignored(self):
        src = "def f(keys):\n    s = set(keys)\n    for k in s:\n        pass\n"
        assert lint(src, modpath="repro/san/fixture.py") == []

    def test_suppressed(self):
        findings = lint(
            """
            def f(keys):
                s = set(keys)
                for k in s:  # reprolint: disable=REP006 -- feeds a commutative sum
                    pass
            """
        )
        assert findings == []


class TestREP006UnorderedSources:
    """The widened REP006 surface: frozenset, set-call locals, and dict
    views on dicts built from unordered sources."""

    def test_frozenset_iteration_flagged(self):
        findings = lint(
            """
            def f(keys):
                frozen = frozenset(keys)
                for k in frozen:
                    pass
            """
        )
        assert rules_of(findings) == ["REP006"]

    def test_set_call_local_flagged(self):
        findings = lint(
            """
            def f(keys):
                s = set(keys)
                return [k for k in s]
            """
        )
        assert rules_of(findings) == ["REP006"]

    @pytest.mark.parametrize(
        "view", ["d", "d.keys()", "d.values()", "d.items()"]
    )
    def test_dict_fromkeys_set_views_flagged(self, view):
        findings = lint(
            f"""
            def f(keys):
                d = dict.fromkeys({{k for k in keys}})
                for item in {view}:
                    pass
            """
        )
        assert rules_of(findings) == ["REP006"]
        assert "dict built from an unordered source" in findings[0].message

    def test_dict_comprehension_over_set_flagged(self):
        findings = lint(
            """
            def f(keys):
                s = set(keys)
                d = {k: 0 for k in sorted(s)}
                e = {k: 0 for k in s}
                for k in e.keys():
                    pass
            """
        )
        # the comprehension over the bare set AND the view iteration
        assert rules_of(findings) == ["REP006", "REP006"]

    def test_sorted_dict_views_clean(self):
        findings = lint(
            """
            def f(keys):
                d = dict.fromkeys(set(keys))
                for k in sorted(d.keys()):
                    pass
                return sorted(d.items())
            """
        )
        assert findings == []

    def test_dict_from_ordered_source_clean(self):
        findings = lint(
            """
            def f(pairs):
                d = dict(pairs)
                for k in d.keys():
                    pass
            """
        )
        assert findings == []


# -- REP007: __slots__ on hot paths -------------------------------------------


class TestREP007:
    def cfg(self):
        return LintConfig(hot_path_modules_override=("repro/core/hot.py",))

    def test_slotless_class_flagged(self):
        findings = lint(
            """
            class State:
                def __init__(self):
                    self.count = 0
            """,
            modpath="repro/core/hot.py",
            config=self.cfg(),
        )
        assert rules_of(findings) == ["REP007"]
        assert "State" in findings[0].message

    def test_slots_and_dataclass_slots_clean(self):
        findings = lint(
            """
            from dataclasses import dataclass

            class State:
                __slots__ = ("count",)

            @dataclass(slots=True)
            class Row:
                key: str
            """,
            modpath="repro/core/hot.py",
            config=self.cfg(),
        )
        assert findings == []

    def test_plain_dataclass_flagged(self):
        findings = lint(
            """
            from dataclasses import dataclass

            @dataclass
            class Row:
                key: str
            """,
            modpath="repro/core/hot.py",
            config=self.cfg(),
        )
        assert rules_of(findings) == ["REP007"]

    def test_exception_and_protocol_exempt(self):
        findings = lint(
            """
            from typing import Protocol

            class HotError(Exception):
                pass

            class Reader(Protocol):
                def read(self) -> bytes: ...
            """,
            modpath="repro/core/hot.py",
            config=self.cfg(),
        )
        assert findings == []

    def test_other_module_ignored(self):
        findings = lint(
            "class State:\n    pass\n",
            modpath="repro/core/cold.py",
            config=self.cfg(),
        )
        assert findings == []

    def test_suppressed(self):
        findings = lint(
            """
            class State:  # reprolint: disable=REP007 -- instances are singletons
                pass
            """,
            modpath="repro/core/hot.py",
            config=self.cfg(),
        )
        assert findings == []


# -- hot-path list parsing ----------------------------------------------------


def test_hot_path_modules_parsed_from_performance_doc(tmp_path):
    doc = tmp_path / "docs" / "PERFORMANCE.md"
    doc.parent.mkdir()
    (tmp_path / "src" / "repro").mkdir(parents=True)
    doc.write_text(
        "intro\n\n"
        "<!-- reprolint: hot-path-modules -->\n"
        "- `src/repro/core/hash_tables.py`\n"
        "- `src/repro/obs/tracer.py`\n"
        "<!-- /reprolint -->\n"
    )
    from repro.lint import LintContext

    ctx = LintContext(LintConfig(root=tmp_path))
    assert ctx.hot_path_modules == (
        "repro/core/hash_tables.py",
        "repro/obs/tracer.py",
    )
