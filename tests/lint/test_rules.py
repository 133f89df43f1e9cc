"""Per-rule fixtures: each REP rule on violating, clean and suppressed code.

Every rule is demonstrated three ways: a snippet that fails before the
rule existed (and would pass without it), the contract-conforming
rewrite, and the violating snippet under an inline suppression.

The test classes keep the names of the ids their fixtures were written
for: REP001 was retired into REP101, the rule that owns the same
contract, so its fixtures, unchanged, assert the surviving id.  REP003's,
REP004's and REP005's registry-name fixtures went with REP102, REP004
and REP104, which the mutant kill table in ``docs/STATIC_ANALYSIS.md``
retired: the tests kill every mutant they caught.  The same table
retired REP005 and REP006 with their fixtures, once runtime checks (the
open-span count, the two-hash-seed digest) killed their mutants.  (REP008's fixtures went with the metrics
registry whose names it checked: a distribution is now a row the
analyzer reads off span args, with no call site to lint.)  ``TestREP101``
holds the two REP101 fixtures of the retired call-graph layer: a clock
read two helpers away is flagged where it is read.
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


# -- REP101: a source behind helpers is flagged where it is read --------------

#: A helper module in deterministic scope, imported by the fixture caller.
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
    """
)


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
        at_source = lint(HELPER_SRC, modpath=HELPER_MOD, select="REP101")
        assert [(f.rule, f.line) for f in at_source] == [("REP101", 6)]
        assert "time.time" in at_source[0].message


# -- REP002: kernel I/O purity (its state half is checked at run time) --------


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
        findings = lint(src, modpath=KERNEL_MOD)
        # One finding per I/O call; the three state touches are the
        # runtime checks' (tests/exec/test_module_state.py).
        assert rules_of(findings) == ["REP002"] * 2
        messages = " ".join(f.message for f in findings)
        assert "os.remove" in messages
        assert "open()" in messages

    def test_purity_extends_to_module_helpers(self):
        src = """
        def helper(spec):
            print(spec)

        def kernel(ctx, spec):
            return helper(spec)

        register_kernel("k", kernel)
        """
        findings = lint(src, modpath=KERNEL_MOD)
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
        assert lint(src, modpath=KERNEL_MOD) == []

    def test_unregistered_function_not_checked(self):
        src = """
        def coordinator_only(plan):
            print(plan)
        """
        assert lint(src, modpath=KERNEL_MOD) == []

    def test_suppressed(self):
        src = """
        def k(ctx, spec):
            print(spec)  # reprolint: disable=REP002 -- debugging aid

        register_kernel("k", k)
        """
        assert lint(src, modpath=KERNEL_MOD) == []


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
