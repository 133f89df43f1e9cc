"""Framework behaviour: suppressions, reporters, the runner."""

import json
import textwrap

from repro.lint import LintConfig, format_findings, lint_paths, lint_source
from repro.lint.core import Finding, LintModule, dotted_name


def findings_for(source, **kw):
    return lint_source(textwrap.dedent(source), modpath="repro/core/fx.py", **kw)


#: A kernel whose one line breaks two contracts: I/O (REP002) of a wall
#: clock (REP101).
TWO_RULE_KERNEL = """
import time

def k(ctx, spec):
    print(time.time())  {comment}

register_kernel("k", k)
"""


def kernel_findings(comment="", **kw):
    source = TWO_RULE_KERNEL.format(comment=comment)
    return lint_source(source, modpath="repro/exec/kernels.py", **kw)


# -- suppression comments -----------------------------------------------------


def test_suppression_is_rule_specific():
    # A REP101 disable does not hide the REP002 finding on the same line.
    findings = kernel_findings("# reprolint: disable=REP101 -- one of two")
    assert {f.rule for f in findings} == {"REP002"}


def test_suppression_multiple_rules_one_comment():
    assert kernel_findings("# reprolint: disable=REP002,REP101 -- both") == []


def test_malformed_suppression_ignored():
    src = """
    import time
    x = time.time()  # reprolint: disable=everything
    """
    assert [f.rule for f in findings_for(src)] == ["REP101"]


# -- import alias resolution --------------------------------------------------


def test_dotted_name_resolution():
    module = LintModule(
        "import numpy as np\nfrom time import time as wall\nimport repro.mapreduce.counters\n",
        path="x.py",
        modpath="repro/core/x.py",
    )
    import ast

    np_call = ast.parse("np.random.default_rng").body[0].value
    assert dotted_name(np_call, module.aliases) == "numpy.random.default_rng"
    wall_call = ast.parse("wall").body[0].value
    assert dotted_name(wall_call, module.aliases) == "time.time"
    deep = ast.parse("repro.mapreduce.counters.C.X").body[0].value
    assert dotted_name(deep, module.aliases) == "repro.mapreduce.counters.C.X"


def make_finding(rule="REP101", path="repro/core/a.py", line=3, message="m"):
    return Finding(rule, path, line, 1, message)


# -- reporters ----------------------------------------------------------------


def test_text_report_lists_location_and_summary():
    out = format_findings([make_finding(message="bad call")], "text")
    assert "repro/core/a.py:3:1: REP101 bad call" in out
    assert "1 finding(s)" in out


def test_text_report_clean():
    assert "clean" in format_findings([], "text")


def test_json_report_is_machine_readable():
    out = format_findings([make_finding()], "json")
    data = json.loads(out)
    assert data["findings"][0]["rule"] == "REP101"
    assert data["findings"][0]["line"] == 3


# -- runner -------------------------------------------------------------------


def test_lint_paths_reports_syntax_errors(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("def broken(:\n")
    findings = lint_paths([bad], LintConfig(root=tmp_path))
    assert [f.rule for f in findings] == ["REP000"]


def test_lint_paths_sorted_and_scoped(tmp_path):
    pkg = tmp_path / "src" / "repro" / "core"
    pkg.mkdir(parents=True)
    (pkg / "b.py").write_text("import time\nx = time.time()\n")
    (pkg / "a.py").write_text("import time\ny = time.time()\n")
    findings = lint_paths([tmp_path / "src"], LintConfig(root=tmp_path))
    assert [f.path for f in findings] == ["src/repro/core/a.py", "src/repro/core/b.py"]
    assert {f.rule for f in findings} == {"REP101"}


def test_select_limits_rules():
    assert {f.rule for f in kernel_findings()} == {"REP002", "REP101"}
    only_one = kernel_findings(config=LintConfig(select=("REP002",)))
    assert [f.rule for f in only_one] == ["REP002"]
