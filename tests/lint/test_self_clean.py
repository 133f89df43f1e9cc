"""The repository must satisfy its own lint pass.

``repro lint`` gates CI and there is no baseline to grandfather a
finding into, so these tests pin the gate's semantics: the tree is
clean, and seeding a synthetic violation — one per merged contract —
makes the full-tree pass fail with exactly one finding, which is what
would break the CI ``lint`` job.
"""

import ast
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lint import ALL_RULES, LintConfig, LintModule, lint_paths, lint_source
from repro.lint.core import attr_root, iter_py_files
from repro.lint.rules import DETERMINISTIC_SCOPES
from tests.test_surface_audit import src_import_graph

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"


def test_src_is_clean_modulo_baseline():
    # "Modulo" nothing: the baseline is gone, any finding fails.
    findings = lint_paths([SRC], LintConfig(root=ROOT))
    assert not findings, "lint findings:\n" + "\n".join(map(str, findings))


KERNEL_ANCHOR = (
    "def hadoop_map_kernel(ctx: dict[str, Any], spec: HadoopMapSpec) -> HadoopMapResult:\n"
    '    """One sort-spill map task over one block, against a shadow disk."""\n'
)


def seed_kernel(source: str, statement: str) -> str:
    seeded = source.replace(KERNEL_ANCHOR, KERNEL_ANCHOR + f"    {statement}\n")
    assert seeded != source, "seeding anchor not found in kernels.py"
    return seeded


def test_synthetic_violation_in_kernels_fails_the_pass():
    kernels = ROOT / "src/repro/exec/kernels.py"
    findings = lint_source(
        seed_kernel(kernels.read_text(), "started_at = time.time()"),
        modpath="repro/exec/kernels.py",
        config=LintConfig(root=ROOT),
    )
    assert [f.rule for f in findings] == ["REP101"], findings
    assert "time.time" in findings[0].message


#: One seeded violation per merged contract: name -> ({file: edit}, the
#: one finding the full-tree pass must report).  An edit is text appended
#: to the file, or a callable rewriting it; a missing file is created.
SEEDS = {
    "two-hop wall-clock read": (
        {
            # The kernel reaches the clock through two calls into a module
            # outside the engines; deterministic scope is closed under
            # imports, so the read is flagged where it stands.
            "src/repro/analysis/seeded_clock.py": (
                "import time\n\n\ndef _now():\n    return time.time()\n\n\n"
                "def two_hop():\n    return _now()\n"
            ),
            "src/repro/exec/kernels.py": lambda s: seed_kernel(
                "from repro.analysis import seeded_clock\n" + s,
                "started_at = seeded_clock.two_hop()",
            ),
        },
        ("REP101", "src/repro/analysis/seeded_clock.py"),
    ),
}


@pytest.fixture(scope="module")
def tree_copy(tmp_path_factory):
    """A scratch copy of everything the default pass reads under ``src/``."""
    root = tmp_path_factory.mktemp("seeded-tree")
    shutil.copytree(
        SRC / "repro", root / "src/repro", ignore=shutil.ignore_patterns("__pycache__")
    )
    (root / "docs").mkdir()
    shutil.copy(ROOT / "docs/PERFORMANCE.md", root / "docs/PERFORMANCE.md")
    return root


@pytest.mark.parametrize("seed", sorted(SEEDS))
def test_seeded_violation_fails_the_full_tree_pass_once(tree_copy, seed):
    edits, expected = SEEDS[seed]
    originals = {}
    try:
        for rel, edit in edits.items():
            path = tree_copy / rel
            originals[path] = path.read_text() if path.exists() else None
            before = originals[path] or ""
            path.write_text(edit(before) if callable(edit) else before + edit)
        findings = lint_paths([tree_copy / "src"], LintConfig(root=tree_copy))
    finally:
        for path, text in originals.items():
            if text is None:
                path.unlink()
            else:
                path.write_text(text)
    assert [(f.rule, f.path) for f in findings] == [expected], findings


def test_every_rule_has_a_subject_in_this_tree(capsys, monkeypatch):
    """The audit snippet committed in docs/STATIC_ANALYSIS.md prints the
    table committed above it: a row per rule, a non-zero subject for each."""
    doc = (ROOT / "docs/STATIC_ANALYSIS.md").read_text()
    audit = doc.split("<!-- reprolint: rule-audit -->")[1]
    snippet = audit.split("```python\n")[1].split("```")[0]
    monkeypatch.chdir(ROOT)
    exec(compile(snippet, "docs/STATIC_ANALYSIS.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    committed = audit.split("<!-- /reprolint -->")[0].strip().splitlines()[2:]
    assert printed == committed, "paste the snippet's output between the rule-audit markers"
    rows = [line.split(" | ") for line in printed]
    assert [row[0].lstrip("| ") for row in rows] == [rule.id for rule in ALL_RULES]
    assert all(int(row[2]) > 0 for row in rows), rows


#: Module-path prefixes whose code runs on the coordinator (workloads are
#: excluded: their map/reduce closures execute inside kernels).
COORDINATOR_SCOPES = (
    "repro/core/",
    "repro/mapreduce/",
    "repro/exec/",
    "repro/hdfs/",
    "repro/io/",
    "repro/obs/",
    "repro/simulator/",
)

#: What REP203 (blocking calls) and REP206 (lock order) policed; both were
#: retired because coordinator-scope code contains none of it.
RETIRED_SUBJECTS = (
    "threading.Lock", "threading.RLock", "threading.Thread", "threading.Event",
    "multiprocessing.Process", "time.sleep", "subprocess.", "os.system", "os.wait",
    "queue.", "socket.", "select.",
)


def retired_rule_subjects(root):
    """Every lock, queue, socket, ``select`` or ``time.sleep`` call in a
    coordinator-scope (``exec/`` included) module, through an import."""
    hits = []
    for path in iter_py_files([Path(root) / "src/repro"]):
        module = LintModule(path.read_text(), path=str(path))
        if module.modpath.startswith(COORDINATOR_SCOPES):
            hits += [
                (module.modpath, dotted)
                for call in module.nodes(ast.Call)
                if (dotted := module.dotted(call.func) or "").startswith(RETIRED_SUBJECTS)
                and attr_root(call.func).id in module.aliases
            ]
    return hits


def test_retired_rules_still_have_nothing_to_check(tree_copy):
    assert not retired_rule_subjects(ROOT), (
        "coordinator-scope code now blocks or locks: restore REP203/REP206 and their "
        "facts from commit 41a1615 (lint/cfg/{rules,context}.py, dataflow/summary.py)"
    )
    driver = tree_copy / "src/repro/mapreduce/driver.py"
    original = driver.read_text()
    try:
        driver.write_text(original + "\nimport threading\n\n_GUARD = threading.Lock()\n")
        assert retired_rule_subjects(tree_copy) == [("repro/mapreduce/driver.py", "threading.Lock")]
    finally:
        driver.write_text(original)


def scope_leaks(src):
    """(importer, imported) pairs where a deterministic-scope module
    imports a ``src/repro`` module outside ``DETERMINISTIC_SCOPES``."""
    return sorted(
        (importer, target)
        for importer, targets in src_import_graph(Path(src)).items()
        if importer.startswith(DETERMINISTIC_SCOPES)
        for target in targets
        if not target.startswith(DETERMINISTIC_SCOPES)
    )


def test_deterministic_scope_is_closed_under_imports(tree_copy):
    """REP101 checks a clock read where it stands, so every module a
    deterministic one can reach must itself be in scope: the witness
    that replaced the rule's follow-the-call-chain half."""
    assert not scope_leaks(SRC), (
        "deterministic code imports a module REP101 does not check: add its package "
        "to DETERMINISTIC_SCOPES (lint/rules.py) or drop the import"
    )
    leak = tree_copy / "src/repro/core/x.py"
    try:
        leak.write_text("from repro.testing.chaos import run_crashpoint_sweep\n")
        assert scope_leaks(tree_copy / "src") == [
            ("repro/core/x.py", "repro/testing/chaos.py")
        ]
    finally:
        leak.unlink()


def test_cli_exit_codes_and_json(tmp_path):
    env_src = str(SRC)
    clean = subprocess.run(
        [sys.executable, "-m", "repro", "lint", str(SRC), "--format", "json"],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env={"PYTHONPATH": env_src, "PATH": "/usr/bin:/bin"},
    )
    assert clean.returncode == 0, clean.stdout + clean.stderr
    assert json.loads(clean.stdout) == {"findings": []}

    bad = tmp_path / "src" / "repro" / "core"
    bad.mkdir(parents=True)
    (bad / "fx.py").write_text("import time\nx = time.time()\n")
    dirty = subprocess.run(
        [sys.executable, "-m", "repro", "lint", str(bad / "fx.py")],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env={"PYTHONPATH": env_src, "PATH": "/usr/bin:/bin"},
    )
    assert dirty.returncode == 1, dirty.stdout + dirty.stderr
    assert "REP101" in dirty.stdout


def test_list_rules_names_all_layers():
    out = subprocess.run(
        [sys.executable, "-m", "repro", "lint", "--list-rules"],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
    )
    assert out.returncode == 0
    assert [line.split()[0] for line in out.stdout.splitlines()] == ["REP002", "REP007", "REP101"]
    for retired in (
        "REP004", "REP005", "REP006", "REP102", "REP104",
        "REP105", "REP201", "REP202", "REP203", "REP204", "REP205", "REP206",
    ):
        assert retired not in out.stdout
