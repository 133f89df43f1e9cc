"""Every ``src/repro`` module outside ``lint/`` answers to a paper claim, a
caller or a gated benchmark cell.

DESIGN.md commits one table between ``surface-audit`` markers: a row per
module with its ``wc -l``, the paper figure/table/section (or CI gate) it
backs, and who imports it, by group.  The *backs* column is written by
hand; every other column is recomputed here from the AST import graph,
so the table cannot drift from the tree, and a module that has no claim,
no caller in ``src/`` and no gated benchmark cell fails the suite instead
of lingering.  ``PYTHONPATH=src python -m tests.test_surface_audit``
prints the rows to paste.

DESIGN.md §4 is the same audit for the bench suite: one row per
``benchmarks/bench_*.py`` test, whose id column is recomputed here.
"""

import ast
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OPEN, CLOSE = "<!-- surface-audit -->", "<!-- /surface-audit -->"
BENCH_OPEN, BENCH_CLOSE = "<!-- bench-audit -->", "<!-- /bench-audit -->"

#: Modules reached by name rather than by an import statement.
RUN_BY_NAME = {
    "__main__.py": "`python -m repro`",
    "san/pytest_plugin.py": "`pytest_plugins` in the root `conftest.py`",
}

GROUPS = ("src", "cli", "e2e", "gated", "examples", "tests")
HEADER = (
    "| module | lines | backs (paper claim / CI gate) | `src/` importers | `repro.cli` "
    "| `benchmarks/e2e` | gated benches | examples | tests |"
)
NO_CLAIM = "—"


def dotted(path: Path, src: Path) -> str:
    parts = path.relative_to(src).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def imports_of(tree: ast.AST) -> list[tuple[str, str | None]]:
    """``(module, name)`` for every import statement, at any depth."""
    found: list[tuple[str, str | None]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(alias.name, None) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            found += [(node.module, alias.name) for alias in node.names]
    return found


def group_of(path: Path, root: Path, src: Path) -> str | None:
    """Which column a file's imports are counted in (``None``: not a caller)."""
    if path.is_relative_to(src):
        if path.name == "__init__.py":
            return None  # a package re-export is not a caller
        return "cli" if path == src / "repro/cli.py" else "src"
    rel = path.relative_to(root).parts
    if rel[0] == "benchmarks":
        # BENCHMARK.json runs ``e2e``; the CI ``perf`` job runs the rest.
        return "e2e" if rel[1] == "e2e" else "gated"
    return rel[0] if rel[0] in ("examples", "tests") else "tests"  # root conftest.py


def module_index(src: Path):
    """The ``src/repro`` modules by dotted name, their parsed trees, and
    the resolver from one ``imports_of`` pair to the module it names."""
    modules = {dotted(p, src): p for p in sorted((src / "repro").rglob("*.py"))}
    trees = {name: ast.parse(p.read_text()) for name, p in modules.items()}
    # package -> {name: module the package's __init__ imports it from}
    reexports = {
        name: {alias: module for module, alias in imports_of(trees[name]) if alias}
        for name, p in modules.items()
        if p.name == "__init__.py"
    }

    def resolve(module: str, name: str | None) -> str | None:
        if name and f"{module}.{name}" in modules:
            return f"{module}.{name}"
        if name and name in reexports.get(module, {}):
            return resolve(reexports[module][name], name)
        return module if module in modules else None

    return modules, trees, resolve


def src_import_graph(src: Path = ROOT / "src") -> dict[str, set[str]]:
    """Module path under ``src/`` -> the ``src/repro`` module paths its
    import statements name (``tests/lint/test_self_clean.py`` closes
    ``DETERMINISTIC_SCOPES`` over this)."""
    modules, trees, resolve = module_index(src)
    path_of = {name: p.relative_to(src).as_posix() for name, p in modules.items()}
    return {
        path_of[name]: {
            path_of[target]
            for target in (resolve(module, alias) for module, alias in imports_of(tree))
            if target is not None
        }
        for name, tree in trees.items()
    }


def surface_audit(src: Path = ROOT / "src", root: Path = ROOT) -> list[dict]:
    """One row per module: path under ``src/repro``, ``wc -l`` and, per
    group, how many files import it."""
    modules, trees, resolve = module_index(src)
    importers: dict[str, dict[str, set[Path]]] = {m: {g: set() for g in GROUPS} for m in modules}
    callers = [*modules.values(), root / "conftest.py"]
    for folder in ("benchmarks", "examples", "tests"):
        callers += sorted((root / folder).rglob("*.py"))
    for path in callers:
        group = group_of(path, root, src)
        if group is None:
            continue
        tree = trees[dotted(path, src)] if path.is_relative_to(src) else ast.parse(path.read_text())
        for module, name in imports_of(tree):
            target = resolve(module, name)
            if target is not None and modules[target] != path:
                importers[target][group].add(path)

    rows = []
    for name, path in modules.items():
        rel = path.relative_to(src / "repro")
        if rel.parts[0] == "lint" or path.name in ("__init__.py", "__main__.py"):
            continue
        counts = {g: len(importers[name][g]) for g in GROUPS}
        rows.append({"module": rel.as_posix(), "lines": path.read_text().count("\n"), **counts})
    return rows


def committed_table(root: Path = ROOT) -> list[str]:
    table = (root / "DESIGN.md").read_text().split(OPEN)[1].split(CLOSE)[0]
    return table.strip().splitlines()


def committed_claims(root: Path = ROOT) -> dict[str, str]:
    """The hand-written column: module -> what it backs."""
    cells = (line.strip("| ").split(" | ") for line in committed_table(root)[2:])
    return {row[0].strip("`"): row[2] for row in cells}


def render(rows: list[dict], claims: dict[str, str]) -> list[str]:
    lines = [HEADER, "|" + " --- |" * (HEADER.count(" | ") + 1)]
    for row in rows:
        module = row["module"]
        cells = [
            f"`{module}`",
            row["lines"],
            claims.get(module, NO_CLAIM),
            f"{row['src']} (run by name)" if module in RUN_BY_NAME else row["src"],
            "✓" if row["cli"] else NO_CLAIM,
            *(row[group] or NO_CLAIM for group in GROUPS[2:]),
        ]
        lines.append("| " + " | ".join(map(str, cells)) + " |")
    return lines


def unbacked(rows: list[dict], claims: dict[str, str]) -> list[str]:
    """Modules with no claim, no ``src/`` caller and no gated cell, all at once."""
    return [
        row["module"]
        for row in rows
        if claims.get(row["module"], NO_CLAIM) == NO_CLAIM
        and row["module"] not in RUN_BY_NAME
        and not (row["src"] or row["cli"] or row["e2e"] or row["gated"])
    ]


def test_committed_table_is_the_one_the_tree_computes():
    assert committed_table() == render(surface_audit(), committed_claims()), (
        "paste the output of `PYTHONPATH=src python -m tests.test_surface_audit` "
        "between the surface-audit markers in DESIGN.md"
    )


def test_every_module_has_a_claim_a_caller_or_a_gated_cell():
    rows = surface_audit()
    assert unbacked(rows, committed_claims()) == []
    assert RUN_BY_NAME.keys() - {"__main__.py"} <= {row["module"] for row in rows}


def test_an_uncalled_module_fails_the_audit(tmp_path):
    shutil.copytree(
        ROOT / "src/repro", tmp_path / "src/repro", ignore=shutil.ignore_patterns("__pycache__")
    )
    (tmp_path / "src/repro/core/orphan.py").write_text('"""Nobody imports this."""\n')
    rows = surface_audit(src=tmp_path / "src")
    assert unbacked(rows, committed_claims()) == ["core/orphan.py"]
    assert render(rows, committed_claims()) != committed_table()


def bench_ids(root: Path = ROOT) -> list[str]:
    """``bench_*.py::test_*`` for every bench test, in collection order."""
    return [
        f"{path.name}::{node.name}"
        for path in sorted((root / "benchmarks").glob("bench_*.py"))
        for node in ast.parse(path.read_text()).body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("test")
    ]


def committed_bench_ids(root: Path = ROOT) -> list[str]:
    """The id column of DESIGN.md §4's bench audit."""
    table = (root / "DESIGN.md").read_text().split(BENCH_OPEN)[1].split(BENCH_CLOSE)[0]
    return [line.split(" | ")[0].strip("| `") for line in table.strip().splitlines()[2:]]


def test_every_bench_test_has_one_experiment_row():
    assert committed_bench_ids() == bench_ids(), (
        "DESIGN.md §4 needs one bench-audit row per benchmarks/bench_*.py test, in order"
    )


def test_an_unlisted_bench_test_or_a_stale_row_fails_the_index(tmp_path):
    (tmp_path / "benchmarks").mkdir()
    for path in (ROOT / "benchmarks").glob("bench_*.py"):
        shutil.copy(path, tmp_path / "benchmarks")
    design = tmp_path / "DESIGN.md"
    shutil.copy(ROOT / "DESIGN.md", design)
    assert bench_ids(tmp_path) == committed_bench_ids(tmp_path)

    (tmp_path / "benchmarks/bench_x.py").write_text("def test_unlisted(check):\n    pass\n")
    assert "bench_x.py::test_unlisted" in bench_ids(tmp_path)
    assert bench_ids(tmp_path) != committed_bench_ids(tmp_path)

    (tmp_path / "benchmarks/bench_x.py").unlink()
    stale = "| `bench_gone.py::test_missing` | X | — | — |\n"
    design.write_text(design.read_text().replace(BENCH_CLOSE, stale + BENCH_CLOSE))
    assert "bench_gone.py::test_missing" in committed_bench_ids(tmp_path)
    assert bench_ids(tmp_path) != committed_bench_ids(tmp_path)


if __name__ == "__main__":
    print("\n".join(render(surface_audit(), committed_claims())))
