"""Lint configuration: what one run may vary.

The repository's vocabulary — which modules are deterministic scope,
which calls block, what counts as a resource — is not configuration:
nothing ever overrides it, so it lives as module constants beside the
rule that reads it.  What is left here is the root, the rule selection
and the overrides tests use to lint fixture snippets without touching
the real tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

__all__ = ["LintConfig", "repo_root"]


def repo_root(start: Path | None = None) -> Path:
    """The repository root: the nearest ancestor holding ``src/repro``."""
    here = (start or Path(__file__)).resolve()
    for parent in (here, *here.parents):
        if (parent / "src" / "repro").is_dir():
            return parent
    return Path.cwd()


@dataclass(slots=True)
class LintConfig:
    """Knobs for one lint run."""

    #: Repository root; source of the registry files and the program.
    root: Path = field(default_factory=repo_root)

    #: Rule ids to run; empty means all.
    select: tuple[str, ...] = ()

    # -- test-injection overrides (bypass the on-disk tree) ----------------
    #: modpath -> source replacing the on-disk whole program.
    program_modules_override: dict[str, str] | None = None
    kernel_source_override: str | None = None
    executor_source_override: str | None = None
    hot_path_modules_override: tuple[str, ...] | None = None
