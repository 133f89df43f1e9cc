"""Lint configuration: what one run may vary.

The repository's vocabulary — which modules are deterministic scope,
which calls block, what counts as a resource — is not configuration:
nothing ever overrides it, so it lives as module constants beside the
rule that reads it.  What is left here is the root, the rule selection
and the one override tests use to lint fixture snippets without touching
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

    #: Repository root; source of the registry files.
    root: Path = field(default_factory=repo_root)

    #: Rule ids to run; empty means all.
    select: tuple[str, ...] = ()

    #: Test override for the hot-path module list (bypasses the doc).
    hot_path_modules_override: tuple[str, ...] | None = None
