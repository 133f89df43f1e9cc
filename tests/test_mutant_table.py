"""The committed mutant kill table against the tree it describes.

This does not run the mutants — ``python -m tests.mutants --check`` does,
in minutes.  It checks, in milliseconds, that the table in
``docs/STATIC_ANALYSIS.md`` still fits this tree: every mutant's site is
still where the table found it, every checker left has a bug only it
catches, and every retired checker is gone and stood in for.
"""

import pytest

from repro.lint import ALL_RULES
from repro.lint.sarif import full_catalogue
from repro.san.report import DETECTORS
from tests.mutants import MISS, MUTANTS, RESTORE_FROM, RETIRED, ROOT, committed_rows, parse, unique_kills

TABLE = parse(committed_rows())
CHECKERS = [rule.id for rule in ALL_RULES] + [d.id for d in DETECTORS]


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_mutant_site_still_matches_once(mutant):
    for rel, old, _new in MUTANTS[mutant][1]:
        count = (ROOT / "src/repro" / rel).read_text().count(old)
        assert count == 1, (
            f"{mutant}'s site in {rel} matches {count} times: move the substitution in "
            "tests/mutants.py and re-record with `python -m tests.mutants --write`"
        )


def test_table_has_one_row_per_mutant():
    assert sorted(TABLE) == sorted(MUTANTS)
    assert len(MUTANTS) >= 20


@pytest.mark.parametrize("checker", CHECKERS)
def test_every_checker_has_a_unique_kill(checker):
    assert unique_kills(TABLE).get(checker), (
        f"{checker} kills no mutant that T (and, for a SAN id, every lint rule) misses"
    )


def test_retired_checkers_are_gone():
    listed = set(CHECKERS) | {entry["id"] for entry in full_catalogue()}
    assert not listed & set(RETIRED)


@pytest.mark.parametrize("checker", sorted(RETIRED))
def test_retired_checkers_mutants_are_still_killed(checker):
    """The tripwire: a retired rule's mutants stay killed by T, a retired
    detector's by T or a surviving rule.  When one is not, restore the
    checker from the commit ``RESTORE_FROM`` files it under."""
    (commit,) = [c for c, group in RESTORE_FROM.items() if checker in group]
    for mutant in RETIRED[checker]:
        t, rules, _sans = TABLE[mutant]
        assert t != MISS or (checker.startswith("SAN") and rules), (
            f"{mutant} is no longer killed: restore {checker} from commit {commit}"
        )
