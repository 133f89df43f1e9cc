"""Counter-registry discipline: every declared counter has its own name.

(The sweep that checked every ``C.<NAME>`` reference against the
registry was the REP004 lint rule, retired by the mutant kill table in
``docs/STATIC_ANALYSIS.md``: an undeclared name raises ``AttributeError``
on the first run that reaches it, and tier-1 reached every one the table
tried.)
"""

from repro.mapreduce.counters import C


def test_declared_counter_values_are_unique():
    values = [value for name, value in vars(C).items() if not name.startswith("_")]
    assert len(values) >= 30
    assert len(values) == len(set(values)), "duplicate counter string values on C"
