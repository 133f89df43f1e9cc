"""pytest integration: ``pytest --reprosan``.

With the flag, every test runs with an installed sanitizer (the race
detector) and fails if it records a violation — the dynamic analogue of
running the lint layer over the test suite.  Tests that *deliberately*
violate contracts (the battery's own tests, fixtures that probe crash
paths) opt out with ``@pytest.mark.no_reprosan``.

The sanitizer only observes engine scope, so ordinary unit tests pay a
single patch/unpatch per test and nothing else.
"""

from __future__ import annotations

import pytest

__all__ = ["pytest_addoption", "pytest_configure", "reprosan_guard"]


def pytest_addoption(parser: "pytest.Parser") -> None:
    parser.addoption(
        "--reprosan",
        action="store_true",
        default=False,
        help="run every test under the reprosan runtime sanitizer and fail "
        "on any recorded violation",
    )


def pytest_configure(config: "pytest.Config") -> None:
    config.addinivalue_line(
        "markers",
        "no_reprosan: opt this test out of --reprosan instrumentation "
        "(it deliberately violates a sanitized contract)",
    )


@pytest.fixture(autouse=True)
def reprosan_guard(request: "pytest.FixtureRequest"):
    if not request.config.getoption("--reprosan"):
        yield
        return
    if request.node.get_closest_marker("no_reprosan") is not None:
        yield
        return
    from repro.san.harness import Sanitizer, active_sanitizer

    if active_sanitizer() is not None:
        # A test (or fixture) already installed its own sanitizer.
        yield
        return
    with Sanitizer() as san:
        yield
    if not san.report.clean:
        lines = [
            f"{v.id}: {v.message}" for v in san.report.violations[:10]
        ]
        pytest.fail(
            "reprosan recorded violation(s) during this test:\n  "
            + "\n  ".join(lines),
            pytrace=False,
        )
