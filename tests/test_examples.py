"""Every example script must run clean — they are the adoption surface."""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES = sorted(
    p.name for p in (pathlib.Path(__file__).parent.parent / "examples").glob("*.py")
)


@pytest.mark.parametrize("script", EXAMPLES)
def test_example_runs(script):
    path = pathlib.Path(__file__).parent.parent / "examples" / script
    proc = subprocess.run(
        [sys.executable, str(path)],
        capture_output=True,
        text=True,
        timeout=240,
    )
    assert proc.returncode == 0, f"{script} failed:\n{proc.stderr[-2000:]}"
    assert proc.stdout.strip(), f"{script} produced no output"


def test_expected_examples_present():
    """The examples index lists exactly the scripts in the directory."""
    readme = (pathlib.Path(__file__).parent.parent / "examples" / "README.md").read_text()
    listed = {row.split("`")[1] for row in readme.splitlines() if row.startswith("| `")}
    assert listed == set(EXAMPLES) and EXAMPLES
