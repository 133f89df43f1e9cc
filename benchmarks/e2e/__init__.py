"""End-to-end engine x kernel-path x executor benchmark with a layer profile.

``python -m benchmarks.e2e run`` measures four paper workloads on the three
engines, both kernel paths and two executors (tracing off), then profiles
every layer from outside in a separate traced/probed pass.  ``README.md``
in this directory defines every metric, workload and command.

The package lives beside the repository's ``src/`` tree and is run from a
plain checkout, so it puts ``src`` on ``sys.path`` itself when ``repro`` is
not already importable.
"""

import importlib.util
import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parents[2] / "src"
if importlib.util.find_spec("repro") is None and _SRC.is_dir():
    sys.path.insert(0, str(_SRC))
