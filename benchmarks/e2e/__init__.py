"""The repo's end-to-end benchmark: five named workloads through ``Session``.

Run ``python -m benchmarks.e2e --help`` from the repository root; see
``README.md`` beside this file for every metric's definition.
"""

import sys
from pathlib import Path

#: The repository root (the checkout the benchmark runs in).
ROOT = Path(__file__).resolve().parents[2]

# ``repro`` is not installed in the benchmark's checkout: it runs from source.
_SRC = str(ROOT / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)
