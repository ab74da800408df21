"""``repro.parallel`` is a leaf: the §7 reproduction is not a production
dependency.  Importing the engine, the scheduler and the CLI must load no
``repro.parallel`` module."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_production_imports_load_no_parallel_module():
    probe = (
        "import sys\n"
        "import repro, repro.core.scheduler, repro.engine.session, repro.cli\n"
        "print(sorted(m for m in sys.modules if m.startswith('repro.parallel')))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
