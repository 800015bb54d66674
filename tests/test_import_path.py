"""Importing the package and its CLI loads no scipy: the one scipy user,
`operators.kernel_lower_bound`, imports `scipy.linalg` when it is called."""

import os
import subprocess
import sys
from pathlib import Path

import compoplab

SRC = str(Path(compoplab.__file__).parent.parent)


def test_importing_the_cli_loads_no_scipy():
    probe = (
        "import sys, compoplab, compoplab.cli\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]", f"scipy modules loaded on import: {out.stdout}"
