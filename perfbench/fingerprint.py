"""Environment fingerprint recorded with every result."""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def nproc() -> int:
    """CPUs this process may run on (what `nproc` prints)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def set_blas_threads() -> int:
    """Set the BLAS thread count to nproc for this process and its children.

    Call before numpy loads; the count is never inherited from the caller.
    """
    threads = nproc()
    for var in THREAD_VARS:
        os.environ[var] = str(threads)
    return threads


def _blas_version(module) -> str | None:
    try:
        return module.__config__.CONFIG["Build Dependencies"]["blas"]["version"]
    except (AttributeError, KeyError, TypeError):
        return None


def git_commit(root: Path) -> str | None:
    """HEAD of the repository rooted exactly at `root`, or None outside one."""
    try:
        out = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2:
        return None
    if Path(lines[0]).resolve() != root.resolve():
        return None
    return lines[1]


def source_digest(root: Path) -> str:
    """sha256 over the paths and bytes of src/**/*.py: names the measured code
    when the checkout is not a git repository."""
    h = hashlib.sha256()
    src = root / "src"
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def fingerprint(root: Path, blas_threads: int) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": _blas_version(numpy),
        "scipy_openblas": _blas_version(scipy),
        "blas_threads": blas_threads,
        "nproc": nproc(),
        "machine": platform.machine(),
        "git_commit": git_commit(root),
        "source_sha256": source_digest(root),
    }
