"""Run manifest: where a result was measured and with which library stack.

BLAS threading is recorded as found and never set here, so a result shows the
library's default thread use (including any oversubscription) as it is.
"""

from __future__ import annotations

import os
import platform
import subprocess
from pathlib import Path

import numpy as np
import scipy

import onebitlink

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def git_commit(root: Path):
    """Commit checked out at `root`; None outside a git checkout or without git."""
    try:
        # the ceiling keeps git from reporting a repository that encloses `root`
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10,
                             env={**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)})
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _blas(show_config):
    try:
        blas = show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        return None
    return {"name": blas.get("name"), "version": blas.get("version")}


def collect(root: Path, **run) -> dict:
    """The manifest written next to every result; `run` holds the run's own settings."""
    return {
        **run,
        "git_commit": git_commit(root),
        "package_version": onebitlink.__version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas(np.show_config),
        "scipy_blas": _blas(scipy.show_config),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "platform": platform.platform(),
    }
