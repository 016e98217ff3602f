"""What a benchmark run ran on: code version, interpreter, BLAS, CPUs."""

import os
import platform

import numpy as np

from mmwsel import kernels


def git_sha(root) -> str:
    """Commit of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def blas_build() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return {"name": "unknown"}
    return {key: blas.get(key) for key in ("name", "version", "openblas configuration")}


def environment(root, thread_vars) -> dict:
    return {
        "git_sha": git_sha(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_build(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "kernels_backend": kernels.BACKEND,
        "blas_threads": {var: os.environ.get(var) for var in thread_vars},
    }
