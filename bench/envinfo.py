"""Environment record written into every result, and the comparability rule.

Two result sets are comparable only when every field in :data:`COMPARED`
agrees; the git revision is recorded but is what a comparison varies.
The CSV hash table is keyed by :func:`hash_key`, because the last bits of
a BLAS-backed result depend on the BLAS build, the CPU kernel it selected,
and its thread count.
"""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import subprocess
from pathlib import Path

import numpy
import scipy

COMPARED = ("python", "numpy", "scipy", "blas", "thread_env", "cpu_count", "workers")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def git_rev(root: Path) -> str:
    # the ceiling keeps git from reporting a repository that merely encloses root
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)}
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=10, env=env)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _openblas_runtime() -> dict:
    """Kernel name and thread count of numpy's bundled OpenBLAS, if it has one."""
    libdir = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libdir / "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                try:
                    core = getattr(lib, f"{prefix}get_corename{suffix}")
                    threads = getattr(lib, f"{prefix}get_num_threads{suffix}")
                except AttributeError:
                    continue
                core.restype, core.argtypes = ctypes.c_char_p, []
                threads.restype, threads.argtypes = ctypes.c_int, []
                return {"corename": core().decode(), "threads": int(threads())}
    return {"corename": "unknown", "threads": None}


def blas_info() -> dict:
    cfg = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"name": cfg.get("name"), "version": cfg.get("version"), **_openblas_runtime()}


def environment(root: Path, workers: int) -> dict:
    return {
        "git_rev": git_rev(root),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "cpu_count": os.cpu_count(),
        "workers": workers,
    }


def differences(env_a: dict, env_b: dict) -> list[str]:
    """Compared fields on which two environments disagree."""
    return [k for k in COMPARED if env_a.get(k) != env_b.get(k)]


def hash_key(env: dict) -> str:
    blas = env["blas"]
    return (f"numpy {env['numpy']}; scipy {env['scipy']}; {blas['name']} {blas['version']} "
            f"{blas['corename']} threads={blas['threads']}; workers={env['workers']}")
