"""Fingerprint of the host that produced a result.

Measured numbers only compare across runs of one host, so every result
carries the CPU model, core count, numpy and BLAS build, BLAS thread
count and Python version of the machine that measured it. (The
repository's tuning-DB fingerprint hashes the *modeled* machine spec and
is the same everywhere, so it cannot serve here.)
"""

from __future__ import annotations

import ctypes
import os
import platform

import numpy as np


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> dict:
    info = {"name": "unknown", "version": "unknown", "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"] = blas.get("name", "unknown")
        info["version"] = blas.get("version", "unknown")
    except (KeyError, TypeError):
        pass
    info["threads"] = _openblas_threads()
    return info


def _openblas_threads() -> int | None:
    """Thread count of the OpenBLAS numpy loaded (None if not found)."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line and "/" in line})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def fingerprint() -> dict:
    return {
        "cpu": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "numpy": np.__version__,
        "blas": _blas(),
        "python": platform.python_version(),
    }
