"""The machine's sgemm rate at given GEMM shapes, with operands in normal range.

Reference for the layers' achieved GF/s: the same shapes and transpose flags
as ``abas.autodiff`` issues, but on standard-normal float32 operands, so no
subnormal products slow the kernel down.
"""

from __future__ import annotations

import time

import numpy as np

from .flops import gemm_flops

# decoder gated-conv weight gradient at segment 1600: (128 x 100) @ (100 x 4160)
DEC_WGRAD_SHAPE = (128, 100, 4160, False, True)


def _operands(rng, shape):
    m, k, n, ta, tb = shape
    a = rng.standard_normal((k, m) if ta else (m, k), dtype=np.float32)
    b = rng.standard_normal((n, k) if tb else (k, n), dtype=np.float32)
    return (a.T if ta else a), (b.T if tb else b), np.empty((m, n), np.float32)


def seconds_per_call(shape, rng, min_seconds: float = 0.01, min_reps: int = 3) -> float:
    """Median wall time of one ``np.matmul`` at this shape after one warm call."""
    a, b, out = _operands(rng, shape)
    np.matmul(a, b, out=out)
    times = []
    start = time.perf_counter()
    while len(times) < min_reps or time.perf_counter() - start < min_seconds:
        t0 = time.perf_counter()
        np.matmul(a, b, out=out)
        times.append(time.perf_counter() - t0)
    return float(np.median(times))


def sgemm_gflops(shape_counts: dict, rng) -> float:
    """GF/s over a mix of shapes, each weighted by how often it runs."""
    flop = seconds = 0.0
    for shape, count in shape_counts.items():
        flop += count * gemm_flops(shape)
        seconds += count * seconds_per_call(shape, rng)
    return flop / seconds / 1e9 if seconds > 0 else 0.0
