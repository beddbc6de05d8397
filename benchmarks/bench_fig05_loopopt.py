"""Figures 4-5: restructuring the diffusive-flux loop nest.

Paper: LoopTool's unswitch + scalarize + fuse + unroll-and-jam sequence
makes the kernel 2.94x faster (6.8 % whole-code) on a 50^3 problem by
exploiting data reuse that the naturally-written nest evicts from the
1 MB L2. Reproduced at two levels: measured wall time of the naive vs
restructured NumPy kernels, and simulated cache misses of the IR
pipeline.
"""

import time

import numpy as np
import pytest

from conftest import write_result
from repro.loopopt import (
    diffflux_program,
    naive_diffusive_flux,
    optimized_diffusive_flux,
    simulate_trace,
    trace_accesses,
)
from repro.loopopt.transforms import looptool_pipeline


def _elapsed(kernel, args):
    t0 = time.perf_counter()
    kernel(**args)
    return time.perf_counter() - t0


def _measure_kernels(n=44, ns=9, pairs=5):
    rng = np.random.default_rng(0)
    S = (n, n, n)
    args = dict(
        Ys=rng.random((ns,) + S), grad_Ys=rng.random((ns, 3) + S),
        Ds=rng.random((ns,) + S), grad_mixMW=rng.random((3,) + S),
        grad_T=rng.random((3,) + S), T=1.0 + rng.random(S),
        theta=rng.random((ns,) + S), thermdiff=True,
    )
    f_ref = naive_diffusive_flux(**args)
    f_opt = optimized_diffusive_flux(**args)
    assert np.allclose(f_ref, f_opt, rtol=1e-12, atol=1e-14)
    # naive and restructured runs alternate, so machine drift over the
    # measurement lands on both kernels; each kernel's time is its
    # fastest run
    t_naive = t_opt = np.inf
    for _ in range(pairs):
        t_naive = min(t_naive, _elapsed(naive_diffusive_flux, args))
        t_opt = min(t_opt, _elapsed(optimized_diffusive_flux, args))
    return t_naive, t_opt


def _cache_study():
    prog = diffflux_program(n_species=9, n_cells=30000, thermdiff=True)
    kw = dict(size_bytes=1 << 16)
    before = simulate_trace(trace_accesses(prog), **kw)
    after = simulate_trace(trace_accesses(looptool_pipeline(prog)), **kw)
    return before, after


def test_fig05_kernel_speedup(benchmark):
    t_naive, t_opt = benchmark.pedantic(_measure_kernels, rounds=1, iterations=1)
    speedup = t_naive / t_opt
    write_result(
        "fig05_loopopt_kernels.txt",
        "Figure 5 (kernel timing): diffusive-flux computation\n\n"
        f"naive (as written):   {t_naive * 1e3:9.2f} ms\n"
        f"restructured:         {t_opt * 1e3:9.2f} ms\n"
        f"speedup:              {speedup:9.2f}x   (paper kernel: 2.94x)\n",
    )
    benchmark.extra_info["speedup"] = speedup
    assert speedup > 1.4  # restructuring must win decisively


def test_fig05_cache_miss_reduction(benchmark):
    before, after = benchmark.pedantic(_cache_study, rounds=1, iterations=1)
    reduction = before.misses / after.misses
    write_result(
        "fig05_loopopt_cache.txt",
        "Figure 5 (cache simulation): unswitch + fuse + unroll-and-jam\n\n"
        f"original  miss rate: {before.miss_rate:8.4f}  ({before.misses} misses)\n"
        f"optimized miss rate: {after.miss_rate:8.4f}  ({after.misses} misses)\n"
        f"miss reduction:      {reduction:8.2f}x\n",
    )
    assert reduction > 1.5
    assert after.accesses == before.accesses  # same work, better reuse
