"""Figure 1: weak scaling of S3D on XT3, XT4, and the hybrid Jaguar.

Paper series: ~55 us/point/step on XT4 (flat, 2 -> 8192 cores),
~68 us on XT3, and the hybrid pinned to the XT3 rate beyond the XT4
partition (12000-22800 cores). Those are *modelled* here
(``repro.perfmodel``); beside them the figure's first two points are
*measured* on this host: a fixed 48 x 48 H2 mixture-averaged block per
rank, one rank and two, over the multiprocessing transport — wall time
per owned point per step per rank, which weak scaling keeps flat.
"""

import os
import statistics
import sys
import time

import pytest

from conftest import write_result

# the measured series borrows the ledger workload's recipe (read-only)
sys.path.insert(0, os.path.join(os.path.dirname(__file__), "e2e"))
from repro.perfmodel import XT3, XT4, hybrid_weak_scaling, weak_scaling_curve
from repro.perfmodel.roofline import achieved_flops_fraction, total_time
from repro.perfmodel.kernels import s3d_kernel_inventory

CORES = [2, 8, 64, 512, 2048, 8192]
HYBRID_CORES = [2, 64, 2048, 8192, 12000, 16000, 22800]


def _figure():
    t3 = weak_scaling_curve(XT3, CORES)
    t4 = weak_scaling_curve(XT4, CORES)
    hyb = hybrid_weak_scaling(HYBRID_CORES)
    lines = ["Figure 1: cost per grid point per time step [us]", ""]
    lines.append(f"{'cores':>8s}{'XT3':>10s}{'XT4':>10s}")
    for c, a, b in zip(CORES, t3, t4):
        lines.append(f"{c:>8d}{a * 1e6:>10.2f}{b * 1e6:>10.2f}")
    lines.append("")
    lines.append(f"{'cores':>8s}{'hybrid':>10s}")
    for c, h in zip(HYBRID_CORES, hyb):
        lines.append(f"{c:>8d}{h * 1e6:>10.2f}")
    return t3, t4, hyb, "\n".join(lines)


#: the measured series: owned block per rank, fixed step, and rounds of
#: steps timed alternately on the 1-rank and the 2-rank solver
BLOCK = (48, 48)
MEASURED_DT = 2.0e-8
MEASURED_ROUNDS, STEPS_PER_ROUND = 4, 6
#: two ranks may cost this much more per owned point than one before the
#: executable figure stops counting as flat (IPC + two busy cores)
FLAT_WITHIN = 1.35


def _slab_solver(n_ranks: int):
    """An ``n_ranks`` x 1 slab of 48 x 48 blocks over the multiprocessing
    transport (the ``box2d_h2_par2`` ledger workload's physics and
    initial condition), two steps in."""
    from workloads import PAR_FILTER_ALPHA, h2_stripe_state

    from repro.chemistry import h2_li2004
    from repro.core import Grid
    from repro.parallel.decomp import CartesianDecomposition
    from repro.parallel.solver import ParallelPeriodicSolver
    from repro.transport import MixtureAveragedTransport

    mech = h2_li2004()
    shape = (n_ranks * BLOCK[0], BLOCK[1])
    grid = Grid(shape, (2.0e-3 * n_ranks, 2.0e-3), periodic=(True, True))
    decomp = CartesianDecomposition(shape, (n_ranks, 1), periodic=(True, True))
    solver = ParallelPeriodicSolver(
        mech, grid, decomp, transport=MixtureAveragedTransport(mech),
        reacting=True, scheme="ck45", filter_alpha=PAR_FILTER_ALPHA,
        comm_transport="multiprocessing")
    solver.set_state(h2_stripe_state(mech, grid, 0, u_rms=3.0).u)
    solver.run(2, MEASURED_DT)
    return solver


@pytest.fixture(scope="module")
def measured():
    """``{ranks: (best, median)}`` wall us per owned point per step per
    rank at 1 and 2 ranks. The two solvers are timed in alternating
    rounds, so a drift of the host's speed reaches both; other tenants
    of the machine only ever add time, so the best step of each side is
    the comparison that is about the code."""
    solvers = {n: _slab_solver(n) for n in (1, 2)}
    walls = {n: [] for n in solvers}
    try:
        for _ in range(MEASURED_ROUNDS):
            for n, solver in solvers.items():
                for _ in range(STEPS_PER_ROUND):
                    t0 = time.perf_counter()
                    solver.step(MEASURED_DT)
                    walls[n].append(time.perf_counter() - t0)
    finally:
        for solver in solvers.values():
            solver.close()
    per_point = 1e6 / (BLOCK[0] * BLOCK[1])
    return {n: (min(w) * per_point, statistics.median(w) * per_point)
            for n, w in walls.items()}


def test_fig01_weak_scaling(benchmark, measured):
    t3, t4, hyb, text = benchmark.pedantic(_figure, rounds=1, iterations=1)
    cores = len(os.sched_getaffinity(0))
    text += "\n".join([
        "", "",
        f"measured on this host ({cores} usable cores): {BLOCK[0]} x {BLOCK[1]} "
        "H2 mixture-averaged block per rank,",
        "multiprocessing transport, wall us per owned point per step per rank",
        f"({MEASURED_ROUNDS} alternating rounds of {STEPS_PER_ROUND} steps)",
        "",
        f"{'ranks':>8s}{'grid':>10s}{'best':>10s}{'median':>10s}",
        *(f"{n:>8d}{f'{n * BLOCK[0]}x{BLOCK[1]}':>10s}{best:>10.2f}{med:>10.2f}"
          for n, (best, med) in measured.items()),
        "",
        f"2 ranks / 1 rank (best steps): {measured[2][0] / measured[1][0]:.2f}"
        f" (flat means 1; asserted <= {FLAT_WITHIN} on >= 2 cores)",
    ])
    write_result("fig01_weak_scaling.txt", text)
    # paper levels
    assert t4[0] * 1e6 == pytest.approx(55.0, rel=0.03)
    assert t3[0] * 1e6 == pytest.approx(68.0, rel=0.03)
    # flat weak scaling
    assert (max(t4) - min(t4)) / min(t4) < 0.05
    # hybrid pinned to XT3 beyond 2 x 5294 XT4 cores
    assert hyb[-1] * 1e6 == pytest.approx(t3[0] * 1e6, rel=0.05)
    assert hyb[0] * 1e6 == pytest.approx(t4[0] * 1e6, rel=0.05)
    benchmark.extra_info["xt3_us"] = t3[0] * 1e6
    benchmark.extra_info["xt4_us"] = t4[0] * 1e6


def test_fig01_measured_cost_per_owned_point_is_flat(measured):
    """A rank computes only the points it owns, so a second rank adds
    its block and only exchange + IPC to the cost of a step. Two ranks
    need two cores: on fewer the ratio is reported, not asserted."""
    ratio = measured[2][0] / measured[1][0]
    print("\nmeasured us/point/step/rank (best / median): "
          + ", ".join(f"{n} rank(s) {best:.2f} / {med:.2f}"
                      for n, (best, med) in measured.items())
          + f"; ratio of bests {ratio:.2f}")
    if len(os.sched_getaffinity(0)) >= 2:
        assert ratio <= FLAT_WITHIN


def test_fig01_fifteen_percent_of_peak(benchmark):
    """§4.1's companion number: 0.305 flops/cycle = 15 % of peak."""
    frac = benchmark.pedantic(
        lambda: achieved_flops_fraction(s3d_kernel_inventory(), XT3),
        rounds=1, iterations=1,
    )
    assert frac == pytest.approx(0.15, abs=0.01)
