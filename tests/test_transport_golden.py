"""Cross-transport golden equivalence for the parallel lifted jet.

The ISSUE 6 acceptance criterion for the transport refactor: the
lifted-jet parallel scenario (chemistry load balancing enabled) must be
*bitwise identical* run-to-run on the in-process reference transport,
and agree to <= 1e-12 relative on the multiprocessing backend. The
committed golden under ``tests/goldens/lifted_jet_parallel.json`` pins
the in-process numbers; this module pins the backends to each other.

The multiprocessing comparison is the teeth of the suite: every array
that crosses the execution plane (conserved blocks, deferred-reaction
primitives, chemlb shipments, filtered fields) must survive the
SharedMemory round trip without perturbation. In practice the two
backends agree *bitwise* — the 1e-12 bound is the contract, not the
observation.
"""

import numpy as np
import pytest

from repro.analysis.golden import (
    LIFTED_JET_PARALLEL_DT,
    LIFTED_JET_PARALLEL_STEPS,
    lifted_jet_parallel_solver,
)
from repro.parallel.comm import transport_unavailable_reason
from tests.tolerances import MP_TRANSPORT_RTOL

pytestmark = [pytest.mark.transport, pytest.mark.golden, pytest.mark.slow]


def _run(comm_transport: str):
    """Run the golden scenario; return (final u, cells shipped)."""
    solver = lifted_jet_parallel_solver(comm_transport)
    try:
        for _ in range(LIFTED_JET_PARALLEL_STEPS):
            solver.step(LIFTED_JET_PARALLEL_DT)
        u = np.array(solver.state.u, copy=True)
        shipped = solver.chemlb.last_plan.cells_shipped
    finally:
        solver.close()
    return u, shipped


@pytest.fixture(scope="module")
def inprocess_run():
    return _run("inprocess")


def test_inprocess_bitwise_reproducible(inprocess_run):
    """Two in-process runs of the scenario are bitwise identical."""
    u1, _ = inprocess_run
    u2, _ = _run("inprocess")
    assert u1.shape == u2.shape
    assert np.array_equal(u1, u2), (
        "in-process transport is not run-to-run deterministic"
    )


def test_chemlb_path_active(inprocess_run):
    """The scenario genuinely exercises chemistry load balancing."""
    _, shipped = inprocess_run
    assert shipped > 0, (
        "lifted_jet_parallel no longer ships chemistry cells; the "
        "cross-transport test is not covering the chemlb path"
    )


def test_multiprocessing_matches_inprocess(inprocess_run):
    """Multiprocessing backend agrees to <= 1e-12 relative (chemlb on)."""
    reason = transport_unavailable_reason("multiprocessing")
    if reason:
        pytest.skip(reason)
    u_ref, shipped_ref = inprocess_run
    u_mp, shipped_mp = _run("multiprocessing")
    assert u_mp.shape == u_ref.shape
    # identical balancing decisions on both backends
    assert shipped_mp == shipped_ref
    scale = np.max(np.abs(u_ref), axis=tuple(range(1, u_ref.ndim)),
                   keepdims=True)
    rel = np.abs(u_mp - u_ref) / np.where(scale == 0.0, 1.0, scale)
    worst = float(rel.max())
    assert worst <= MP_TRANSPORT_RTOL, (
        f"multiprocessing deviates from in-process by {worst:.3e} "
        f"relative (contract: {MP_TRANSPORT_RTOL:.0e})"
    )
