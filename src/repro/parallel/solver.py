"""A rank-parallel periodic DNS (§2.6), built from keywords: every rank
runs :class:`~repro.core.solver.SolverRankProgram` on the points it owns
and only ghost slabs (and balanced reaction inputs) travel; any
decomposition is the serial computation, to the last bit
(docs/PARALLEL.md).
"""

from __future__ import annotations

from repro.core.config import SolverConfig, periodic_boundaries
from repro.core.solver import S3DSolver
from repro.core.state import State


class ParallelPeriodicSolver(S3DSolver):
    """:class:`~repro.core.solver.S3DSolver` over ``decomp`` of an
    all-periodic, uniformly spaced box, built from keywords; the ranks
    start from a zero state (:meth:`set_state` scatters one).

    ``scheme``, ``filter_alpha``, ``filter_interval``,
    ``chemistry_mode``, ``chem_load_balance``, ``parallel_recovery``,
    ``observability`` and ``comm_transport`` (the ``transport`` knob,
    which an explicit ``world`` must match) fold into :attr:`config`;
    ``None`` defers to each knob's ``REPRO_*`` variable and default.
    ``transport`` (the molecular model), ``reacting``, ``telemetry``,
    ``world``, ``chemlb_threshold`` and ``rank_telemetry`` are
    :class:`~repro.core.solver.S3DSolver`'s. A balancer is bitwise
    ``"off"``: in explicit mode the ranks defer their reaction sources
    to it, under Strang their half-steps' reactor inputs, and per-cell
    kinetics and implicit solves do not depend on the batch.
    """

    def __init__(self, mechanism, grid, decomp, world=None, transport=None,
                 reacting=True, scheme="ck45", filter_alpha=0.2,
                 filter_interval=1, telemetry=None, chemistry_mode=None,
                 chem_load_balance=None, chemlb_threshold=1.1,
                 rank_telemetry=False, observability=None,
                 comm_transport=None, parallel_recovery=None):
        config = SolverConfig(
            boundaries=periodic_boundaries(grid.ndim), scheme=scheme,
            filter_interval=int(filter_interval), filter_alpha=filter_alpha,
            observability=observability, chemistry_mode=chemistry_mode,
            chem_load_balance=chem_load_balance, transport=comm_transport,
            parallel_recovery=parallel_recovery)
        super().__init__(State(mechanism, grid), config, transport=transport,
                         reacting=reacting, telemetry=telemetry,
                         decomp=decomp, world=world,
                         chemlb_threshold=chemlb_threshold,
                         rank_telemetry=rank_telemetry)
