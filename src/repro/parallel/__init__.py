"""Parallel substrate: simulated MPI, domain decomposition, halo exchange.

The paper's S3D parallelizes with a 3D domain decomposition and MPI,
communicating only with nearest neighbours via non-blocking ghost-zone
exchange (§2.6); messages for a typical problem are ~80 kB. Jaguar-scale
hardware is out of reach here, so this package provides an in-process
simulated MPI that preserves the *communication structure* — ranks,
cartesian topology, point-to-point sends with byte accounting —
which the performance model (§4) and the parallel I/O
layer (§5) observe, plus a rank-parallel solver in which every rank
runs the serial kernels on the points it owns and exchanges
stencil-width ghost slabs (a one-rank run is the serial run, bit for
bit), and a chemistry
dynamic load balancer (:mod:`repro.parallel.chemlb`) that ships
reaction-zone cell batches from over-threshold ranks to underloaded
ones without changing a single bit of the answer.

The communication backend is pluggable (:mod:`repro.parallel.comm`):
the in-process simulated MPI is the default bit-exact reference and a
shared-memory multiprocessing backend runs ranks on separate cores —
both behind one :class:`~repro.parallel.comm.Transport` contract,
selected via ``REPRO_TRANSPORT`` / ``SolverConfig.transport``.
"""

from repro.parallel.chemlb import (
    CellCostModel,
    ChemistryLoadBalancer,
    POLICIES as CHEMLB_POLICIES,
    plan_assignment,
)
from repro.parallel.comm import (
    TRANSPORTS,
    InProcessTransport,
    MessageLog,
    Transport,
    TransportUnavailableError,
    create_transport,
    transport_unavailable_reason,
)
from repro.parallel.decomp import CartesianDecomposition, block_range
from repro.parallel.halo import HaloExchanger

__all__ = [
    "MessageLog",
    "Transport",
    "InProcessTransport",
    "TransportUnavailableError",
    "TRANSPORTS",
    "create_transport",
    "transport_unavailable_reason",
    "CartesianDecomposition",
    "block_range",
    "HaloExchanger",
    "ChemistryLoadBalancer",
    "CellCostModel",
    "CHEMLB_POLICIES",
    "plan_assignment",
]
