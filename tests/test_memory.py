"""What the explicit step keeps resident, in units of the conserved stack.

The paper's §4 argument is that the diffusive-flux / transport loops are
memory-bound and that not materialising intermediates is the
optimisation; these tests hold the two places that used to materialise
(pair arrays in the transport evaluator, transposed stack copies in the
stencil operators) to sizes that scale with the *state*, not with
``Ns^2`` or with the number of stack shapes seen.
"""

import tracemalloc

import numpy as np
import pytest

import repro.core.stencil as stencil
import repro.chemistry.thermo as thermo
from repro.chemistry import h2_li2004
from repro.core.config import SolverConfig, periodic_boundaries
from repro.core.grid import Grid
from repro.core.solver import S3DSolver
from repro.core.state import State
from repro.telemetry import Telemetry
from repro.transport import MixtureAveragedTransport
from repro.util.constants import P_ATM

N = 24  # 13 824 points: two tiles of every pointwise kernel


@pytest.fixture(scope="module")
def box():
    """A 24^3 periodic H2/air mixing layer with mixture-averaged
    transport, stepped twice (arena and operator scratch warm)."""
    mech = h2_li2004()
    grid = Grid((N,) * 3, (2.0e-3,) * 3, periodic=(True,) * 3)
    x, y, z = (2.0 * np.pi * c / 2.0e-3 for c in grid.meshgrid())
    stripe = 0.5 * (1.0 + np.sin(x) * np.cos(y))
    fuel = mech.mass_fractions_from({"H2": 0.05, "N2": 0.95})
    air = mech.mass_fractions_from({"O2": 0.233, "N2": 0.767})
    Y = fuel[:, None, None, None] * stripe + air[:, None, None, None] * (1.0 - stripe)
    T = 700.0 + 500.0 * stripe * np.cos(z) ** 2
    vel = [4.0 * np.sin(y), 4.0 * np.sin(z), 4.0 * np.sin(x)]
    state = State.from_primitive(mech, grid, mech.density(P_ATM, T, Y), vel, T, Y)
    cfg = SolverConfig(boundaries=periodic_boundaries(3), cfl=0.8,
                       filter_interval=1, filter_alpha=0.25, scheme="ck45")
    tel = Telemetry()
    solver = S3DSolver(state, cfg, transport=MixtureAveragedTransport(mech),
                       reacting=True, telemetry=tel)
    for _ in range(2):
        solver.step()
    return solver, tel


def _unique_nbytes(operators):
    flats = {}
    for op in operators:
        flats.update({id(buf): buf.nbytes for buf in op._scratch._flat.values()})
    return sum(flats.values())


class TestResidentMemoryOfTheExplicitStep:
    def test_no_arena_slot_is_pair_sized(self, box):
        solver, _ = box
        st = solver.state
        ns, ndim = st.mech.n_species, st.ndim
        field = st.grid.n_points * 8
        slots = dict(solver.rhs.workspace._arrays)
        assert (N**3) > thermo.TILE_CELLS  # the kernels really tile here
        tile = slots.pop("tr.tile")
        # the tile is bounded in bytes, whatever the grid: two even tiles
        assert tile.shape == (10 * ns + 3, N**3 // 2)
        assert tile.shape[1] <= thermo.TILE_CELLS
        # everything else: at most the gradient stack of all directions,
        # (nvar + 1) fields x ndim, and in particular smaller than an
        # (Ns, Ns)+S matrix (81 fields) or its triangle (45)
        for name, arr in slots.items():
            assert arr.nbytes <= (st.nvar + 1) * ndim * field, name
            assert arr.nbytes < ns * (ns + 1) // 2 * field, name
            assert arr.shape[:2] != (ns, ns), name

    def test_arena_and_operator_scratch_scale_with_the_state(self, box):
        solver, _ = box
        u = solver.state.u.nbytes
        ws = solver.rhs.workspace
        tile = ws._arrays["tr.tile"].nbytes
        # measured 13.9 x the conserved stack + the tile (parent commit:
        # 42 x, 31 of them transport pair storage)
        assert ws.nbytes <= 16 * u + tile
        # both operator families share one scratch each: a ghost pad, an
        # accumulator and a term temporary of one field group (parent
        # commit: 30 x the conserved stack, per-axis transposed copies)
        scratch = _unique_nbytes(list(solver.rhs.ops) + list(solver.filters))
        assert scratch <= 2 * u
        assert scratch <= 8 * max(stencil.GROUP_BYTES, N**3 * 8)

    def test_warm_step_forms_no_field_sized_transient(self, box):
        """The warm reacting step's transient peak, in conserved stacks.

        Measured 6.44 (11.48 before the kinetics, the stable-dt
        reductions and the transport cp were tiled: ``(Nr,) + S`` and
        ``(Ns,) + S`` transients and cp tables); one ``(Ns,) + S`` field
        is 0.69 of a stack, so the bound's 5 % headroom lets none of
        them back unnoticed."""
        solver, _ = box
        tracemalloc.start()
        try:
            solver.step()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 6.75 * solver.state.u.nbytes

    def test_warm_step_with_a_tail_tile_allocates_nothing(self, box):
        solver, tel = box
        allocations = tel.counter("workspace.allocations")
        before = allocations.value
        ws_bytes = solver.rhs.workspace.total_bytes_allocated
        scratch = _unique_nbytes(list(solver.rhs.ops) + list(solver.filters))
        solver.step()
        assert allocations.value == before
        assert solver.rhs.workspace.total_bytes_allocated == ws_bytes
        assert tel.gauge("rhs.bytes_allocated").value == 0.0
        assert _unique_nbytes(list(solver.rhs.ops) + list(solver.filters)) == scratch
