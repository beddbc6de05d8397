"""Tests for the simulated-MPI parallel substrate."""

import numpy as np
import pytest

from repro.core import Grid, SolverConfig, S3DSolver, State, ic
from repro.core.config import periodic_boundaries
from repro.core.derivatives import HALF_WIDTH, DerivativeOperator
from repro.core.filters import FILTER_HALF_WIDTH, FilterOperator
from repro.parallel import (
    CartesianDecomposition,
    HaloExchanger,
    InProcessTransport,
    block_range,
)
from repro.parallel.solver import ParallelPeriodicSolver
from repro.transport import ConstantLewisTransport
from repro.util.constants import P_ATM


class TestInProcessTransport:
    def test_send_recv(self):
        world = InProcessTransport(2)
        world.comm(0).Send(np.arange(4.0), dest=1, tag=7)
        out = world.comm(1).Recv(source=0, tag=7)
        np.testing.assert_array_equal(out, np.arange(4.0))

    def test_message_ordering_fifo(self):
        world = InProcessTransport(2)
        c0 = world.comm(0)
        c0.Send(np.array([1.0]), dest=1, tag=0)
        c0.Send(np.array([2.0]), dest=1, tag=0)
        c1 = world.comm(1)
        assert c1.Recv(source=0, tag=0)[0] == 1.0
        assert c1.Recv(source=0, tag=0)[0] == 2.0

    def test_recv_without_message_raises(self):
        world = InProcessTransport(2)
        with pytest.raises(RuntimeError, match="no pending message"):
            world.comm(0).Recv(source=1, tag=0)

    def test_send_copies_buffer(self):
        world = InProcessTransport(2)
        buf = np.zeros(3)
        world.comm(0).Send(buf, dest=1)
        buf[:] = 9.0
        np.testing.assert_array_equal(world.comm(1).Recv(source=0), np.zeros(3))

    def test_log_accounting(self):
        world = InProcessTransport(3)
        world.comm(0).Send(np.zeros(10), dest=1)
        world.comm(1).Send(np.zeros(5), dest=2)
        assert world.log.count == 2
        assert world.log.total_bytes == 15 * 8
        assert world.log.records[0].nbytes == 80

    def test_invalid_rank(self):
        world = InProcessTransport(2)
        with pytest.raises(ValueError):
            world.comm(5)
        with pytest.raises(ValueError):
            world.comm(0).Send(np.zeros(1), dest=9)


class TestBlockRange:
    def test_even_split(self):
        assert block_range(12, 3, 0) == (0, 4)
        assert block_range(12, 3, 2) == (8, 12)

    def test_remainder_to_leading(self):
        assert block_range(10, 3, 0) == (0, 4)
        assert block_range(10, 3, 1) == (4, 7)
        assert block_range(10, 3, 2) == (7, 10)

    def test_covers_exactly(self):
        parts = [block_range(17, 5, i) for i in range(5)]
        assert parts[0][0] == 0 and parts[-1][1] == 17
        for a, b in zip(parts, parts[1:]):
            assert a[1] == b[0]

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            block_range(10, 3, 3)


class TestDecomposition:
    def test_rank_coords_roundtrip(self):
        d = CartesianDecomposition((8, 8, 8), (2, 2, 2))
        for rank in range(8):
            assert d.rank_of(d.coords(rank)) == rank

    def test_neighbors_periodic(self):
        d = CartesianDecomposition((8,), (4,), periodic=(True,))
        assert d.neighbor(0, 0, -1) == 3
        assert d.neighbor(3, 0, 1) == 0

    def test_neighbors_wall(self):
        d = CartesianDecomposition((8,), (4,), periodic=(False,))
        assert d.neighbor(0, 0, -1) is None
        assert d.neighbor(3, 0, 1) is None

    def test_scatter_gather_roundtrip(self):
        d = CartesianDecomposition((9, 7), (3, 2))
        rng = np.random.default_rng(0)
        a = rng.random((9, 7))
        np.testing.assert_array_equal(d.gather(d.scatter(a)), a)

    def test_scatter_with_leading_axis(self):
        d = CartesianDecomposition((6, 6), (2, 3))
        a = np.random.default_rng(1).random((4, 6, 6))
        back = d.gather(d.scatter(a, leading_axes=1), leading_axes=1)
        np.testing.assert_array_equal(back, a)

    def test_invalid_proc_count(self):
        with pytest.raises(ValueError):
            CartesianDecomposition((4,), (8,))


class TestHaloExchange:
    def test_matches_global_slicing_periodic(self):
        """A rank's ghost slabs along an axis are the rows of the global
        periodic array just beyond its block's two faces."""
        d = CartesianDecomposition((16, 12), (2, 2), periodic=(True, True))
        h = HaloExchanger(d, InProcessTransport(4), width=3)
        a = np.random.default_rng(2).random((16, 12))
        for axis in (0, 1):
            ghosts = h.exchange(d.scatter(a), axis=axis)
            for rank, (lo, hi) in enumerate(ghosts):
                sl = d.local_slices(rank)
                rows = np.arange(sl[axis].start - 3, sl[axis].stop + 3)
                want = np.take(a, rows, axis=axis, mode="wrap")[
                    tuple(s if ax != axis else slice(None)
                          for ax, s in enumerate(sl))]
                np.testing.assert_array_equal(
                    lo, np.take(want, np.arange(3), axis=axis))
                np.testing.assert_array_equal(
                    hi, np.take(want, np.arange(-3, 0), axis=axis))
            assert h.extended_shape(0) == d.local_shape(0)

    def test_wall_boundaries_no_ghosts(self):
        d = CartesianDecomposition((8,), (2,), periodic=(False,))
        h = HaloExchanger(d, InProcessTransport(2), width=2)
        a = np.arange(8.0)
        (lo0, hi0), (lo1, hi1) = h.exchange(d.scatter(a))
        assert lo0 is None and hi1 is None  # nothing beyond a wall
        np.testing.assert_array_equal(hi0, a[4:6])
        np.testing.assert_array_equal(lo1, a[2:4])

    def test_own_neighbour_sends_nothing(self):
        """An undecomposed periodic axis wraps inside the sweep."""
        d = CartesianDecomposition((16, 12), (2, 1), periodic=(True, True))
        world = InProcessTransport(2)
        h = HaloExchanger(d, world)
        assert h.axes == (0,)
        ghosts = h.exchange(d.scatter(np.zeros((16, 12))), axis=1)
        assert ghosts == [(None, None)] * 2 and world.log.count == 0

    def test_message_size_matches_halo(self):
        d = CartesianDecomposition((16,), (2,), periodic=(True,))
        world = InProcessTransport(2)
        h = HaloExchanger(d, world, width=4)
        h.exchange(d.scatter(np.zeros(16)))
        sizes = {r.nbytes for r in world.log.records}
        assert sizes == {4 * 8}

    def test_world_size_mismatch(self):
        d = CartesianDecomposition((8,), (2,))
        with pytest.raises(ValueError, match="world size"):
            HaloExchanger(d, InProcessTransport(3))


def _parallel_stencil(global_f, decomp, world, axis, width, make_op):
    """The S3D derivative-module pattern: scatter, exchange a
    ``width``-deep ghost zone along ``axis``, sweep each owned block with
    it (``make_op(n)`` builds a block's periodic operator), gather."""
    halo = HaloExchanger(decomp, world, width=width)
    blocks = decomp.scatter(np.asarray(global_f, dtype=float))
    ghosts = halo.exchange(blocks, axis=axis)
    return decomp.gather([
        make_op(block.shape[axis]).apply(
            block, axis=axis, ghosts=None if lo is None else (lo, hi))
        for block, (lo, hi) in zip(blocks, ghosts)
    ])


class TestDistributedOperators:
    def test_parallel_derivative_bitwise(self):
        rng = np.random.default_rng(3)
        f = rng.random((32, 24))
        op = DerivativeOperator(32, 0.1, periodic=True)
        ref = op.apply(f, axis=0)
        d = CartesianDecomposition((32, 24), (4, 2), periodic=(True, True))
        par = _parallel_stencil(f, d, InProcessTransport(8), 0, HALF_WIDTH,
                                lambda n: DerivativeOperator(n, 0.1, periodic=True))
        np.testing.assert_array_equal(par, ref)

    def test_parallel_filter_bitwise(self):
        rng = np.random.default_rng(4)
        f = rng.random((20, 30))
        ref = FilterOperator(30, periodic=True, alpha=0.5).apply(f, axis=1)
        d = CartesianDecomposition((20, 30), (2, 3), periodic=(True, True))
        par = _parallel_stencil(
            f, d, InProcessTransport(6), 1, FILTER_HALF_WIDTH,
            lambda n: FilterOperator(n, periodic=True, alpha=0.5))
        np.testing.assert_array_equal(par, ref)

    def test_s3d_message_scale(self):
        """A 50^3 block exchanging 4 ghost layers of one variable moves
        ~80 kB per face message — the figure quoted in §2.6."""
        d = CartesianDecomposition((100, 50, 50), (2, 1, 1), periodic=(True, True, True))
        world = InProcessTransport(2)
        h = HaloExchanger(d, world, width=4)
        h.exchange(d.scatter(np.zeros((100, 50, 50))))
        per_face = [r for r in world.log.records if r.tag in (0, 1)]
        assert per_face[0].nbytes == 4 * 50 * 50 * 8  # 80 kB


def _hot_spot_state(mech, Y, shape):
    """A reacting hot spot in a sheared periodic box (the shear keeps
    every corner of the domain moving, so no two RK stages of the serial
    run look alike to its property memo)."""
    ndim = len(shape)
    grid = Grid(shape, (2e-3,) * ndim, periodic=(True,) * ndim)
    xs = grid.meshgrid()
    r2 = sum((x - 1e-3) ** 2 for x in xs)
    T = 900.0 + 500.0 * np.exp(-r2 / (2 * (3e-4) ** 2))
    Yf = Y.reshape((-1,) + (1,) * ndim) * np.ones((1,) + shape)
    k = 2 * np.pi / 2e-3
    vel = [(1.0 + a) * (1.0 + 0.5 * np.sin(k * xs[a] + 0.3)
                        * np.cos(k * xs[(a + 1) % ndim]))
           for a in range(ndim)]
    state = State.from_primitive(mech, grid, mech.density(P_ATM, T, Yf),
                                 vel, T, Yf)
    return grid, state.u


def _serial_and_parallel(mech, grid, u0, procs, scheme, steps, dt=2e-8):
    """Final conserved arrays of the serial solver and of a decomposed
    run on the environment's transport, both from a cold Newton cache
    (``set_state`` starts the ranks cold)."""
    ndim = grid.ndim
    tr = ConstantLewisTransport(mech)
    cfg = SolverConfig(boundaries=periodic_boundaries(ndim), dt=dt,
                       filter_interval=1, filter_alpha=0.2, scheme=scheme)
    serial = S3DSolver(State(mech, grid, u0.copy()), cfg, transport=tr,
                       reacting=True)
    serial.run(steps)
    d = CartesianDecomposition(grid.shape, procs, periodic=(True,) * ndim)
    with ParallelPeriodicSolver(mech, grid, d, transport=tr, reacting=True,
                                scheme=scheme, filter_alpha=0.2) as par:
        par.set_state(u0)
        par.run(steps, dt)
        assert (par.time, par.step_count) == (serial.time, steps)
        return serial.state.u, par.gather_state()


@pytest.mark.transport
class TestParallelSolverEquivalence:
    """Multi-rank == serial, bit for bit, for any decomposition: every
    kernel and every sweep is bitwise, and a cell's Newton temperature
    is a pure function of the cell (it used to depend, in the last bit,
    on when the rest of its rank's batch converged)."""

    @pytest.mark.parametrize("scheme", ["ck45"])
    def test_one_rank_is_the_serial_computation(self, h2_mech, h2_air_stoich,
                                                scheme):
        """A (1, 1) decomposition runs the serial RHS and filter on the
        whole grid with periodic wraps: bitwise."""
        grid, u0 = _hot_spot_state(h2_mech, h2_air_stoich, (24, 24))
        ref, up = _serial_and_parallel(h2_mech, grid, u0, (1, 1), scheme, 3)
        assert np.array_equal(up, ref)

    @pytest.mark.parametrize("scheme", ["ck45"])
    def test_matches_serial_reacting_viscous(self, h2_mech, h2_air_stoich,
                                             scheme):
        """Both solvers step through the one ``ERKIntegrator``."""
        grid, u0 = _hot_spot_state(h2_mech, h2_air_stoich, (24, 24))
        ref, up = _serial_and_parallel(h2_mech, grid, u0, (2, 2), scheme, 3)
        assert np.array_equal(up, ref)

    @pytest.mark.parametrize("shape,procs", [
        ((24, 24), (2, 1)), ((24, 24), (1, 2)), ((24, 24), (4, 1)),
        ((25, 24), (2, 2)),  # uneven: 13- and 12-point blocks
        ((16, 16, 16), (2, 2, 1)),
    ])
    def test_decompositions_match_serial(self, h2_mech, h2_air_stoich,
                                         shape, procs):
        grid, u0 = _hot_spot_state(h2_mech, h2_air_stoich, shape)
        ref, up = _serial_and_parallel(h2_mech, grid, u0, procs, "ck45",
                                       3 if len(shape) == 2 else 2)
        assert np.array_equal(up, ref)

    def test_quiescent_far_field_matches_serial(self, h2_mech,
                                                h2_air_stoich):
        """A hot spot in *uniform* flow — the state whose RK stages the
        serial property memo used to confuse (tests/test_rhs_engine.py):
        a rank keeps its block and stage-updates it in place like the
        serial integrator does, and must not reuse a property either."""
        grid = Grid((48, 24), (4e-3, 2e-3), periodic=(True, True))
        xx, yy = grid.meshgrid()
        T = 900.0 + 500.0 * np.exp(
            -((xx - 1.5e-3) ** 2 + (yy - 1e-3) ** 2) / (2 * (3e-4) ** 2))
        Yf = h2_air_stoich[:, None, None] * np.ones((1, 48, 24))
        u0 = State.from_primitive(h2_mech, grid,
                                  h2_mech.density(P_ATM, T, Yf),
                                  [1.0, 0.5], T, Yf).u
        ref, up = _serial_and_parallel(h2_mech, grid, u0, (2, 1), "ck45", 2)
        assert np.array_equal(up, ref)

    def test_golden_scenario_is_its_serial_twin(self):
        """``lifted_jet_parallel`` (2 x 2, ``chem_load_balance="greedy"``
        shipping cells) against one serial solver from the same cold
        start: 2.5e-13 apart while a rank's Newton batch stopped as a
        whole, identical now."""
        from repro.analysis.golden import (
            LIFTED_JET_PARALLEL_DT,
            LIFTED_JET_PARALLEL_STEPS,
            lifted_jet_parallel_solver,
        )

        with lifted_jet_parallel_solver("inprocess") as par:
            u0 = par.gather_state().copy()
            cfg = SolverConfig(boundaries=periodic_boundaries(2),
                               dt=LIFTED_JET_PARALLEL_DT, scheme="ck45",
                               filter_interval=1, filter_alpha=0.25)
            serial = S3DSolver(State(par.mech, par.grid, u0), cfg,
                               transport=par.world._programs[0].rhs.transport,
                               reacting=True)
            par.run(LIFTED_JET_PARALLEL_STEPS, LIFTED_JET_PARALLEL_DT)
            serial.run(LIFTED_JET_PARALLEL_STEPS)
            assert par.chemlb.last_plan.cells_shipped > 0
            assert np.array_equal(par.gather_state(), serial.state.u)

    def test_a_rank_computes_only_the_points_it_owns(self, h2_mech,
                                                     h2_air_stoich):
        """The count: property and rate arrays of a rank have the shape
        of the block it owns, and one ``ck45`` step of a (2, 1) run of
        a 13-field gradient stack and a 12-variable state is 5 x (4 + 4)
        width-4 RHS messages + 4 width-5 filter messages."""
        from repro.transport import MixtureAveragedTransport

        grid, u0 = _hot_spot_state(h2_mech, h2_air_stoich, (96, 48))
        d = CartesianDecomposition((96, 48), (2, 1), periodic=(True, True))
        world = InProcessTransport(2)
        par = ParallelPeriodicSolver(
            h2_mech, grid, d, world, reacting=True, scheme="ck45",
            transport=MixtureAveragedTransport(h2_mech))
        par.set_state(u0)
        par.step(2e-8)
        assert (world.log.count, world.log.total_bytes) == (44, 860_160)
        for rank, prog in enumerate(world._programs):
            owned = d.local_shape(rank)
            assert par.halo.extended_shape(rank) == owned
            assert prog.state.u.shape[1:] == owned
            pc = prog.rhs._props_cache
            assert pc.T.shape == pc.props.viscosity.shape == owned
            assert pc.h_i.shape[1:] == pc.props.diffusivities.shape[1:] == owned
            assert prog.rhs.last_heat_release.shape == owned

    @pytest.mark.parametrize("procs", [(2, 1), (2, 2)])
    @pytest.mark.parametrize("scheme", ["ck45"])
    def test_only_ghost_slabs_cross_the_execution_plane(
            self, h2_mech, h2_air_stoich, scheme, procs):
        """Counts, not timings: one step is ``advance`` plus one
        ``resume`` per suspension — two per RHS evaluation, one per
        decomposed filter axis: 2 x stages + 2 calls on (2, 1) — and the
        only arrays in its payloads and replies are the slabs the
        message plane logs (each crosses twice: out as a post, in as a
        ghost). A block-sized payload fails this."""
        from repro.core.erk import ERKIntegrator

        grid, u0 = _hot_spot_state(h2_mech, h2_air_stoich, (24, 24))
        d = CartesianDecomposition((24, 24), procs, periodic=(True, True))
        world = InProcessTransport(d.size)
        par = ParallelPeriodicSolver(
            h2_mech, grid, d, world, reacting=True, scheme=scheme,
            transport=ConstantLewisTransport(h2_mech))
        par.set_state(u0)
        par.step(2e-8)
        calls, nbytes, call_all = [], [0], world.call_all

        def counted(method, payloads=None):
            replies = call_all(method, payloads)
            calls.append(method)
            nbytes[0] += sum(a.nbytes for per_rank in (payloads, replies)
                             for part in per_rank for a in part or ()
                             if isinstance(a, np.ndarray))
            return replies

        world.call_all = counted
        world.log.clear()
        par.step(2e-8)
        stages = ERKIntegrator(scheme).stages
        assert calls == ["advance"] + ["resume"] * (
            2 * stages + len(par.halo.axes))
        assert nbytes[0] == 2 * world.log.total_bytes
        nvar, nf = 12, 13  # conserved variables; gradient-stack fields
        assert world.log.count == d.size * 2 * len(par.halo.axes) * (
            2 * stages + 1)
        cross = sum(24 // procs[1 - a] for a in par.halo.axes)  # slab rows
        assert world.log.total_bytes == d.size * 2 * cross * 8 * (
            stages * (nf + nvar) * 4 + nvar * 5)

    def test_block_must_hold_a_filter_ghost_zone(self, h2_mech):
        grid = Grid((24, 24), (1e-3, 1e-3), periodic=(True, True))
        d = CartesianDecomposition((24, 24), (6, 1), periodic=(True, True))
        with pytest.raises(ValueError, match="at least 5 points"):
            ParallelPeriodicSolver(h2_mech, grid, d, InProcessTransport(6))

    def test_resident_2n_update_is_the_per_block_loop(
            self, h2_mech, h2_air_stoich):
        """The ranks keep their block and the two RK registers and run
        the serial stage loop suspended at the ghost points; the result
        must be bitwise the driver-side per-block loop over three-phase
        RHS evaluations the parallel solver used to carry (frozen here,
        on the rank programs' own RHS objects)."""
        from repro.core.derivatives import HALF_WIDTH
        from repro.core.erk import ERKIntegrator
        from repro.parallel.halo import edge_slabs

        grid = Grid((24, 24), (2e-3, 2e-3), periodic=(True, True))
        xx, yy = grid.meshgrid()
        T = 900.0 + 500.0 * np.exp(
            -((xx - 1e-3) ** 2 + (yy - 1e-3) ** 2) / (2 * (3e-4) ** 2))
        Yf = h2_air_stoich[:, None, None] * np.ones((1, 24, 24))
        state = State.from_primitive(h2_mech, grid,
                                     h2_mech.density(P_ATM, T, Yf),
                                     [1.0, 0.5], T, Yf)
        d = CartesianDecomposition((24, 24), (2, 1), periodic=(True, True))

        def build():
            par = ParallelPeriodicSolver(
                h2_mech, grid, d, InProcessTransport(2), reacting=True, scheme="ck45",
                transport=ConstantLewisTransport(h2_mech), filter_interval=0)
            par.set_state(state.u)
            return par

        def rhs_all(par, t, blocks):
            progs, axes = par.world._programs, par.halo.axes

            def routed(stacks):
                ghosts = par.halo.route([
                    tuple(slab for a in axes for slab in
                          edge_slabs(stack[a], 1 + a, HALF_WIDTH))
                    for stack in stacks])
                return [{a: g[2 * i:2 * i + 2] for i, a in enumerate(axes)}
                        for g in ghosts]

            for prog in progs:
                prog.state.mark_modified()
            gstacks = [prog.rhs.begin(t, u) for prog, u in zip(progs, blocks)]
            ghosts = routed([dict.fromkeys(axes, g) for g in gstacks])
            ghosts = routed([prog.rhs.fluxes(g)
                             for prog, g in zip(progs, ghosts)])
            return [prog.rhs.finish(g) for prog, g in zip(progs, ghosts)]

        new, old = build(), build()
        sch, dt = ERKIntegrator(), 2e-8
        u = [np.array(b, copy=True) for b in old.locals]
        t = 0.0
        for _ in range(2):
            new.step(dt)
            du = [np.zeros_like(b) for b in u]
            for i in range(sch.stages):
                f = rhs_all(old, t + sch.c[i] * dt, u)
                for r in range(d.size):
                    du[r] *= sch.a[i]
                    du[r] += dt * f[r]
                    u[r] += sch.b[i] * du[r]
            t += dt
        for got, want in zip(new.locals, u):
            assert np.array_equal(got, want)

    def test_unknown_scheme_raises_at_construction(self, h2_mech):
        grid = Grid((24, 24), (1e-3, 1e-3), periodic=(True, True))
        d = CartesianDecomposition((24, 24), (2, 1), periodic=(True, True))
        with pytest.raises(ValueError, match="unknown ERK scheme"):
            ParallelPeriodicSolver(h2_mech, grid, d, InProcessTransport(2), scheme="rk5")

    def test_has_no_dt_of_its_own(self, h2_mech):
        grid = Grid((24, 24), (1e-3, 1e-3), periodic=(True, True))
        d = CartesianDecomposition((24, 24), (2, 1), periodic=(True, True))
        par = ParallelPeriodicSolver(h2_mech, grid, d, InProcessTransport(2))
        with pytest.raises(ValueError, match="explicit dt"):
            par.step()

    def test_requires_periodic(self, h2_mech):
        grid = Grid((24, 24), (1e-3, 1e-3), periodic=(True, False))
        d = CartesianDecomposition((24, 24), (2, 2), periodic=(True, False))
        with pytest.raises(ValueError, match="periodic"):
            ParallelPeriodicSolver(h2_mech, grid, d, InProcessTransport(4))


# ---------------------------------------------------------------------------
# the rank program on both transports
# ---------------------------------------------------------------------------
def _front_state(mech, n=24):
    """A hot, radical-seeded front in the low-x quarter of a periodic
    box at rest plus a shear: the chemistry is skewed towards the ranks
    that own the front, so a balancer ships cells."""
    grid = Grid((n, n), (0.01, 0.01), periodic=(True, True))
    xx, yy = grid.meshgrid()
    front = np.exp(-(((xx / 0.01 - 0.25) / 0.08) ** 2))
    T = 400.0 + 1400.0 * front
    Y = np.zeros((mech.n_species, n, n))
    Y[mech.index("H2")], Y[mech.index("O2")] = 0.028, 0.226
    Y[mech.index("H")] = 0.001 * front
    Y[mech.index("N2")] = 1.0 - Y.sum(axis=0)
    k = 2 * np.pi / 0.01
    vel = [1.0 + 0.5 * np.sin(k * yy + 0.3), 0.5 * np.cos(k * xx)]
    return grid, State.from_primitive(
        mech, grid, mech.density(P_ATM, T, Y), vel, T, Y).u


def _front_run(mech, procs, comm_transport, steps=2, **kw):
    """``(final u, cells shipped)`` of the front on ``procs`` ranks."""
    grid, u0 = _front_state(mech)
    d = CartesianDecomposition(grid.shape, procs, periodic=(True, True))
    with ParallelPeriodicSolver(
            mech, grid, d, transport=ConstantLewisTransport(mech),
            reacting=True, scheme="ck45", comm_transport=comm_transport,
            **kw) as par:
        par.set_state(u0)
        par.run(steps, 1e-8)
        shipped = (par.chemlb.last_plan.cells_shipped
                   if par.chemlb is not None else 0)
        return par.gather_state(), shipped


def _counted(world) -> list:
    """The names of the execution-plane calls ``world`` makes from now
    on (a wrapper around its ``call_all``)."""
    calls, call_all = [], world.call_all

    def counted(method, payloads=None):
        calls.append(method)
        return call_all(method, payloads)

    world.call_all = counted
    return calls


@pytest.mark.transport
@pytest.mark.slow
class TestRankProgramOnBothTransports:
    """A worker process runs the rank program the in-process reference
    runs, remainders and all: every mode, bit for bit."""

    @pytest.mark.parametrize("procs", [(2, 1), (1, 2), (2, 2)])
    def test_multiprocessing_is_bitwise_inprocess(self, h2_mech, procs):
        ref, _ = _front_run(h2_mech, procs, "inprocess")
        got, _ = _front_run(h2_mech, procs, "multiprocessing")
        assert np.array_equal(got, ref)

    def test_load_balanced_is_bitwise_off(self, h2_mech):
        """Deferred reaction sources: the rank posts ``(rho, T, Y)`` and
        is resumed with the balanced ``wdot``; under Strang it posts its
        half-steps' reactor inputs and is resumed with the advanced
        composition."""
        for mode in ("explicit", "strang"):
            ref, _ = _front_run(h2_mech, (2, 1), "inprocess",
                                chemistry_mode=mode)
            for name in ("inprocess", "multiprocessing"):
                got, shipped = _front_run(h2_mech, (2, 1), name,
                                          chemistry_mode=mode,
                                          chem_load_balance="greedy")
                assert shipped > 0
                assert np.array_equal(got, ref), (mode, name)

    def test_strang_runs_on_the_ranks(self, h2_mech, h2_air_stoich):
        """Strang mode: every rank advances its own cells' reactors
        around its ERK stages, in its own step, and a worker process
        does so bit for bit as the in-process reference. Decomposed ==
        serial is tests/test_implicit.py's."""
        grid, u0 = _hot_spot_state(h2_mech, h2_air_stoich, (16, 16))
        d = CartesianDecomposition((16, 16), (2, 1), periodic=(True, True))
        out = []
        for name in ("inprocess", "multiprocessing"):
            with ParallelPeriodicSolver(
                    h2_mech, grid, d, reacting=True, scheme="ck45",
                    transport=ConstantLewisTransport(h2_mech),
                    chemistry_mode="strang", comm_transport=name) as par:
                par.set_state(u0)
                par.run(2, 1e-7)
                out.append(par.gather_state())
        assert np.array_equal(*out)
        assert not np.array_equal(out[0], u0)

    @pytest.mark.parametrize("mode", ["explicit", "strang"])
    @pytest.mark.parametrize("name", ["inprocess", "multiprocessing"])
    def test_a_step_on_a_world_of_one_is_one_call(self, h2_mech,
                                                  h2_air_stoich, name, mode):
        """A world of one never posts: a whole step — Strang half-steps,
        ERK stages, filter pass — is one ``advance``, for the serial
        solver's in-process default and for a (1, 1) decomposition on
        either transport, and the two are the same bits."""
        grid, u0 = _hot_spot_state(h2_mech, h2_air_stoich, (16, 16))
        tr = ConstantLewisTransport(h2_mech)
        cfg = SolverConfig(boundaries=periodic_boundaries(2), dt=1e-8,
                           chemistry_mode=mode)
        serial = S3DSolver(State(h2_mech, grid, u0.copy()), cfg,
                           transport=tr)
        d = CartesianDecomposition((16, 16), (1, 1), periodic=(True, True))
        with ParallelPeriodicSolver(h2_mech, grid, d, transport=tr,
                                    chemistry_mode=mode,
                                    comm_transport=name) as par:
            par.set_state(u0)
            for solver in (serial, par):
                calls = _counted(solver.world)
                solver.step(1e-8)
                assert calls == ["advance"]
            assert np.array_equal(par.gather_state(), serial.state.u)

    @pytest.mark.parametrize("name", ["inprocess", "multiprocessing"])
    def test_a_strang_step_pulls_and_pushes_nothing(self, h2_mech,
                                                    h2_air_stoich, name):
        """The Strang half-steps are phases of the rank step: a (2, 1)
        step with chemlb off makes the explicit step's calls — no
        ``snapshot`` or ``install`` (four per step when the driver ran
        the reactors) — and on multiprocessing the driver's own ledger
        holds no implicit-chemistry time."""
        from repro.core.erk import ERKIntegrator
        from repro.telemetry import Telemetry

        grid, u0 = _hot_spot_state(h2_mech, h2_air_stoich, (16, 16))
        d = CartesianDecomposition((16, 16), (2, 1), periodic=(True, True))
        tel = Telemetry()
        with ParallelPeriodicSolver(
                h2_mech, grid, d, transport=ConstantLewisTransport(h2_mech),
                chemistry_mode="strang", chem_load_balance="off",
                comm_transport=name, telemetry=tel) as par:
            par.set_state(u0)
            calls = _counted(par.world)
            par.step(1e-7)
            assert calls == ["advance"] + ["resume"] * (
                2 * ERKIntegrator().stages + len(par.halo.axes))
            if name == "multiprocessing":
                assert "CHEMISTRY_IMPLICIT" not in tel.tracer.stats

    @pytest.mark.parametrize("name", ["inprocess", "multiprocessing"])
    def test_locals_are_a_coherent_snapshot(self, h2_mech, name):
        """``set_state`` -> steps -> ``locals`` -> ``install_shards`` ->
        steps: a pull sees what the ranks hold, survives their moving
        on, and pushed back (with the Newton caches) replays the same
        bits."""
        grid, u0 = _front_state(h2_mech)
        d = CartesianDecomposition(grid.shape, (2, 1), periodic=(True, True))
        with ParallelPeriodicSolver(
                h2_mech, grid, d, transport=ConstantLewisTransport(h2_mech),
                reacting=True, scheme="ck45", comm_transport=name) as par:
            par.set_state(u0)
            assert np.array_equal(par.gather_state(), u0)
            par.run(2, 1e-8)
            blocks, caches = par.locals, par.caches
            assert par.locals[0] is blocks[0]  # no second pull
            held = [b.copy() for b in blocks]
            par.run(2, 1e-8)
            live = par.gather_state()
            assert all(np.array_equal(b, h) for b, h in zip(blocks, held))
            assert not np.array_equal(par.locals[0], held[0])
            par.install_shards(2, 2e-8, blocks, caches)
            assert (par.step_count, par.time) == (2, 2e-8)
            assert all(np.array_equal(b, h)
                       for b, h in zip(par.locals, held))
            par.run(2, 1e-8)
            assert np.array_equal(par.gather_state(), live)
