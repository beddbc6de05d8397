"""Tests for the simulated-MPI parallel substrate."""

import numpy as np
import pytest

from repro.core import Grid, SolverConfig, S3DSolver, State, ic
from repro.core.config import periodic_boundaries
from repro.core.derivatives import DerivativeOperator
from repro.core.filters import FilterOperator
from repro.parallel import (
    CartesianDecomposition,
    HaloExchanger,
    SimMPI,
    block_range,
)
from repro.parallel.solver import (
    ParallelPeriodicSolver,
    parallel_derivative,
    parallel_filter,
)
from repro.transport import ConstantLewisTransport
from repro.util.constants import P_ATM


class TestSimMPI:
    def test_send_recv(self):
        world = SimMPI(2)
        world.comm(0).Send(np.arange(4.0), dest=1, tag=7)
        out = world.comm(1).Recv(source=0, tag=7)
        np.testing.assert_array_equal(out, np.arange(4.0))

    def test_message_ordering_fifo(self):
        world = SimMPI(2)
        c0 = world.comm(0)
        c0.Send(np.array([1.0]), dest=1, tag=0)
        c0.Send(np.array([2.0]), dest=1, tag=0)
        c1 = world.comm(1)
        assert c1.Recv(source=0, tag=0)[0] == 1.0
        assert c1.Recv(source=0, tag=0)[0] == 2.0

    def test_recv_without_message_raises(self):
        world = SimMPI(2)
        with pytest.raises(RuntimeError, match="no pending message"):
            world.comm(0).Recv(source=1, tag=0)

    def test_send_copies_buffer(self):
        world = SimMPI(2)
        buf = np.zeros(3)
        world.comm(0).Send(buf, dest=1)
        buf[:] = 9.0
        np.testing.assert_array_equal(world.comm(1).Recv(source=0), np.zeros(3))

    def test_probe(self):
        world = SimMPI(2)
        assert not world.comm(1).probe(source=0)
        world.comm(0).Send(np.zeros(1), dest=1)
        assert world.comm(1).probe(source=0)

    def test_log_accounting(self):
        world = SimMPI(3)
        world.comm(0).Send(np.zeros(10), dest=1)
        world.comm(1).Send(np.zeros(5), dest=2)
        assert world.log.count == 2
        assert world.log.total_bytes == 15 * 8
        assert world.log.by_pair()[(0, 1)] == 80

    def test_invalid_rank(self):
        world = SimMPI(2)
        with pytest.raises(ValueError):
            world.comm(5)
        with pytest.raises(ValueError):
            world.comm(0).Send(np.zeros(1), dest=9)

    def test_allreduce(self):
        world = SimMPI(3)
        results = [world.comm(r).allreduce_sum(r + 1) for r in range(3)]
        assert results[:2] == [None, None]
        assert results[2] == 6


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

    def test_is_uniform(self):
        assert CartesianDecomposition((8, 8), (2, 2)).is_uniform()
        assert not CartesianDecomposition((9, 8), (2, 2)).is_uniform()

    def test_invalid_proc_count(self):
        with pytest.raises(ValueError):
            CartesianDecomposition((4,), (8,))


class TestHaloExchange:
    def test_matches_global_slicing_periodic(self):
        """A rank's ghost slabs along an axis are the rows of the global
        periodic array just beyond its block's two faces."""
        d = CartesianDecomposition((16, 12), (2, 2), periodic=(True, True))
        h = HaloExchanger(d, SimMPI(4), width=3)
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
        h = HaloExchanger(d, SimMPI(2), width=2)
        a = np.arange(8.0)
        (lo0, hi0), (lo1, hi1) = h.exchange(d.scatter(a))
        assert lo0 is None and hi1 is None  # nothing beyond a wall
        np.testing.assert_array_equal(hi0, a[4:6])
        np.testing.assert_array_equal(lo1, a[2:4])

    def test_own_neighbour_sends_nothing(self):
        """An undecomposed periodic axis wraps inside the sweep."""
        d = CartesianDecomposition((16, 12), (2, 1), periodic=(True, True))
        world = SimMPI(2)
        h = HaloExchanger(d, world)
        assert h.axes == (0,)
        ghosts = h.exchange(d.scatter(np.zeros((16, 12))), axis=1)
        assert ghosts == [(None, None)] * 2 and world.log.count == 0

    def test_message_size_matches_halo(self):
        d = CartesianDecomposition((16,), (2,), periodic=(True,))
        world = SimMPI(2)
        h = HaloExchanger(d, world, width=4)
        h.exchange(d.scatter(np.zeros(16)))
        sizes = set(world.log.message_sizes())
        assert sizes == {4 * 8}

    def test_world_size_mismatch(self):
        d = CartesianDecomposition((8,), (2,))
        with pytest.raises(ValueError, match="world size"):
            HaloExchanger(d, SimMPI(3))


class TestDistributedOperators:
    def test_parallel_derivative_bitwise(self):
        rng = np.random.default_rng(3)
        f = rng.random((32, 24))
        op = DerivativeOperator(32, 0.1, periodic=True)
        ref = op.apply(f, axis=0)
        d = CartesianDecomposition((32, 24), (4, 2), periodic=(True, True))
        par = parallel_derivative(f, d, SimMPI(8), axis=0, spacing=0.1)
        np.testing.assert_array_equal(par, ref)

    def test_parallel_filter_bitwise(self):
        rng = np.random.default_rng(4)
        f = rng.random((20, 30))
        ref = FilterOperator(30, periodic=True, alpha=0.5).apply(f, axis=1)
        d = CartesianDecomposition((20, 30), (2, 3), periodic=(True, True))
        par = parallel_filter(f, d, SimMPI(6), axis=1, alpha=0.5)
        np.testing.assert_array_equal(par, ref)

    def test_s3d_message_scale(self):
        """A 50^3 block exchanging 4 ghost layers of one variable moves
        ~80 kB per face message — the figure quoted in §2.6."""
        d = CartesianDecomposition((100, 50, 50), (2, 1, 1), periodic=(True, True, True))
        world = SimMPI(2)
        h = HaloExchanger(d, world, width=4)
        h.exchange(d.scatter(np.zeros((100, 50, 50))))
        per_face = [r for r in world.log.records if r.tag in (0, 1)]
        assert per_face[0].nbytes == 4 * 50 * 50 * 8  # 80 kB


#: multi-rank vs serial: every kernel is bitwise, and the run is too
#: whenever each rank's whole-batch Newton temperature solve stops after
#: the serial batch's iteration count — which is not guaranteed, so the
#: contract is round-off (docs/PARALLEL.md); every case here is observed
#: bitwise on the in-process transport
SERIAL_RTOL = 1e-13


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


def _rel(up, ref):
    scale = np.abs(ref).reshape(ref.shape[0], -1).max(axis=1)
    return (np.abs(up - ref).reshape(ref.shape[0], -1).max(axis=1)
            / np.maximum(scale, 1e-300)).max()


@pytest.mark.transport
class TestParallelSolverEquivalence:
    @pytest.mark.parametrize("scheme", ["ck45", "rk4", "rkf45"])
    def test_one_rank_is_the_serial_computation(self, h2_mech, h2_air_stoich,
                                                scheme):
        """A (1, 1) decomposition runs the serial RHS and filter on the
        whole grid with periodic wraps: bitwise, every scheme."""
        grid, u0 = _hot_spot_state(h2_mech, h2_air_stoich, (24, 24))
        ref, up = _serial_and_parallel(h2_mech, grid, u0, (1, 1), scheme, 3)
        assert np.array_equal(up, ref)

    @pytest.mark.parametrize("scheme", ["ck45", "rk4", "rkf45"])
    def test_matches_serial_reacting_viscous(self, h2_mech, h2_air_stoich,
                                             scheme):
        """Every registered ERK scheme: both solvers step through the
        one ``ERKIntegrator`` (the parallel solver used to re-implement
        the 2N loop inline, so ``rk4`` / ``rkf45`` built without
        complaint and died at their first step)."""
        grid, u0 = _hot_spot_state(h2_mech, h2_air_stoich, (24, 24))
        ref, up = _serial_and_parallel(h2_mech, grid, u0, (2, 2), scheme, 3)
        assert _rel(up, ref) <= SERIAL_RTOL

    @pytest.mark.parametrize("shape,procs", [
        ((24, 24), (2, 1)), ((24, 24), (1, 2)),
        ((25, 24), (2, 2)),  # uneven: 13- and 12-point blocks
        ((16, 16, 16), (2, 2, 1)),
    ])
    def test_decompositions_match_serial(self, h2_mech, h2_air_stoich,
                                         shape, procs):
        grid, u0 = _hot_spot_state(h2_mech, h2_air_stoich, shape)
        ref, up = _serial_and_parallel(h2_mech, grid, u0, procs, "ck45",
                                       3 if len(shape) == 2 else 2)
        assert _rel(up, ref) <= SERIAL_RTOL

    def test_a_rank_computes_only_the_points_it_owns(self, h2_mech,
                                                     h2_air_stoich):
        """The count: property and rate arrays of a rank have the shape
        of the block it owns, and one ``ck45`` step of a (2, 1) run of
        a 13-field gradient stack and a 12-variable state is 5 x (4 + 4)
        width-4 RHS messages + 4 width-5 filter messages."""
        from repro.transport import MixtureAveragedTransport

        grid, u0 = _hot_spot_state(h2_mech, h2_air_stoich, (96, 48))
        d = CartesianDecomposition((96, 48), (2, 1), periodic=(True, True))
        world = SimMPI(2)
        par = ParallelPeriodicSolver(
            h2_mech, grid, d, world, reacting=True, scheme="ck45",
            transport=MixtureAveragedTransport(h2_mech))
        par.set_state(u0)
        par.step(2e-8)
        assert (world.log.count, world.log.total_bytes) == (44, 860_160)
        for rank, prog in enumerate(world.programs):
            owned = d.local_shape(rank)
            assert par.halo.extended_shape(rank) == owned
            assert prog.state.u.shape[1:] == owned
            pc = prog.rhs._props_cache
            assert pc.T.shape == pc.props.viscosity.shape == owned
            assert pc.h_i.shape[1:] == pc.props.diffusivities.shape[1:] == owned
            assert prog.rhs.last_heat_release.shape == owned

    def test_naive_engine_is_rejected(self, h2_mech):
        grid = Grid((24, 24), (1e-3, 1e-3), periodic=(True, True))
        d = CartesianDecomposition((24, 24), (2, 1), periodic=(True, True))
        with pytest.raises(ValueError, match="three phases"):
            ParallelPeriodicSolver(h2_mech, grid, d, SimMPI(2),
                                   rhs_engine="naive")

    def test_block_must_hold_a_filter_ghost_zone(self, h2_mech):
        grid = Grid((24, 24), (1e-3, 1e-3), periodic=(True, True))
        d = CartesianDecomposition((24, 24), (6, 1), periodic=(True, True))
        with pytest.raises(ValueError, match="at least 5 points"):
            ParallelPeriodicSolver(h2_mech, grid, d, SimMPI(6))

    def test_packed_2n_update_is_bitwise_the_per_block_loop(self, h2_mech,
                                                            h2_air_stoich):
        """The integrator sees the rank blocks packed end to end; its
        element-wise 2N updates must be bitwise the per-block loop the
        parallel solver used to carry inline (frozen here)."""
        from repro.core.erk import ERKIntegrator

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
                h2_mech, grid, d, SimMPI(2), reacting=True, scheme="ck45",
                transport=ConstantLewisTransport(h2_mech), filter_interval=0)
            par.set_state(state.u)
            return par

        new, old = build(), build()
        sch, dt = ERKIntegrator("ck45").scheme, 2e-8
        for _ in range(2):
            new.step(dt)
            u = [np.array(b, copy=True) for b in old.locals]
            du = [np.zeros_like(b) for b in u]
            for i in range(sch.stages):
                f = old._rhs_all(old.time + sch.c[i] * dt, u)
                for r in range(d.size):
                    du[r] *= sch.a[i]
                    du[r] += dt * f[r]
                    u[r] += sch.b[i] * du[r]
            old.locals, old.time = u, old.time + dt
        for got, want in zip(new.locals, old.locals):
            assert np.array_equal(got, want)

    def test_unknown_scheme_raises_at_construction(self, h2_mech):
        grid = Grid((24, 24), (1e-3, 1e-3), periodic=(True, True))
        d = CartesianDecomposition((24, 24), (2, 1), periodic=(True, True))
        with pytest.raises(ValueError, match="unknown ERK scheme"):
            ParallelPeriodicSolver(h2_mech, grid, d, SimMPI(2), scheme="rk5")

    def test_has_no_dt_of_its_own(self, h2_mech):
        grid = Grid((24, 24), (1e-3, 1e-3), periodic=(True, True))
        d = CartesianDecomposition((24, 24), (2, 1), periodic=(True, True))
        par = ParallelPeriodicSolver(h2_mech, grid, d, SimMPI(2))
        with pytest.raises(ValueError, match="explicit dt"):
            par.step()

    def test_requires_periodic(self, h2_mech):
        grid = Grid((24, 24), (1e-3, 1e-3), periodic=(True, False))
        d = CartesianDecomposition((24, 24), (2, 2), periodic=(True, False))
        with pytest.raises(ValueError, match="periodic"):
            ParallelPeriodicSolver(h2_mech, grid, d, SimMPI(4))
