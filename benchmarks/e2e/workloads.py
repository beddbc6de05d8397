"""The five benchmark workloads: the paper's science configurations.

Each workload builds a *case*: a live solver plus the few operations the
benchmark needs from outside the program — reset to the seed's initial
state (bit-exact, through the program's own restart format), run a block
through the public driver, run the same steps in a benchmark-owned loop
that can be traced, and check a checkpoint restore-and-replay.

The seed feeds ``synthetic_velocity_field(seed=)`` and the hot-spot
position only; the program receives generated arrays.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro import scenarios
from repro.analysis import golden
from repro.chemistry import ch4_twostep, h2_li2004
from repro.core import Grid, S3DSolver, SolverConfig, State
from repro.core.config import periodic_boundaries
from repro.core.filters import filter_operators
from repro.core.rhs import CompressibleRHS
from repro.io.filesystem import SimFileSystem, lustre
from repro.io.restart import load_solver_state, save_solver_state
from repro.parallel.decomp import CartesianDecomposition
from repro.parallel.solver import ParallelPeriodicSolver
from repro.resilience.checkpoint import CheckpointRing
from repro.resilience.distributed import DistributedCheckpointRing
from repro.telemetry import NULL_TELEMETRY
from repro.transport import MixtureAveragedTransport
from repro.turbulence import synthetic_velocity_field
from repro.util.constants import P_ATM

#: §9 min/max monitor cadence inside every block
MONITOR_INTERVAL = 10

#: kernel spans every workload's RHS emits (all five are viscous)
RHS_SPANS = ("THERMOPROPS", "DERIVATIVES", "INTEGRATE",
             "COMPUTESPECIESDIFFFLUX", "COMPUTEHEATFLUX", "FILTER")


@dataclass(frozen=True)
class Size:
    """One block: ``warmup`` untimed steps then ``steps`` timed steps."""

    grid: tuple
    warmup: int
    steps: int
    checkpoint_interval: int = 0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    full: Size
    smoke: Size
    build: object
    #: relative tolerance of the committed seed-0 reference
    reference_rtol: float
    species: tuple
    #: program spans this workload must emit (else reported *missing*)
    expected_spans: tuple
    ranks: int = 1
    periodic: bool = True
    #: allowed relative difference of a checkpoint restore-and-replay
    #: (0 = bitwise, the serial contract; the multiprocessing transport
    #: promises round-off, docs/RESILIENCE.md)
    replay_rtol: float = 0.0

    def size(self, smoke: bool) -> Size:
        return self.smoke if smoke else self.full


# ----------------------------------------------------------------------
# cases
# ----------------------------------------------------------------------
class Case:
    """A live solver under benchmark control; subclasses say how the
    serial and the rank-parallel solver are reset, driven and read."""

    #: checkpoint ring class of the workload's supervisor
    ring_type = None

    def __init__(self, solver, size: Size, mech, grid, ranks: int):
        self.solver = solver
        self.size = size
        self.mech = mech
        self.grid = grid
        self.ranks = ranks
        self.telemetry = solver.telemetry
        self.ring = None
        self.fs = None
        #: False once a supervisor had to recover
        self.clean = True

    def _adopt(self, report) -> None:
        self.ring = report.ring
        self.clean = self.clean and report.clean

    def step_loop(self, n: int, rec) -> list:
        """The same ``n`` steps as :meth:`run_block`, call by call, each
        driver-level call inside a span of ``rec``; returns step times."""
        s = self.solver
        interval = self.size.checkpoint_interval
        if interval:
            self.fs = SimFileSystem(lustre())
            self.ring = self.ring_type(self.fs, telemetry=self.telemetry)
            with rec.span("checkpoint_save"):
                self.ring.save(s)
        target = s.step_count + n
        times = []
        for _ in range(n):
            t0 = time.perf_counter()
            self._step(rec)
            if interval and (s.step_count % interval == 0
                             or s.step_count == target):
                with rec.span("checkpoint_save"):
                    self.ring.save(s)
            times.append(time.perf_counter() - t0)
        return times

    @property
    def sim_time(self) -> float:
        return float(self.solver.time)

    def checkpoint_save(self) -> None:
        self.ring.save(self.solver)

    def close(self) -> None:
        pass


class SerialCase(Case):
    """A serial :class:`S3DSolver`."""

    ring_type = CheckpointRing

    def __init__(self, solver, size: Size):
        super().__init__(solver, size, solver.state.mech, solver.state.grid,
                         ranks=1)
        self._fs0 = SimFileSystem(lustre())

    # -- bit-exact reset through the program's restart format -----------
    def save_initial(self) -> None:
        save_solver_state(self._fs0, self.solver, "initial.ckpt",
                          telemetry=NULL_TELEMETRY)

    def reset(self) -> None:
        load_solver_state(self._fs0, self.solver, "initial.ckpt")

    # -- advancing -------------------------------------------------------
    def advance(self, n: int) -> None:
        """``n`` plain steps (warm-up, replay): no monitors, no I/O."""
        self.solver.run(n)

    def run_block(self, n: int) -> None:
        """``n`` steps through the program's public driver."""
        interval = self.size.checkpoint_interval
        if not interval:
            self.solver.run(n, monitor_interval=MONITOR_INTERVAL)
            return
        self.fs = SimFileSystem(lustre())
        self._adopt(self.solver.run_resilient(
            self.fs, n, checkpoint_interval=interval,
            monitor_interval=MONITOR_INTERVAL))

    def _step(self, rec) -> None:
        s = self.solver
        with rec.span("compute_dt"):
            dt = s.compute_dt()
        with rec.span("step"):
            s.step(dt)
        if s.step_count % MONITOR_INTERVAL == 0:
            with rec.span("record_monitor"):
                s.record_monitor()

    # -- observation -----------------------------------------------------
    def global_u(self) -> np.ndarray:
        return self.solver.state.u.copy()

    def checkpoint_restore(self) -> None:
        self.ring.restore_state(self.solver)

    def checkpoint_bytes(self) -> int:
        _, path = self.ring.entries()[-1]
        return self.fs.file_size(path)

    def probe_objects(self) -> dict:
        s = self.solver
        return {"state": s.state, "rhs": s.rhs, "filters": s.filters,
                "transport": s.rhs.transport, "scheme": s.config.scheme}


class ParallelCase(Case):
    """A :class:`ParallelPeriodicSolver` (fixed ``dt``, no monitor)."""

    ring_type = DistributedCheckpointRing

    def __init__(self, solver, size: Size, dt: float, transport,
                 filter_alpha: float):
        super().__init__(solver, size, solver.mech, solver.grid,
                         ranks=solver.decomp.size)
        self.dt = dt
        self.transport = transport
        self.filter_alpha = filter_alpha
        self._ring0 = DistributedCheckpointRing(
            SimFileSystem(lustre()), prefix="initial", keep=1,
            telemetry=NULL_TELEMETRY)

    def save_initial(self) -> None:
        self._ring0.save(self.solver)

    def reset(self) -> None:
        self._ring0.restore(self.solver)

    def advance(self, n: int) -> None:
        self.solver.run(n, self.dt)

    def run_block(self, n: int) -> None:
        self.fs = SimFileSystem(lustre())
        self._adopt(self.solver.run_resilient(
            self.fs, n, self.dt,
            checkpoint_interval=self.size.checkpoint_interval))

    def _step(self, rec) -> None:
        with rec.span("step"):
            self.solver.step(self.dt)

    def global_u(self) -> np.ndarray:
        return self.solver.gather_state()

    def checkpoint_restore(self) -> None:
        self.ring.restore(self.solver)

    def checkpoint_bytes(self) -> int:
        step, manifest, n_ranks = self.ring.entries()[-1]
        paths = [manifest] + [self.ring.shard_path(step, r)
                              for r in range(n_ranks)]
        return sum(self.fs.file_size(p) for p in paths)

    def probe_objects(self) -> dict:
        """Serial kernels on the gathered global state: the rank
        programs' own objects live in the worker processes."""
        state = State(self.mech, self.grid, self.global_u())
        rhs = CompressibleRHS(
            state, transport=self.transport,
            boundaries=periodic_boundaries(self.grid.ndim), reacting=True,
            telemetry=NULL_TELEMETRY)
        filters = filter_operators(self.grid, alpha=self.filter_alpha,
                                   telemetry=NULL_TELEMETRY)
        return {"state": state, "rhs": rhs, "filters": filters,
                "transport": self.transport, "scheme": "ck45"}

    def close(self) -> None:
        self.solver.close()


# ----------------------------------------------------------------------
# builders
# ----------------------------------------------------------------------
def _rebuild(solver, telemetry) -> S3DSolver:
    """The scenario's solver again, with ``telemetry=`` passed in (the
    scenario builders do not take one)."""
    cfg = solver.config
    if cfg.chemistry_mode == "strang":
        cfg.chemistry_method = "rosw2"
    return S3DSolver(solver.state, cfg, transport=solver.rhs.transport,
                     reacting=True, telemetry=telemetry)


def build_jet2d_h2_nscbc(size, seed, telemetry):
    nx, ny = size.grid
    solver, _ = scenarios.lifted_jet(nx, ny, seed=seed)
    return SerialCase(_rebuild(solver, telemetry), size)


def build_bunsen2d_ch4_periodic(size, seed, telemetry):
    t_b, y_b = golden.burned_methane_state(ch4_twostep())
    solver, _ = scenarios.premixed_flame_box(
        u_rms_over_sl=3.0, sl=1.5, delta_l=5.0e-4, t_burned=t_b,
        y_burned=y_b, n=size.grid[0], seed=seed)
    return SerialCase(_rebuild(solver, telemetry), size)


def build_jet2d_h2_stiff_strang(size, seed, telemetry):
    # fluct=0: the stiff case is laminar, so the seed changes nothing
    nx, ny = size.grid
    solver, _ = scenarios.lifted_jet(nx, ny, fluct=0.0, seed=seed,
                                     p=100.0 * P_ATM,
                                     chemistry_mode="strang")
    return SerialCase(_rebuild(solver, telemetry), size)


def h2_stripe_state(mech, grid, seed, u_rms, hot_spot=None) -> State:
    """Periodic H2 fuel stripe (65/35 H2/N2, 400 K) in 1300 K air with
    tanh shear layers and seeded synthetic turbulence; ``hot_spot`` adds
    an igniting +500 K Gaussian at ``(x, y)``."""
    y_fuel, y_air = scenarios.fuel_and_coflow(mech)
    coords = grid.meshgrid()
    ly = grid.lengths[1]
    yy = coords[1]
    w = 0.075 * ly
    stripe = 0.5 * (np.tanh((yy - 0.3 * ly) / w)
                    - np.tanh((yy - 0.7 * ly) / w))
    lead = (-1,) + (1,) * grid.ndim
    Y = (y_fuel.reshape(lead) * stripe[None]
         + y_air.reshape(lead) * (1.0 - stripe[None]))
    T = 400.0 * stripe + 1300.0 * (1.0 - stripe)
    if hot_spot is not None:
        r2 = (coords[0] - hot_spot[0]) ** 2 + (yy - hot_spot[1]) ** 2
        T = T + 500.0 * np.exp(-r2 / (2.0 * (0.1 * ly) ** 2))
    vel = synthetic_velocity_field(grid.shape, grid.lengths, u_rms=u_rms,
                                   length_scale=0.25 * ly, seed=seed)
    vel[0] = vel[0] + 60.0 * stripe + 4.0 * (1.0 - stripe)
    rho = mech.density(P_ATM, T, Y)
    return State.from_primitive(mech, grid, rho, vel, T, Y)


def build_box3d_h2_mixavg(size, seed, telemetry):
    mech = h2_li2004()
    grid = Grid(size.grid, (2.0e-3,) * 3, periodic=(True,) * 3)
    state = h2_stripe_state(mech, grid, seed, u_rms=6.0)
    cfg = SolverConfig(boundaries=periodic_boundaries(3), cfl=0.8,
                       filter_interval=1, filter_alpha=0.25, scheme="ck45")
    solver = S3DSolver(state, cfg, transport=MixtureAveragedTransport(mech),
                       reacting=True, telemetry=telemetry)
    return SerialCase(solver, size)


#: fixed step of the rank-parallel workload [s]
PAR_DT = 2.0e-8
PAR_FILTER_ALPHA = 0.25
#: imbalance above which the load-balanced block ships cells: the hot
#: spot skews the two ranks by ~4 %, under the solver's default of 1.1
CHEMLB_THRESHOLD = 1.02


def build_box2d_h2_par2(size, seed, telemetry, proc_shape=(2, 1),
                        comm_transport="multiprocessing",
                        chem_load_balance="off", observability="off",
                        rank_telemetry=False):
    """``proc_shape=(1, 1), comm_transport="inprocess"`` builds the
    1-rank base of the same grid."""
    mech = h2_li2004()
    nx, ny = size.grid
    grid = Grid((nx, ny), (4.0e-3, 2.0e-3), periodic=(True, True))
    rng = np.random.default_rng(seed)
    # off-centre, inside rank 0's half of the lower shear layer
    spot = ((0.15 + 0.2 * rng.random()) * grid.lengths[0],
            0.3 * grid.lengths[1])
    state = h2_stripe_state(mech, grid, seed, u_rms=3.0, hot_spot=spot)
    decomp = CartesianDecomposition((nx, ny), proc_shape,
                                    periodic=(True, True))
    transport = MixtureAveragedTransport(mech)
    solver = ParallelPeriodicSolver(
        mech, grid, decomp, transport=transport, reacting=True,
        scheme="ck45", filter_alpha=PAR_FILTER_ALPHA, telemetry=telemetry,
        comm_transport=comm_transport, parallel_recovery="respawn",
        chemistry_mode="explicit", chem_load_balance=chem_load_balance,
        chemlb_threshold=CHEMLB_THRESHOLD, observability=observability,
        rank_telemetry=rank_telemetry)
    solver.set_state(state.u)
    return ParallelCase(solver, size, PAR_DT, transport, PAR_FILTER_ALPHA)


_H2 = ("H2", "O2", "OH", "HO2")

WORKLOADS = {w.name: w for w in (
    Workload(
        name="jet2d_h2_nscbc",
        why="The paper's section 6 lifted H2 jet: explicit kinetics and "
            "thermo dominate, and it alone has NSCBC boundaries and a "
            "serial checkpoint ring.",
        full=Size((72, 48), warmup=3, steps=20, checkpoint_interval=10),
        smoke=Size((36, 24), warmup=1, steps=4, checkpoint_interval=2),
        build=build_jet2d_h2_nscbc, reference_rtol=1e-9, species=_H2,
        expected_spans=RHS_SPANS + ("REACTION_RATES",), periodic=False),
    Workload(
        name="bunsen2d_ch4_periodic",
        why="The paper's section 7 premixed CH4 box: kinetics is small, "
            "derivative sweeps and thermo dominate, so it is the bypass "
            "workload for any kinetics change.",
        full=Size((96, 96), warmup=3, steps=20),
        smoke=Size((32, 32), warmup=1, steps=4),
        build=build_bunsen2d_ch4_periodic, reference_rtol=1e-9,
        species=("CH4", "O2", "CO", "CO2"),
        expected_spans=RHS_SPANS + ("REACTION_RATES",)),
    Workload(
        name="box3d_h2_mixavg",
        why="The paper's Fig 1 unit, a 3-D block with mixture-averaged "
            "transport: properties and thermo dominate, and it alone has "
            "strided z-axis sweeps.",
        full=Size((32, 32, 32), warmup=0, steps=2),
        smoke=Size((12, 12, 12), warmup=0, steps=2),
        build=build_box3d_h2_mixavg, reference_rtol=1e-9, species=_H2,
        expected_spans=RHS_SPANS + ("REACTION_RATES",)),
    Workload(
        name="jet2d_h2_stiff_strang",
        why="The 100 atm lifted jet under Strang splitting: per-cell "
            "implicit solves replace the batched explicit sources, so "
            "implicit-chemistry work shows here and nowhere else.",
        full=Size((36, 24), warmup=0, steps=20),
        smoke=Size((24, 16), warmup=0, steps=3),
        build=build_jet2d_h2_stiff_strang, reference_rtol=1e-6,
        species=_H2, expected_spans=RHS_SPANS + ("CHEMISTRY_IMPLICIT",),
        periodic=False),
    Workload(
        name="box2d_h2_par2",
        why="Two ranks over the multiprocessing transport with "
            "distributed checkpoints: the only workload with halo "
            "exchange, IPC and checkpoint writes that are read back.",
        full=Size((96, 48), warmup=2, steps=20, checkpoint_interval=10),
        smoke=Size((48, 24), warmup=1, steps=4, checkpoint_interval=2),
        build=build_box2d_h2_par2, reference_rtol=1e-9, species=_H2,
        expected_spans=RHS_SPANS + ("REACTION_RATES", "HALO_EXCHANGE"),
        ranks=2, replay_rtol=1e-12),
)}
