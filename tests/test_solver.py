"""Integration tests for the DNS solver: conservation, acoustics, NSCBC."""

import numpy as np
import pytest

from repro.core import BoundarySpec, Grid, S3DSolver, SolverConfig, State, ic
from repro.core.config import periodic_boundaries
from repro.io import SimFileSystem, lustre
from repro.telemetry import MonitorWriter, parse_monitor_text
from repro.transport import ConstantLewisTransport
from repro.util.constants import P_ATM
from tests.helpers import uniform_state
from tests.helpers import PowerLawTransport


@pytest.fixture(scope="module")
def pulse_run(air_mech_mod, air_y_mod):
    """A short 1D periodic acoustic-pulse run shared across tests."""
    mech, Y = air_mech_mod, air_y_mod
    grid = Grid((96,), (1.0,), periodic=(True,))
    state = ic.pressure_pulse(mech, grid, p0=P_ATM, T0=300.0, Y=Y,
                              amplitude=1e-3, width=0.05)
    cfg = SolverConfig(boundaries=periodic_boundaries(1), cfl=0.5,
                       filter_interval=1, filter_alpha=0.2)
    solver = S3DSolver(state, cfg, transport=None, reacting=False)
    m0, e0 = state.total_mass(), state.total_energy()
    a = float(mech.sound_speed(np.array(300.0), Y))
    target = 0.25 / a
    while solver.time < target:
        solver.step()
    return solver, state, m0, e0, a


@pytest.fixture(scope="module")
def air_mech_mod():
    from repro.chemistry.mechanisms import air

    return air()


@pytest.fixture(scope="module")
def air_y_mod(air_mech_mod):
    return air_mech_mod.mass_fractions_from({"O2": 0.233, "N2": 0.767})


class TestConservation:
    def test_mass_conserved(self, pulse_run):
        _, state, m0, _, _ = pulse_run
        assert abs(state.total_mass() - m0) / m0 < 1e-12

    def test_energy_conserved(self, pulse_run):
        _, state, _, e0, _ = pulse_run
        assert abs(state.total_energy() - e0) / abs(e0) < 1e-12

    def test_pulse_travels_at_sound_speed(self, pulse_run):
        solver, state, _, _, a = pulse_run
        _, _, _, p, _, _ = state.primitives()
        grid = state.grid
        # initial pulse at x=0.5 splits; the right-moving peak is at
        # 0.5 + a*t modulo L
        expected = (0.5 + a * solver.time) % 1.0
        x_peak = grid.coords[0][np.argmax(p)]
        assert min(abs(x_peak - expected),
                   abs(x_peak - (1.0 - expected))) < 0.05

    def test_species_conserved(self, air_mech_mod, air_y_mod):
        mech, Y = air_mech_mod, air_y_mod
        grid = Grid((64,), (1.0,), periodic=(True,))
        state = ic.pressure_pulse(mech, grid, p0=P_ATM, T0=300.0, Y=Y,
                                  amplitude=1e-3)
        cfg = SolverConfig(boundaries=periodic_boundaries(1), cfl=0.5)
        solver = S3DSolver(state, cfg, transport=None, reacting=False)
        vol = grid.cell_volumes()
        o2_0 = float((state.u[state.i_species(0)] * vol).sum())
        for _ in range(20):
            solver.step()
        o2_1 = float((state.u[state.i_species(0)] * vol).sum())
        assert abs(o2_1 - o2_0) / o2_0 < 1e-12


class TestFreestreamPreservation:
    def test_uniform_state_is_steady(self, air_mech_mod, air_y_mod):
        mech, Y = air_mech_mod, air_y_mod
        grid = Grid((32, 24), (1e-2, 1e-2), periodic=(True, True))
        state = uniform_state(mech, grid, p=P_ATM, T=400.0, Y=Y, velocity=[30.0, -10.0])
        cfg = SolverConfig(boundaries=periodic_boundaries(2), cfl=0.5,
                           filter_interval=1, filter_alpha=0.3)
        solver = S3DSolver(state, cfg,
                           transport=PowerLawTransport(mech), reacting=False)
        u0 = state.u.copy()
        for _ in range(10):
            solver.step()
        rel = np.abs(state.u - u0).max() / np.abs(u0).max()
        assert rel < 1e-10


class TestViscousDissipation:
    @pytest.mark.slow
    def test_shear_layer_decays(self, air_mech_mod, air_y_mod):
        """A sinusoidal shear profile decays at the viscous rate."""
        mech, Y = air_mech_mod, air_y_mod
        n, L = 48, 1e-3
        grid = Grid((n,), (L,), periodic=(True,))
        x = grid.coords[0]
        v = 1.0 * np.sin(2 * np.pi * x / L)
        # 1D grid: the single velocity component varies along x; use a 2D
        # grid with transverse shear instead
        grid2 = Grid((12, n), (L, L), periodic=(True, True))
        xx, yy = grid2.meshgrid()
        u = 1.0 * np.sin(2 * np.pi * yy / L)
        rho = mech.density(P_ATM, 300.0, Y)
        state = State.from_primitive(mech, grid2, rho, [u, np.zeros_like(u)], 300.0, Y)
        tr = PowerLawTransport(mech, mu_ref=1.8e-5, t_ref=300.0, exponent=0.0)
        cfg = SolverConfig(boundaries=periodic_boundaries(2), cfl=0.5,
                           filter_interval=0)
        solver = S3DSolver(state, cfg, transport=tr, reacting=False)
        nu = 1.8e-5 / float(rho)
        k = 2 * np.pi / L
        t_end = 0.05 / (nu * k * k)
        while solver.time < t_end:
            solver.step()
        _, vel, _, _, _, _ = state.primitives()
        amp = np.abs(vel[0]).max()
        expected = np.exp(-nu * k * k * solver.time)
        assert amp == pytest.approx(expected, rel=0.05)


class TestNSCBC:
    def test_outflow_reflection_small(self, air_mech_mod, air_y_mod):
        mech, Y = air_mech_mod, air_y_mod
        grid = Grid((96,), (1.0,), periodic=(False,))
        state = ic.pressure_pulse(mech, grid, p0=P_ATM, T0=300.0, Y=Y,
                                  amplitude=1e-3, width=0.05)
        bc = {(0, 0): BoundarySpec("nonreflecting_outflow", p_inf=P_ATM),
              (0, 1): BoundarySpec("nonreflecting_outflow", p_inf=P_ATM)}
        cfg = SolverConfig(boundaries=bc, cfl=0.5, filter_interval=1,
                           filter_alpha=0.2)
        solver = S3DSolver(state, cfg, transport=None, reacting=False)
        a = float(mech.sound_speed(np.array(300.0), Y))
        while solver.time < 1.0 / a:
            solver.step()
        _, _, _, p, _, _ = state.primitives()
        # after one crossing both pulses have exited; residual < 3 %
        assert np.abs(p - P_ATM).max() / (1e-3 * P_ATM) < 0.03

    @pytest.mark.slow
    def test_long_time_stability(self, air_mech_mod, air_y_mod):
        mech, Y = air_mech_mod, air_y_mod
        grid = Grid((64,), (0.5,), periodic=(False,))
        state = ic.pressure_pulse(mech, grid, p0=P_ATM, T0=300.0, Y=Y,
                                  amplitude=1e-3, width=0.03)
        bc = {(0, 0): BoundarySpec("nonreflecting_outflow", p_inf=P_ATM),
              (0, 1): BoundarySpec("nonreflecting_outflow", p_inf=P_ATM)}
        cfg = SolverConfig(boundaries=bc, cfl=0.5, filter_interval=1,
                           filter_alpha=0.2)
        solver = S3DSolver(state, cfg, transport=None, reacting=False)
        a = float(mech.sound_speed(np.array(300.0), Y))
        while solver.time < 5.0 * 0.5 / a:
            solver.step()
        _, _, _, p, _, _ = state.primitives()
        assert np.isfinite(p).all()
        assert np.abs(p - P_ATM).max() / (1e-3 * P_ATM) < 0.1

    def test_hard_inflow_holds_primitives(self, air_mech_mod, air_y_mod):
        mech, Y = air_mech_mod, air_y_mod
        grid = Grid((64,), (0.5,), periodic=(False,))
        state = uniform_state(mech, grid, p=P_ATM, T=300.0, Y=Y, velocity=[50.0])
        bc = {(0, 0): BoundarySpec("hard_inflow", velocity=[np.array(50.0)],
                                   temperature=np.array(300.0),
                                   mass_fractions=Y),
              (0, 1): BoundarySpec("nonreflecting_outflow", p_inf=P_ATM)}
        cfg = SolverConfig(boundaries=bc, cfl=0.5, filter_interval=1,
                           filter_alpha=0.2)
        solver = S3DSolver(state, cfg, transport=None, reacting=False)
        for _ in range(100):
            solver.step()
        _, vel, T, _, _, _ = state.primitives()
        assert vel[0][0] == pytest.approx(50.0, rel=1e-6)
        assert T[0] == pytest.approx(300.0, rel=1e-6)

    def test_boundary_validation(self, air_mech_mod, air_y_mod):
        mech, Y = air_mech_mod, air_y_mod
        grid = Grid((64,), (0.5,), periodic=(False,))
        state = uniform_state(mech, grid, p=P_ATM, T=300.0, Y=Y)
        cfg = SolverConfig(boundaries={(0, 0): BoundarySpec("periodic")})
        with pytest.raises(ValueError):
            S3DSolver(state, cfg)


class TestSolverMachinery:
    def test_monitor_writer_records_every_interval(self, air_mech_mod,
                                                   air_y_mod):
        mech, Y = air_mech_mod, air_y_mod
        grid = Grid((32,), (1.0,), periodic=(True,))
        state = uniform_state(mech, grid, p=P_ATM, T=300.0, Y=Y)
        cfg = SolverConfig(boundaries=periodic_boundaries(1), cfl=0.5)
        solver = S3DSolver(state, cfg, transport=None, reacting=False)
        solver.monitor_writer = writer = MonitorWriter()
        solver.run(6, monitor_interval=2)
        assert writer.steps_recorded == 3
        rows = parse_monitor_text(writer.text())
        assert sorted({row["step"] for row in rows}) == [2, 4, 6]
        assert "rho" in {row["variable"] for row in rows}

    def test_hooks_fire(self, air_mech_mod, air_y_mod):
        mech, Y = air_mech_mod, air_y_mod
        grid = Grid((32,), (1.0,), periodic=(True,))
        state = uniform_state(mech, grid, p=P_ATM, T=300.0, Y=Y)
        cfg = SolverConfig(boundaries=periodic_boundaries(1), cfl=0.5)
        solver = S3DSolver(state, cfg, transport=None, reacting=False)
        report = solver.run_resilient(SimFileSystem(lustre()), 4,
                                      checkpoint_interval=2, keep=5)
        # the baseline save, then every interval
        assert [step for step, _ in report.ring.entries()] == [0, 2, 4]
        assert report.checkpoints_written == 3

    def test_fixed_dt_honored(self, air_mech_mod, air_y_mod):
        mech, Y = air_mech_mod, air_y_mod
        grid = Grid((32,), (1.0,), periodic=(True,))
        state = uniform_state(mech, grid, p=P_ATM, T=300.0, Y=Y)
        cfg = SolverConfig(boundaries=periodic_boundaries(1), dt=1e-7)
        solver = S3DSolver(state, cfg, transport=None, reacting=False)
        assert solver.step() == 1e-7

    def test_stable_dt_positive(self, air_mech_mod, air_y_mod):
        mech, Y = air_mech_mod, air_y_mod
        grid = Grid((32,), (1.0,), periodic=(True,))
        state = uniform_state(mech, grid, p=P_ATM, T=300.0, Y=Y)
        cfg = SolverConfig(boundaries=periodic_boundaries(1), cfl=0.5)
        solver = S3DSolver(state, cfg, transport=ConstantLewisTransport(mech),
                           reacting=False)
        dt = solver.compute_dt()
        assert 0 < dt < 1.0

    def test_performance_report(self, air_mech_mod, air_y_mod):
        mech, Y = air_mech_mod, air_y_mod
        grid = Grid((32,), (1.0,), periodic=(True,))
        state = uniform_state(mech, grid, p=P_ATM, T=300.0, Y=Y)
        cfg = SolverConfig(boundaries=periodic_boundaries(1), cfl=0.5,
                           telemetry=True)
        solver = S3DSolver(state, cfg, transport=None, reacting=False)
        solver.run(2)
        report = solver.profile_report()
        assert "INTEGRATE" in report and "FILTER" in report
