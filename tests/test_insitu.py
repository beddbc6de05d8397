"""Tests for in-situ visualization hooks (§8.3) and remaining small
public-API surfaces."""

import numpy as np
import pytest

from repro.core import Grid, SolverConfig, S3DSolver, ic
from repro.core.config import periodic_boundaries
from repro.viz.insitu import InSituRenderer
from repro.util.constants import P_ATM


@pytest.fixture
def small_solver(air_mech, air_y):
    grid = Grid((24, 16), (1e-2, 1e-2), periodic=(True, True))
    state = ic.pressure_pulse(air_mech, grid, p0=P_ATM, T0=300.0, Y=air_y,
                              amplitude=1e-3)
    cfg = SolverConfig(boundaries=periodic_boundaries(2), cfl=0.5)
    return S3DSolver(state, cfg, transport=None, reacting=False)


class TestInSitu:
    def test_hook_produces_images(self, small_solver):
        renderer = InSituRenderer(fields=("T", "O2"))
        small_solver.insitu_hook = renderer
        small_solver.run(4, insitu_interval=2)
        assert len(renderer.images) == 2
        step, t, image = renderer.images[0]
        assert step == 2
        assert image.shape == (24, 16, 3)

    def test_overhead_accounting(self, small_solver):
        renderer = InSituRenderer(fields=("T",), max_overhead=1e-12)
        small_solver.insitu_hook = renderer
        small_solver.run(2, insitu_interval=1)
        # the renderer times the solve itself: nothing is asked of the
        # solver, whose telemetry here is the null backend
        assert not small_solver.telemetry.enabled
        ratio = renderer.check_overhead()
        assert ratio > 0
        assert renderer.overhead_warnings  # impossible ceiling -> flagged

    def test_overhead_needs_two_hook_calls(self, small_solver):
        renderer = InSituRenderer(fields=("T",), max_overhead=1e-12)
        assert renderer.check_overhead() == 0.0
        small_solver.insitu_hook = renderer
        small_solver.run(1, insitu_interval=1)
        assert renderer.render_time > 0
        assert renderer.check_overhead() == 0.0  # no solve gap measured yet
        assert not renderer.overhead_warnings

    def test_species_selector(self, small_solver):
        renderer = InSituRenderer(fields=("T", "Y:N2"))
        small_solver.insitu_hook = renderer
        small_solver.run(1, insitu_interval=1)
        assert len(renderer.images) == 1

    def test_unknown_field(self, small_solver):
        renderer = InSituRenderer(fields=("vorticity",))
        small_solver.insitu_hook = renderer
        with pytest.raises(KeyError):
            small_solver.run(1, insitu_interval=1)


class TestSmallSurfaces:
    def test_flame_thickness_field(self):
        from repro.analysis.flame import flame_thickness_field

        grid = Grid((32, 32), (1.0, 1.0), periodic=(True, True))
        xx, _ = grid.meshgrid()
        c = 0.5 * (1 + np.sin(2 * np.pi * xx))
        th = flame_thickness_field(c, grid)
        assert th.shape == (32, 32)
        assert np.all(th > 0)
        # thinnest where the gradient is steepest
        g_max = np.pi  # max |dc/dx|
        assert th.min() == pytest.approx(1.0 / g_max, rel=0.01)

    def test_parser_ford_keyword(self):
        from repro.chemistry.parser import parse_mechanism

        text = (
            "SPECIES\nCH4 O2 CO2 H2O N2\nEND\n"
            "REACTIONS\n"
            "CH4+2O2=>CO2+2H2O  1.0E10 0.0 30000.\n"
            "    FORD /CH4 0.5/\n"
            "    FORD /O2 1.25/\n"
            "END\n"
        )
        mech = parse_mechanism(text)
        rxn = mech.reactions[0]
        assert rxn.orders == (("CH4", 0.5), ("O2", 1.25))
        # unit conversion uses the FORD total order (1.75)
        assert rxn.rate.A == pytest.approx(1.0e10 * (1e-6) ** 0.75)

    def test_function_actor(self):
        from repro.workflow.actor import FunctionActor, Token

        actor = FunctionActor("inc", lambda x: x + 1)
        out = actor.fire({"in": Token(41)})
        assert out["out"].value == 42
        assert out["out"].provenance[0][0] == "inc"
