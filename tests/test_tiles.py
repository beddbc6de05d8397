"""Every pointwise kernel that walks a whole field in tiles gives the
bits it gives on the field in one piece, whatever the tile width.

One constant, ``repro.chemistry.thermo.TILE_CELLS``, sets the width of
the temperature solve, the production rates, the stable-dt reductions
and the transport kernel; the tests below move it and compare against
the field evaluated as one tile.
"""

import numpy as np
import pytest

import repro.chemistry.thermo as thermo
from repro.chemistry import h2_li2004
from repro.core.grid import Grid
from repro.core.rhs import CompressibleRHS
from repro.core.state import State
from repro.transport import MixtureAveragedTransport

ONE_TILE = 10**9  # wider than any field here: the field is its own tile


def _field(mech, width):
    """A ``(3, width + 1)`` reacting field: ``3 width + 3`` cells, never
    a whole number of tiles of ``width``."""
    rng = np.random.default_rng(width)
    S = (3, width + 1)
    T = 800.0 + 1500.0 * rng.random(S)
    rho = 0.2 + 0.5 * rng.random(S)
    Y = rng.random((mech.n_species,) + S) + 1e-3
    Y /= Y.sum(axis=0)
    return S, rho, T, Y


def _production_rates(mech, width):
    _, rho, T, Y = _field(mech, width)
    return [mech.production_rates(rho, T, Y)]


def _stable_dt(mech, width):
    S, rho, T, Y = _field(mech, width)
    rng = np.random.default_rng(width + 1)
    grid = Grid(S, (1e-3, 2e-3), periodic=(True, True))
    vel = [40.0 * (rng.random(S) - 0.5) for _ in S]
    state = State.from_primitive(mech, grid, rho, vel, T, Y)
    rhs = CompressibleRHS(state, transport=MixtureAveragedTransport(mech))
    return [np.float64(rhs.stable_dt())]


def _transport(mech, width):
    _, rho, T, Y = _field(mech, width)
    props = MixtureAveragedTransport(mech, soret=True).evaluate(
        T, rho * T * 300.0, Y)
    return [props.viscosity, props.conductivity, props.diffusivities,
            props.thermal_diffusion_ratios]


def _temperature(mech, width):
    _, _, T, Y = _field(mech, width)
    e = mech.int_energy_mass(T, Y)
    return [mech.temperature_from_energy(e, Y, T_guess=T + 40.0)]


# the kinetics case runs in the stiff-chemistry lane beside the
# kinetics plan's frozen oracles (``-m "jacobian or implicit"``)
KERNELS = [
    pytest.param(_production_rates, id="production_rates",
                 marks=pytest.mark.jacobian),
    pytest.param(_stable_dt, id="stable_dt"),
    pytest.param(_transport, id="transport"),
    pytest.param(_temperature, id="temperature"),
]


@pytest.mark.parametrize("width", [1, 7, 64, thermo.TILE_CELLS])
@pytest.mark.parametrize("kernel", KERNELS)
def test_tiles_move_no_bits(kernel, width, monkeypatch):
    mech = h2_li2004()
    monkeypatch.setattr(thermo, "TILE_CELLS", ONE_TILE)
    whole = kernel(mech, width)
    monkeypatch.setattr(thermo, "TILE_CELLS", width)
    assert len(thermo.tile_edges(3 * width + 3)) > 1
    tiled = kernel(mech, width)
    for got, want in zip(tiled, whole):
        assert got.shape == want.shape
        assert np.array_equal(got, want)


@pytest.mark.jacobian
@pytest.mark.parametrize("width", [1, thermo.TILE_CELLS])
def test_a_cell_alone_is_its_own_tile(width, h2_mech, monkeypatch):
    """The 0-d and one-cell calls of the reactor and flame solvers."""
    monkeypatch.setattr(thermo, "TILE_CELLS", width)
    _, rho, T, Y = _field(h2_mech, 7)
    field = h2_mech.production_rates(rho, T, Y)
    for k in np.ndindex(T.shape):
        at = (slice(None),) + k
        alone = h2_mech.production_rates(float(rho[k]), float(T[k]), Y[at])
        assert alone.shape == (h2_mech.n_species,)
        assert np.array_equal(alone, field[at])
        one = (slice(k[0], k[0] + 1), slice(k[1], k[1] + 1))
        cell = h2_mech.production_rates(rho[one], T[one], Y[(slice(None),) + one])
        assert np.array_equal(cell[:, 0, 0], field[at])


def test_tiles_read_the_fields_memo_entry_and_keep_it(monkeypatch):
    """A tiled call reads its tile's slice of the field's memoised
    enthalpies and stores nothing, so the field's entry survives."""
    mech = h2_li2004()
    monkeypatch.setattr(thermo, "TILE_CELLS", 1000)  # memoisable tiles
    _, rho, T, Y = _field(mech, 999)
    h = mech.thermo.enthalpy_molar(T)
    evaluated = []
    evaluate = mech.thermo._evaluate
    monkeypatch.setattr(mech.thermo, "_evaluate", lambda T, names: (
        evaluated.append(names) or evaluate(T, names)))
    mech.production_rates(rho, T, Y)
    assert evaluated == [("s",)] * 3  # the entropies, per tile
    assert mech.thermo.enthalpy_molar(T) is h
