"""Golden-file scenario summaries: the regression observable.

Short runs of the paper's two scenario families (§6.2 lifted jet, §7.2
Bunsen-style premixed box) on tiny grids, reduced to summary statistics
(min/max/mean of temperature, key species, density, pressure, plus
conserved totals). The committed goldens under ``tests/goldens/`` pin
these numbers; ``tests/test_golden.py`` re-runs the scenarios and
compares against them with tight tolerances, so any change to the
discretization, chemistry, transport, boundary treatment, or time
integration that shifts the solution shows up as a diff — while
refactors that preserve the numbers (stacked RHS sweeps, chemistry
load balancing) pass untouched.

Regenerate with ``python benchmarks/regen_goldens.py`` after an
*intentional* change to the numerics, and say why in the commit.
"""

from __future__ import annotations

import json

import numpy as np

from repro.scenarios import (BUNSEN_PHI, bunsen_mixture, lifted_jet,
                             premixed_flame_box)

#: golden schema version; bump when the summary layout changes
GOLDEN_VERSION = 1

#: steps/dt keep runs O(seconds) while exercising every solver stage
LIFTED_JET_STEPS = 4
LIFTED_JET_DT = 4.0e-8
BUNSEN_STEPS = 4
BUNSEN_DT = 4.0e-8


def _field_stats(f) -> dict:
    f = np.asarray(f, dtype=float)
    return {
        "min": float(f.min()),
        "max": float(f.max()),
        "mean": float(f.mean()),
    }


def summarize_solver(solver, species) -> dict:
    """Summary statistics of a solver's current state."""
    state = solver.state
    rho, vel, T, p, Y, e0 = state.primitives()
    mech = state.mech
    out = {
        "time": float(solver.time),
        "step_count": int(solver.step_count),
        "total_mass": float(state.total_mass()),
        "total_energy": float(state.total_energy()),
        "T": _field_stats(T),
        "rho": _field_stats(rho),
        "p": _field_stats(p),
    }
    for name in species:
        out[f"Y_{name}"] = _field_stats(Y[mech.index(name)])
    for a, v in enumerate(vel):
        out[f"vel{a}"] = _field_stats(v)
    return out


def burned_methane_state(mech, t_burned: float = 2000.0):
    """Complete-combustion products of the lean Bunsen CH4/air mixture.

    Synthesizes the burned side of the premixed box from stoichiometry
    alone (CH4 + 2 O2 -> CO2 + 2 H2O with the lean O2 excess retained),
    avoiding the expensive laminar-flame solve the production scenario
    builder uses for its normalization.
    """
    y_u = bunsen_mixture(mech, BUNSEN_PHI)
    moles = y_u / mech.weights  # mol per kg of mixture
    n_ch4 = moles[mech.index("CH4")]
    prod = np.zeros(mech.n_species)
    prod[mech.index("CO2")] = n_ch4
    prod[mech.index("H2O")] = 2.0 * n_ch4
    prod[mech.index("O2")] = moles[mech.index("O2")] - 2.0 * n_ch4
    prod[mech.index("N2")] = moles[mech.index("N2")]
    y_b = prod * mech.weights
    y_b /= y_b.sum()
    return t_burned, y_b


def lifted_jet_summary(steps: int = LIFTED_JET_STEPS, dt: float = LIFTED_JET_DT) -> dict:
    """Golden summary for a tiny lifted-jet run."""
    solver, info = lifted_jet(nx=36, ny=24, fluct=0.1, seed=0)
    for _ in range(steps):
        solver.step(dt)
    out = summarize_solver(solver, species=("H2", "O2", "OH", "HO2"))
    out["scenario"] = "lifted_jet"
    out["version"] = GOLDEN_VERSION
    return out


def bunsen_box_summary(steps: int = BUNSEN_STEPS, dt: float = BUNSEN_DT) -> dict:
    """Golden summary for a tiny premixed-flame-box (Bunsen) run."""
    from repro.chemistry import ch4_twostep

    t_b, y_b = burned_methane_state(ch4_twostep())
    solver, info = premixed_flame_box(
        u_rms_over_sl=3.0, sl=1.5, delta_l=5.0e-4,
        t_burned=t_b, y_burned=y_b, n=32, seed=0,
    )
    for _ in range(steps):
        solver.step(dt)
    out = summarize_solver(solver, species=("CH4", "O2", "CO", "CO2"))
    out["scenario"] = "bunsen_box"
    out["version"] = GOLDEN_VERSION
    return out


#: lifted-jet-parallel golden: steps/grid sized so 2x2 ranks exercise
#: halo exchange, filtering, and chemistry load balancing in seconds
LIFTED_JET_PARALLEL_STEPS = 3
LIFTED_JET_PARALLEL_DT = 2.0e-8


def lifted_jet_parallel_solver(comm_transport: str = "inprocess", **kwargs):
    """Periodic lifted-jet-flavoured configuration on the rank-parallel
    solver — the cross-transport golden scenario.

    The §6.2 jet is a non-periodic slot flow, but
    :class:`~repro.parallel.solver.ParallelPeriodicSolver` requires an
    all-periodic box, so this scenario keeps the jet's *composition and
    shear structure* — a fuel stripe (65/35 H2/N2 at 400 K) in hot
    coflow air with a tanh shear layer and an igniting hot spot — on a
    doubly periodic 24x24 box split 2x2. The hot spot concentrates
    reaction work in one quadrant, so ``chem_load_balance="greedy"``
    genuinely ships cells. ``comm_transport`` picks the communication
    backend; the solver owns the created world (close it via
    ``solver.close()``). Extra keywords (``rank_telemetry``,
    ``chem_load_balance``, ...) pass through to the solver so tests can
    re-run the pinned scenario with observability features armed.
    """
    from repro.core.state import State
    from repro.parallel.decomp import CartesianDecomposition
    from repro.parallel.solver import ParallelPeriodicSolver
    from repro.scenarios import H2_LEWIS, fuel_and_coflow
    from repro.transport import ConstantLewisTransport
    from repro.util.constants import P_ATM

    from repro.chemistry import h2_li2004

    mech = h2_li2004()
    y_fuel, y_air = fuel_and_coflow(mech)
    from repro.core.grid import Grid

    n = 24
    grid = Grid((n, n), (2.0e-3, 2.0e-3), periodic=(True, True))
    xx, yy = grid.meshgrid()
    # fuel stripe with tanh shear layers, periodic in both directions
    stripe = 0.5 * (np.tanh((yy - 0.6e-3) / 1.5e-4)
                    - np.tanh((yy - 1.4e-3) / 1.5e-4))
    Y = (y_fuel[:, None, None] * stripe[None]
         + y_air[:, None, None] * (1.0 - stripe[None]))
    # igniting hot spot inside the shear layer (off-centre: imbalance)
    spot = np.exp(-((xx - 0.5e-3) ** 2 + (yy - 0.6e-3) ** 2)
                  / (2 * (2.0e-4) ** 2))
    T = 400.0 * stripe + 1300.0 * (1.0 - stripe) + 500.0 * spot
    u_jet = 60.0 * stripe + 4.0 * (1.0 - stripe)
    rho = mech.density(P_ATM, T, Y)
    state = State.from_primitive(mech, grid, rho, [u_jet, 0.0], T, Y)
    transport = ConstantLewisTransport(mech, lewis=H2_LEWIS, mu_ref=1.8e-5,
                                       t_ref=300.0, exponent=0.7)
    decomp = CartesianDecomposition((n, n), (2, 2), periodic=(True, True))
    solver = ParallelPeriodicSolver(
        mech, grid, decomp, transport=transport, reacting=True,
        scheme="ck45", filter_alpha=0.25, chem_load_balance="greedy",
        comm_transport=comm_transport, **kwargs,
    )
    solver.set_state(state.u)
    return solver


def lifted_jet_parallel_summary(steps: int = LIFTED_JET_PARALLEL_STEPS,
                                dt: float = LIFTED_JET_PARALLEL_DT,
                                comm_transport: str = "inprocess") -> dict:
    """Golden summary for the rank-parallel lifted-jet scenario."""
    solver = lifted_jet_parallel_solver(comm_transport)
    try:
        for _ in range(steps):
            solver.step(dt)
        out = summarize_solver(solver, species=("H2", "O2", "OH", "HO2"))
    finally:
        solver.close()
    out["scenario"] = "lifted_jet_parallel"
    out["version"] = GOLDEN_VERSION
    return out


#: name -> builder for every golden scenario
GOLDEN_SCENARIOS = {
    "lifted_jet": lifted_jet_summary,
    "bunsen_box": bunsen_box_summary,
    "lifted_jet_parallel": lifted_jet_parallel_summary,
}


def write_golden(path, summary: dict) -> None:
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_golden(path) -> dict:
    with open(path) as fh:
        return json.load(fh)
