"""Scaled-down versions of the paper's two DNS configurations.

The paper's production runs (§6.2: 940M-point lifted H2 jet; §7.2:
52-195M-point Bunsen cases) are far beyond a NumPy DNS, so these
builders produce *dynamically similar, reduced* 2D configurations that
preserve the mechanisms the figures measure:

* :func:`lifted_jet` — a 2D slot jet of cold 65/35 H2/N2 fuel in hot
  air coflow. Scaled down in size and velocity and *up* in coflow
  temperature (1300 K vs 1100 K) so the autoignition that stabilizes
  the flame happens within an affordable number of steps; the
  autoignitive-stabilization physics (HO2 before OH, lean-first
  ignition) is temperature-threshold physics that survives the change.
* :func:`premixed_flame_box` — a doubly periodic premixed flame pair
  interacting with synthetic turbulence at u'/SL of the paper's three
  Bunsen cases. Transport is thickened (3x viscosity) so the flame is
  resolvable on a small grid; the Fig 13 comparison normalizes by the
  *same-model* laminar thickness, so the thickening/saturation shape
  is preserved. Two-step methane chemistry (laminar flame speed
  validated within ~10 % of the paper's PREMIX value) supplies the
  heat-release structure Figs 12/13 use.

Every builder returns a ready :class:`~repro.core.solver.S3DSolver`
plus the metadata benchmarks need.
"""

from __future__ import annotations

import numpy as np

from repro.chemistry import ch4_twostep, h2_li2004
from repro.core import BoundarySpec, Grid, S3DSolver, SolverConfig, State, ic
from repro.core.config import periodic_boundaries
from repro.transport import ConstantLewisTransport
from repro.turbulence import synthetic_velocity_field
from repro.util.constants import P_ATM

#: §6.2 jet, scaled: domain (x, y) and slot width [m], jet and coflow
#: velocities [m/s], fuel and coflow temperatures [K]
JET_DOMAIN = (4.0e-3, 3.0e-3)
JET_SLOT = 5.0e-4
JET_VELOCITY, COFLOW_VELOCITY = 60.0, 4.0
T_FUEL, T_COFLOW = 400.0, 1300.0

#: §7.2 Bunsen mixture: equivalence ratio, unburned temperature [K], the
#: transport thickening factor, and the box size in laminar thicknesses
BUNSEN_PHI = 0.7
T_UNBURNED = 800.0
THICKEN = 3.0
BOX_OVER_DELTA = 10.0

#: per-species Lewis numbers for the H2 system (standard values)
H2_LEWIS = {
    "H2": 0.30, "H": 0.18, "O2": 1.11, "O": 0.70, "OH": 0.73,
    "H2O": 0.83, "HO2": 1.10, "H2O2": 1.12,
}


def fuel_and_coflow(mech):
    """The §6.2 streams: 65/35 H2/N2 fuel at 400 K, heated air."""
    X = np.zeros(mech.n_species)
    X[mech.index("H2")] = 0.65
    X[mech.index("N2")] = 0.35
    y_fuel = mech.mole_to_mass(X)
    y_air = np.zeros(mech.n_species)
    y_air[mech.index("O2")] = 0.233
    y_air[mech.index("N2")] = 0.767
    return y_fuel, y_air


def lifted_jet(nx=72, ny=48, fluct=0.1, seed=0, filter_alpha=0.25,
               p=P_ATM, chemistry_mode=None):
    """Scaled 2D lifted H2/air jet in autoignitive hot coflow (§6.2).

    Returns (solver, info) where info carries the stream compositions
    and geometry the analysis needs.

    ``p`` sets the ambient pressure (default 1 atm, the paper's §6
    condition).  Elevated pressure accelerates the radical chemistry
    while leaving the acoustic time step nearly unchanged, turning the
    case chemistry-stiff — the regime the Strang-split implicit path
    (``chemistry_mode="strang"``, see ``docs/CHEMISTRY.md``) exists
    for.  ``chemistry_mode=None`` keeps the solver default (explicit).
    """
    mech = h2_li2004()
    y_fuel, y_air = fuel_and_coflow(mech)
    lx, ly = JET_DOMAIN
    grid = Grid((nx, ny), (lx, ly), periodic=(False, False))
    fluctuations = None
    if fluct > 0:
        fluctuations = synthetic_velocity_field(
            (nx, ny), (lx, ly), u_rms=fluct * JET_VELOCITY,
            length_scale=JET_SLOT, seed=seed,
        )
    state, inflow = ic.slot_jet(
        mech, grid, p=p,
        jet={"T": T_FUEL, "Y": y_fuel},
        coflow={"T": T_COFLOW, "Y": y_air},
        slot_width=JET_SLOT, shear_thickness=0.12 * JET_SLOT,
        jet_velocity=JET_VELOCITY, coflow_velocity=COFLOW_VELOCITY,
        fluctuations=fluctuations,
    )
    boundaries = {
        (0, 0): BoundarySpec(
            "hard_inflow",
            velocity=[inflow["velocity"][0][0], inflow["velocity"][1][0]],
            temperature=inflow["temperature"][0],
            mass_fractions=inflow["mass_fractions"][:, 0],
        ),
        (0, 1): BoundarySpec("nonreflecting_outflow", p_inf=p),
        (1, 0): BoundarySpec("nonreflecting_outflow", p_inf=p, sigma=0.5),
        (1, 1): BoundarySpec("nonreflecting_outflow", p_inf=p, sigma=0.5),
    }
    cfg = SolverConfig(boundaries=boundaries, cfl=0.8, filter_interval=1,
                       filter_alpha=filter_alpha, scheme="ck45",
                       chemistry_mode=chemistry_mode)
    transport = ConstantLewisTransport(mech, lewis=H2_LEWIS, mu_ref=1.8e-5,
                                       t_ref=300.0, exponent=0.7)
    solver = S3DSolver(state, cfg, transport=transport, reacting=True)
    info = {
        "mech": mech,
        "y_fuel": y_fuel,
        "y_air": y_air,
        "grid": grid,
        "slot": JET_SLOT,
        "jet_velocity": JET_VELOCITY,
        "flow_through_time": lx / JET_VELOCITY,
    }
    return solver, info


def bunsen_mixture(mech, phi=0.7):
    """Premixed CH4/air mass fractions at equivalence ratio phi (§7.2)."""
    x_ch4 = phi / (phi + 2 * 4.76)
    X = np.zeros(mech.n_species)
    X[mech.index("CH4")] = x_ch4
    X[mech.index("O2")] = (1 - x_ch4) * 0.21
    X[mech.index("N2")] = (1 - x_ch4) * 0.79
    X /= X.sum()
    return mech.mole_to_mass(X)


def bunsen_transport(mech, thicken=3.0):
    """The thickened transport model shared by the laminar reference
    and the turbulent cases."""
    return ConstantLewisTransport(mech, mu_ref=thicken * 1.8e-5,
                                  t_ref=300.0, exponent=0.7)


def premixed_flame_box(u_rms_over_sl, sl, delta_l, t_burned, y_burned,
                       n=64, lt_over_delta=1.0, seed=0, filter_alpha=0.25):
    """Doubly periodic premixed flame pair + synthetic turbulence (§7.2).

    The box holds a band of fresh reactants between two flame fronts
    (initialized from tanh profiles at the laminar thickness), with a
    solenoidal synthetic velocity field at the requested intensity
    superposed. Cases A/B/C of Table 1 differ only in
    ``u_rms_over_sl`` (3, 6, 10) and the length-scale ratio.

    Parameters mirror the laminar reference solution (``sl``,
    ``delta_l``, ``t_burned``, ``y_burned``) so the normalization of
    Fig 13 is self-consistent.
    """
    mech = ch4_twostep()
    y_u = bunsen_mixture(mech, BUNSEN_PHI)
    L = BOX_OVER_DELTA * delta_l
    grid = Grid((n, n), (L, L), periodic=(True, True))
    xx, yy = grid.meshgrid()
    # fresh band in the middle: fronts at y = L/3 and 2L/3
    prof = 0.5 * (np.tanh((yy - L / 3.0) / (0.5 * delta_l))
                  - np.tanh((yy - 2.0 * L / 3.0) / (0.5 * delta_l)))
    # prof = 1 in reactants, 0 in products
    T = t_burned + (T_UNBURNED - t_burned) * prof
    Y = y_burned[:, None, None] + (y_u - y_burned)[:, None, None] * prof[None]
    vel = synthetic_velocity_field(
        (n, n), (L, L), u_rms=u_rms_over_sl * sl,
        length_scale=lt_over_delta * delta_l * 2 * np.pi / 4.0, seed=seed,
    )
    rho = mech.density(P_ATM, T, Y)
    state = State.from_primitive(mech, grid, rho, vel, T, Y)
    cfg = SolverConfig(boundaries=periodic_boundaries(2), cfl=0.8,
                       filter_interval=1, filter_alpha=filter_alpha,
                       scheme="ck45")
    solver = S3DSolver(state, cfg, transport=bunsen_transport(mech, THICKEN),
                       reacting=True)
    info = {
        "mech": mech,
        "grid": grid,
        "y_unburned": y_u,
        "flame_time": delta_l / sl,
        "sl": sl,
        "delta_l": delta_l,
    }
    return solver, info


#: the laminar reference's domain length [m] and points
LAMINAR_LENGTH = 1.0e-2
LAMINAR_POINTS = 160


def bunsen_laminar_reference():
    """Laminar flame for the Bunsen chemistry/transport pair.

    Returns (properties, burned_T, burned_Y) — the normalization data
    for Fig 13 and the coflow state of §7.2 ("composition and
    temperature ... of the complete combustion products").
    """
    from repro.analysis.laminar import FreeFlame

    mech = ch4_twostep()
    y_u = bunsen_mixture(mech, BUNSEN_PHI)
    flame = FreeFlame(mech, bunsen_transport(mech, THICKEN), P_ATM,
                      T_UNBURNED, y_u, length=LAMINAR_LENGTH,
                      n_points=LAMINAR_POINTS)
    props = flame.solve(sl_guess=1.5)
    x, T, Y, q = flame.profiles()
    return props, flame.t_b, flame.y_b, flame
