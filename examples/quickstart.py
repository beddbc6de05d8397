"""Quickstart: the pressure-wave model problem of §4.1.

Propagates a small acoustic pulse through quiescent air on a periodic
box with the full S3D numerics (8th-order derivatives, 10th-order
filter, low-storage ERK) and checks the two things a DNS user checks
first: discrete conservation and the wave speed.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.chemistry.mechanisms import air
from repro.core import Grid, S3DSolver, SolverConfig, ic
from repro.core.config import periodic_boundaries
from repro.util.constants import P_ATM


def main():
    mech = air()
    y_air = mech.mass_fractions_from({"O2": 0.233, "N2": 0.767})
    grid = Grid((128,), (1.0,), periodic=(True,))
    state = ic.pressure_pulse(mech, grid, p0=P_ATM, T0=300.0, Y=y_air,
                              amplitude=1e-3, width=0.05)
    cfg = SolverConfig(boundaries=periodic_boundaries(1), cfl=0.5,
                       filter_interval=1, filter_alpha=0.2, telemetry=True)
    solver = S3DSolver(state, cfg, transport=None, reacting=False)

    mass0, energy0 = state.total_mass(), state.total_energy()
    a = float(mech.sound_speed(np.array(300.0), y_air))
    print(f"sound speed a = {a:.2f} m/s; marching until the pulse has "
          f"travelled a quarter domain...")
    while solver.time < 0.25 / a:
        solver.step()

    _, _, _, p, _, _ = state.primitives()
    x_peak = grid.coords[0][np.argmax(p)]
    # the initial pulse splits into left- and right-moving halves
    right = (0.5 + a * solver.time) % 1.0
    left = (0.5 - a * solver.time) % 1.0
    print(f"steps taken:        {solver.step_count}")
    print(f"mass drift:         {abs(state.total_mass() - mass0) / mass0:.2e}")
    print(f"energy drift:       {abs(state.total_energy() - energy0) / abs(energy0):.2e}")
    print(f"pulse peak at:      {x_peak:.3f} "
          f"(acoustic predictions: {left:.3f} and {right:.3f})")
    print(solver.profile_report())


if __name__ == "__main__":
    main()
