"""Strang-split implicit chemistry benchmark + regression gate.

End-to-end time-to-solution on the lifted H2/air jet at elevated
pressure, where radical chemistry is genuinely stiff: at 100 atm the
fastest chemical eigenvalue reaches ``|lambda| ~ 5e8 /s`` while the
acoustic step stays near 1.2e-7 s, so ``|lambda| dt`` sits two orders
of magnitude outside the ERK stability region. The benchmark

1. **demonstrates the failure** — the explicit path at the acoustic
   step goes non-finite within a few steps;
2. **measures the explicit path at its chemistry-limited step** —
   ``dt = C_stab / |lambda|`` with ``|lambda|`` the exact spectral
   radius of the analytical chemical Jacobian (refreshed periodically;
   eigenvalue time excluded from the timed region) — to a fixed
   physical horizon;
3. **measures the Strang path at the acoustic step** to the same
   horizon, and sanity-checks that both solutions agree on peak
   temperature;
4. **pins the explicit path bitwise** — the standard 1 atm lifted jet
   advanced 5 steps must hash exactly as it did before the Strang
   machinery existed.

Results land in ``BENCH_implicit.json``; the committed baseline gates
CI: ``--check-regression`` fails when the measured speedup falls under
the acceptance floor, when the explicit-at-acoustic-dt failure stops
reproducing, or when the explicit hash moves.

Usage::

    python benchmarks/bench_implicit.py             # measure, write JSON
    python benchmarks/bench_implicit.py --quick     # shorter horizon
    python benchmarks/bench_implicit.py --check-regression [--baseline PATH]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.chemistry import SourceTermJacobian, h2_li2004  # noqa: E402
from repro.scenarios import lifted_jet  # noqa: E402
from repro.util.constants import P_ATM  # noqa: E402

#: default location of the committed baseline / output
DEFAULT_JSON = os.path.join(
    os.path.dirname(__file__), "..", "BENCH_implicit.json"
)

#: end-to-end speedup floor (measured ~7x; the floor leaves headroom
#: for machine noise without ever letting Strang lose to explicit)
SPEEDUP_FLOOR = 2.0

#: sha256 of state.u after 5 explicit steps of the standard 1 atm
#: lifted jet (nx=36, ny=24, seed=0). A refactor must never move it; a
#: PR that changes the explicit path's arithmetic on purpose says so in
#: its title and moves it once, with its two twins in
#: tests/test_scenarios.py (``regen_goldens.py --pins``; last: PR 23)
GOLDEN_EXPLICIT_HASH = (
    "8b27330a3272f3dafd33948ac79dffd1ed62b6bb9ad86995951b906dd5c7468b"
)

#: stiff-case pressure [Pa]: 100 atm H2/air, the high-pressure
#: HO2/H2O2-dominated regime
P_STIFF = 100.0 * P_ATM

#: grid of the benchmark jet (identical to the hash case)
NX, NY = 36, 24

#: explicit stability criterion dt <= C / |lambda| (ck45's real-axis
#: bound is ~3.3; 2.5 leaves the usual safety margin)
EXPLICIT_STAB = 2.5

#: refresh the exact spectral radius every this many explicit steps
#: once the mixing layer is established; the first WARMUP steps refresh
#: every step because |lambda| grows orders of magnitude from the
#: unmixed initial condition
LAMBDA_REFRESH = 10
LAMBDA_WARMUP = 30

#: physical horizon in units of the acoustic step
HORIZON_ACOUSTIC_STEPS = 20
HORIZON_ACOUSTIC_STEPS_QUICK = 8


def stiff_jet(chemistry_mode=None):
    """The benchmark configuration: 100 atm laminar lifted jet."""
    solver, info = lifted_jet(
        nx=NX, ny=NY, seed=0, fluct=0.0, p=P_STIFF,
        chemistry_mode=chemistry_mode,
    )
    return solver, info


def explicit_hash() -> str:
    """sha256 of the standard 1 atm jet after 5 explicit steps."""
    solver, _ = lifted_jet(nx=NX, ny=NY, seed=0)
    for _ in range(5):
        solver.step()
    return hashlib.sha256(solver.state.u.tobytes()).hexdigest()


def spectral_radius(solver, stj) -> float:
    """Exact max |Re lambda| of the chemical Jacobian over the field."""
    rho, _, T, _, Y, _ = solver.state.primitives()
    jac = stj.jacobian(
        T.ravel(), Y.reshape(Y.shape[0], -1), rho=rho.ravel()
    )
    return float(np.abs(np.linalg.eigvals(jac).real).max())


def demonstrate_explicit_failure(max_steps: int = 30) -> dict:
    """Run explicit at the acoustic dt; record where it comes apart."""
    solver, _ = stiff_jet()
    for k in range(max_steps):
        try:
            solver.step()
        except (RuntimeError, FloatingPointError) as exc:
            return {"blew_up": True, "step": k, "how": f"{exc}"}
        if not np.isfinite(solver.state.u).all():
            return {"blew_up": True, "step": k, "how": "non-finite state"}
        T = solver.state.primitives()[2]
        if T.max() > 4500.0 or T.min() < 50.0:
            return {
                "blew_up": True, "step": k,
                "how": f"T left [{T.min():.0f}, {T.max():.0f}] K",
            }
    return {"blew_up": False, "step": max_steps, "how": "survived"}


def run_explicit_limited(t_target: float, max_steps: int = 5000) -> dict:
    """Explicit path at its chemistry-limited stable step.

    The spectral-radius refresh runs outside the timed region: the
    measured wall time charges the explicit path only for the steps a
    production run would take, not for our instrumentation.
    """
    solver, info = stiff_jet()
    stj = SourceTermJacobian(info["mech"], mode="constant-volume")
    lam = spectral_radius(solver, stj)
    wall = 0.0
    nsteps = 0
    t_phys = 0.0
    dt_min = np.inf
    while t_phys < t_target and nsteps < max_steps:
        if nsteps > 0 and (
            nsteps <= LAMBDA_WARMUP or nsteps % LAMBDA_REFRESH == 0
        ):
            lam = max(lam, spectral_radius(solver, stj))
        dt_cfl = solver.rhs.stable_dt(cfl=solver.config.cfl)
        dt = min(dt_cfl, EXPLICIT_STAB / lam)
        dt_min = min(dt_min, dt)
        t0 = time.perf_counter()
        solver.step(dt)
        wall += time.perf_counter() - t0
        t_phys += dt
        nsteps += 1
    T = solver.state.primitives()[2]
    return {
        "seconds": wall,
        "steps": nsteps,
        "t_phys": t_phys,
        "dt_min": float(dt_min),
        "lambda_max": lam,
        "t_max_kelvin": float(T.max()),
        "finite": bool(np.isfinite(solver.state.u).all()),
    }


def run_strang(t_target: float, max_steps: int = 500) -> dict:
    """Strang path at the acoustic step to the same horizon."""
    solver, _ = stiff_jet(chemistry_mode="strang")
    wall = 0.0
    nsteps = 0
    t_phys = 0.0
    while t_phys < t_target and nsteps < max_steps:
        t0 = time.perf_counter()
        dt = solver.step()
        wall += time.perf_counter() - t0
        t_phys += dt
        nsteps += 1
    T = solver.state.primitives()[2]
    return {
        "seconds": wall,
        "steps": nsteps,
        "t_phys": t_phys,
        "t_max_kelvin": float(T.max()),
        "finite": bool(np.isfinite(solver.state.u).all()),
    }


def run(horizon_steps: int) -> dict:
    digest = explicit_hash()
    failure = demonstrate_explicit_failure()
    # the acoustic step of the stiff case sets the physical horizon
    probe, _ = stiff_jet()
    dt_acoustic = probe.rhs.stable_dt(cfl=probe.config.cfl)
    t_target = horizon_steps * dt_acoustic
    explicit = run_explicit_limited(t_target)
    strang = run_strang(t_target)
    speedup = explicit["seconds"] / strang["seconds"]
    t_ref = explicit["t_max_kelvin"]
    peak_t_rel_diff = abs(strang["t_max_kelvin"] - t_ref) / t_ref
    return {
        "case": (
            f"lifted H2/air jet, {NX}x{NY}, {P_STIFF / P_ATM:.0f} atm, "
            "laminar inflow, explicit chemistry-limited vs Strang at "
            "the acoustic step"
        ),
        "horizon_acoustic_steps": horizon_steps,
        "dt_acoustic": float(dt_acoustic),
        "t_target": float(t_target),
        "explicit_hash": digest,
        "explicit_hash_ok": digest == GOLDEN_EXPLICIT_HASH,
        "explicit_at_acoustic_dt": failure,
        "explicit_limited": explicit,
        "strang": strang,
        "speedup": float(speedup),
        "peak_t_rel_diff": float(peak_t_rel_diff),
        "speedup_floor": SPEEDUP_FLOOR,
    }


def check_regression(report: dict, baseline_path: str) -> int:
    failures = []
    if not report["explicit_hash_ok"]:
        failures.append(
            f"explicit path hash moved: {report['explicit_hash']} != "
            f"{GOLDEN_EXPLICIT_HASH}"
        )
    if not report["explicit_at_acoustic_dt"]["blew_up"]:
        failures.append(
            "explicit path at the acoustic dt no longer fails on the "
            "stiff case — the benchmark premise needs re-examining"
        )
    for leg in ("explicit_limited", "strang"):
        if not report[leg]["finite"]:
            failures.append(f"{leg} run went non-finite")
    if report["speedup"] < SPEEDUP_FLOOR:
        failures.append(
            f"speedup {report['speedup']:.2f}x under the "
            f"{SPEEDUP_FLOOR:.1f}x floor"
        )
    if report["peak_t_rel_diff"] > 0.05:
        failures.append(
            f"Strang peak temperature drifts {report['peak_t_rel_diff']:.1%} "
            "from the resolved explicit run (> 5%)"
        )
    if os.path.exists(baseline_path):
        with open(baseline_path) as fh:
            base = json.load(fh)
        if base.get("speedup", 0.0) < base.get("speedup_floor", SPEEDUP_FLOOR):
            failures.append("committed baseline speedup under its own floor")
    else:
        failures.append(f"no committed baseline at {baseline_path}")
    for f in failures:
        print(f"REGRESSION: {f}")
    if not failures:
        print(
            f"implicit gate OK: Strang {report['speedup']:.2f}x faster "
            f"end-to-end (floor {SPEEDUP_FLOOR:.1f}x), explicit blow-up "
            f"reproduced at step "
            f"{report['explicit_at_acoustic_dt']['step']}, explicit hash "
            "unchanged"
        )
    return 1 if failures else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--quick", action="store_true", help="shorter horizon")
    ap.add_argument("--check-regression", action="store_true")
    ap.add_argument("--baseline", default=DEFAULT_JSON)
    ap.add_argument("--output", default=DEFAULT_JSON)
    args = ap.parse_args()
    horizon = (
        HORIZON_ACOUSTIC_STEPS_QUICK if args.quick
        else HORIZON_ACOUSTIC_STEPS
    )
    report = run(horizon)
    fail = report["explicit_at_acoustic_dt"]
    print(
        f"explicit @ acoustic dt: "
        f"{'failed at step ' + str(fail['step']) if fail['blew_up'] else 'survived'}"
        f" ({fail['how']})"
    )
    exp, stg = report["explicit_limited"], report["strang"]
    print(
        f"explicit @ dt={exp['dt_min']:.2e}: {exp['steps']} steps, "
        f"{exp['seconds']:.1f}s  (|lambda| = {exp['lambda_max']:.2e})"
    )
    print(f"strang   @ dt={report['dt_acoustic']:.2e}: {stg['steps']} steps, "
          f"{stg['seconds']:.1f}s")
    print(
        f"speedup {report['speedup']:.2f}x, peak-T agreement "
        f"{report['peak_t_rel_diff']:.2%}, explicit hash "
        f"{'OK' if report['explicit_hash_ok'] else 'MOVED'}"
    )
    if args.check_regression:
        return check_regression(report, args.baseline)
    with open(args.output, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
