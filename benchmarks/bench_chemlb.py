"""Chemistry load-balancing benchmark + regression gate.

Measures per-rank chemistry wall time on a skewed synthetic
flame-front case — a hot reactive strip concentrated in one rank's
subdomain, with the remaining ranks cold — for every balancing policy,
over a simulated 4-rank (2x2) decomposition.

Per-cell cost realism: the vectorized NumPy kinetics spends the same
time on every cell, unlike the per-cell stiff integrators of production
DNS codes whose iteration counts concentrate in the reaction zone. The
benchmark therefore hands the balancer a mechanism stand-in
(:class:`StiffKinetics`) whose cell-list kernel re-evaluates reactive
cells ``WORK_SPAN`` extra times (results discarded), which skews
measured wall time the way a stiff integrator would while leaving every
returned value bitwise unchanged. The balancer itself is
policy-identical with or without the emulation.

Results land in ``BENCH_chemlb.json``. The committed baseline gates CI:
``--check-regression`` fails when the best policy's max-rank chemistry
time reduction falls below the 25 % acceptance floor, or when the
bitwise-equality check against ``off`` fails.

Usage::

    python benchmarks/bench_chemlb.py                   # measure, write JSON
    python benchmarks/bench_chemlb.py --quick           # fewer repeats
    python benchmarks/bench_chemlb.py --check-regression [--baseline PATH]
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.chemistry import h2_li2004  # noqa: E402
from repro.parallel import InProcessTransport  # noqa: E402
from repro.parallel.chemlb import CellCostModel, ChemistryLoadBalancer  # noqa: E402

#: default location of the committed baseline / output
DEFAULT_JSON = os.path.join(os.path.dirname(__file__), "..", "BENCH_chemlb.json")

#: acceptance floor: max-rank chemistry time reduced by at least this
REDUCTION_FLOOR = 0.25

#: simulated ranks (2x2 decomposition of the flame-front box)
RANKS = 4

#: cells per rank: large enough that per-cell kinetics work dominates
#: the ~1 ms fixed Python cost of a batch evaluation (~1.1 us/cell)
CELLS_PER_RANK = 8192

#: stiffness-work emulation: reactive cells cost 1 + WORK_SPAN evaluations
WORK_SPAN = 9

#: normalized-stiffness threshold separating reactive from cold cells
#: (cold radical-free H2/air at 300 K sits ~30 orders of magnitude down)
REACTIVE_CUT = 1e-6


class StiffKinetics:
    """The mechanism as the balancer sees it, with a stiff per-cell cost.

    Reaction-zone cells (normalized stiffness above ``REACTIVE_CUT``, the
    stiffness relative to the hottest cell of ``prims``) cost
    ``1 + WORK_SPAN`` evaluations, cold cells 1. The binary profile
    mirrors production stiff integrators, whose iteration counts jump
    inside the ignition kernel; it also matches :class:`BinaryCostModel`
    below, so the planner's modeled loads agree with the emulated wall
    time.
    """

    def __init__(self, mech, prims):
        self.mech = mech
        self.n_species = mech.n_species
        self.scale = max(
            float(np.abs(mech.production_rates_cells(rho, T, Y)).max())
            for rho, T, Y in prims
        )

    def production_rates_cells(self, rho, T, Y):
        wdot = self.mech.production_rates_cells(rho, T, Y)
        reactive = np.abs(wdot).max(axis=0) / self.scale > REACTIVE_CUT
        subset = np.flatnonzero(reactive)
        if subset.size:
            for _ in range(WORK_SPAN):
                self.mech.production_rates_cells(rho[subset], T[subset],
                                                 Y[:, subset])
        return wdot


class BinaryCostModel(CellCostModel):
    """Cost model consistent with :class:`StiffKinetics`."""

    def cell_costs(self, stiffness):
        s = np.asarray(stiffness, dtype=float)
        return 1.0 + self.reactive_extra * (s > REACTIVE_CUT)


def flame_front_prims(mech, ranks=RANKS, cells=CELLS_PER_RANK, seed=0):
    """Skewed per-rank (rho, T, Y): rank 1 holds the flame front."""
    rng = np.random.default_rng(seed)
    ns = mech.n_species
    prims = []
    for r in range(ranks):
        T = np.full(cells, 300.0) + 5.0 * rng.random(cells)
        rho = 0.4 + 0.05 * rng.random(cells)
        Y = np.zeros((ns, cells))
        Y[mech.index("H2")] = 0.028
        Y[mech.index("O2")] = 0.226
        if r == 1:
            T += 1300.0 + 300.0 * rng.random(cells)
            Y[mech.index("H")] = 0.002
            Y[mech.index("OH")] = 0.001
        Y[mech.index("N2")] = 1.0 - Y.sum(axis=0)
        prims.append((rho, T, Y))
    return prims


def measure_policy(mech, prims, policy, repeats):
    """Max/mean per-rank chemistry seconds and plan stats for a policy."""
    world = InProcessTransport(RANKS)
    lb = ChemistryLoadBalancer(
        StiffKinetics(mech, prims), world, policy=policy,
        cost_model=BinaryCostModel(reactive_extra=float(WORK_SPAN)),
    )
    lb.production_rates(prims)  # warmup builds the stiffness proxy
    lb.reset_timing()
    wdot = None
    for _ in range(repeats):
        wdot = lb.production_rates(prims)
    seconds = lb.rank_seconds / repeats
    plan = lb.last_plan
    return {
        "policy": policy,
        "rank_seconds": [float(s) for s in seconds],
        "max_rank_seconds": float(seconds.max()),
        "mean_rank_seconds": float(seconds.mean()),
        "time_imbalance": float(seconds.max() / seconds.mean()),
        "cells_shipped": int(plan.cells_shipped),
        "modeled_imbalance_before": float(
            plan.loads_before.max() / plan.loads_before.mean()
        ),
        "modeled_imbalance_after": float(
            plan.loads_after.max() / plan.loads_after.mean()
        ),
    }, wdot


def run(repeats: int) -> dict:
    mech = h2_li2004()
    prims = flame_front_prims(mech)
    results = {}
    wdots = {}
    for policy in ("off", "greedy", "pairwise-diffusion"):
        results[policy], wdots[policy] = measure_policy(
            mech, prims, policy, repeats
        )
    bitwise = {
        policy: bool(all(
            np.array_equal(a, b) for a, b in zip(wdots["off"], wdots[policy])
        ))
        for policy in ("greedy", "pairwise-diffusion")
    }
    t_off = results["off"]["max_rank_seconds"]
    reductions = {
        policy: 1.0 - results[policy]["max_rank_seconds"] / t_off
        for policy in ("greedy", "pairwise-diffusion")
    }
    best = max(reductions, key=reductions.get)
    return {
        "case": "synthetic flame front, 1 hot rank of "
                f"{RANKS}, {CELLS_PER_RANK} cells/rank, H2 (Li 2004)",
        "ranks": RANKS,
        "repeats": repeats,
        "policies": results,
        "bitwise_identical_to_off": bitwise,
        "max_rank_time_reduction": reductions,
        "best_policy": best,
        "best_reduction": reductions[best],
        "reduction_floor": REDUCTION_FLOOR,
    }


def check_regression(report: dict, baseline_path: str) -> int:
    failures = []
    if not all(report["bitwise_identical_to_off"].values()):
        failures.append(
            f"bitwise equality vs off broken: "
            f"{report['bitwise_identical_to_off']}"
        )
    if report["best_reduction"] < REDUCTION_FLOOR:
        failures.append(
            f"best max-rank time reduction {report['best_reduction']:.1%} "
            f"under the {REDUCTION_FLOOR:.0%} floor"
        )
    if os.path.exists(baseline_path):
        with open(baseline_path) as fh:
            base = json.load(fh)
        # the committed baseline must itself have met the floor
        if base.get("best_reduction", 0.0) < REDUCTION_FLOOR:
            failures.append(
                f"committed baseline best_reduction "
                f"{base.get('best_reduction')} under the floor"
            )
    else:
        failures.append(f"no committed baseline at {baseline_path}")
    for f in failures:
        print(f"REGRESSION: {f}")
    if not failures:
        print(
            f"chemlb gate OK: best policy {report['best_policy']} reduces "
            f"max-rank chemistry time {report['best_reduction']:.1%} "
            f"(floor {REDUCTION_FLOOR:.0%}), bitwise identical to off"
        )
    return 1 if failures else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--quick", action="store_true", help="fewer repeats")
    ap.add_argument("--check-regression", action="store_true")
    ap.add_argument("--baseline", default=DEFAULT_JSON)
    ap.add_argument("--output", default=DEFAULT_JSON)
    args = ap.parse_args()
    repeats = 2 if args.quick else 5
    report = run(repeats)
    for policy, res in report["policies"].items():
        print(
            f"{policy:20s} max {res['max_rank_seconds']*1e3:8.2f} ms  "
            f"imbalance {res['time_imbalance']:5.2f}  "
            f"shipped {res['cells_shipped']:4d}"
        )
    print(
        f"best: {report['best_policy']} "
        f"(-{report['best_reduction']:.1%} max-rank time), bitwise "
        f"{report['bitwise_identical_to_off']}"
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
