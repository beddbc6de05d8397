"""Distributed-recovery overhead benchmark + regression gate.

Measures the cost of the run supervisor
(:func:`repro.resilience.supervisor.run_resilient`) on the
4-rank in-process H2/air hot-spot scenario the recovery test suite
uses:

* ``off`` dispatch — the supervisor with recovery disabled must be a
  plain ``solver.run``: its fixed dispatch cost is measured in
  *absolute* terms against a stub solver (whole-run wall-clock ratios
  cannot resolve a sub-microsecond branch against ~100 ms steps) and
  gated at < 1 % of a real step;
* coordinated checkpoint — wall time of one two-phase
  :class:`DistributedCheckpointRing` save (shards + verify + manifest),
  informational, expressed against the step time;
* recovery time-to-solution — a run with a seeded mid-run rank kill
  (``respawn`` policy, including checkpoint traffic, rollback, and
  replay) gated at < 4x the fault-free wall time of the same step
  count.

The committed gate also re-asserts the correctness contract: the
``off`` policy's final state is bitwise identical to an unsupervised
run, and the recovered run's final state is bitwise identical to the
fault-free one.

Results land in ``BENCH_recovery.json``.

Usage::

    python benchmarks/bench_recovery.py                 # measure, write JSON
    python benchmarks/bench_recovery.py --quick         # fewer steps/repeats
    python benchmarks/bench_recovery.py --check-regression [--baseline PATH]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.chemistry.mechanisms.builders import h2_li2004  # noqa: E402
from repro.core.grid import Grid  # noqa: E402
from repro.core.state import State  # noqa: E402
from repro.io import SimFileSystem, lustre  # noqa: E402
from repro.parallel.decomp import CartesianDecomposition  # noqa: E402
from repro.parallel.solver import ParallelPeriodicSolver  # noqa: E402
from repro.resilience.distributed import DistributedCheckpointRing  # noqa: E402
from repro.resilience.faults import FaultInjector  # noqa: E402
from repro.resilience.supervisor import run_resilient  # noqa: E402
from repro.transport import ConstantLewisTransport  # noqa: E402
from repro.util.constants import P_ATM  # noqa: E402

#: default location of the committed baseline / output
DEFAULT_JSON = os.path.join(
    os.path.dirname(__file__), "..", "BENCH_recovery.json"
)

#: acceptance ceiling: policy "off" may cost at most this much per step
OVERHEAD_CEILING = 0.01

#: acceptance ceiling: kill + rollback + replay vs fault-free wall time
TTS_CEILING = 4.0

N_RANKS = 4
DT = 2e-8


def build(policy="off", faults=None):
    mech = h2_li2004()
    grid = Grid((64,), (4e-3,), periodic=(True,))
    x = grid.coords[0]
    T = 900.0 + 500.0 * np.exp(-((x - 2e-3) ** 2) / (2 * (4e-4) ** 2))
    Y = np.zeros((mech.n_species,) + grid.shape)
    names = list(mech.species_names)
    Y[names.index("H2")] = 0.028
    Y[names.index("O2")] = 0.226
    Y[names.index("N2")] = 1.0 - 0.028 - 0.226
    rho = mech.density(P_ATM, T, Y)
    state = State.from_primitive(mech, grid, rho, [1.0], T, Y)
    decomp = CartesianDecomposition(grid.shape, (N_RANKS,),
                                    periodic=grid.periodic)
    from repro.parallel.comm import create_transport

    world = create_transport("inprocess", size=N_RANKS,
                             fault_injector=faults)
    solver = ParallelPeriodicSolver(
        mech, grid, decomp, world=world,
        transport=ConstantLewisTransport(mech), reacting=True,
        scheme="ck45", filter_alpha=0.2, parallel_recovery=policy,
    )
    solver._owns_world = True
    solver.set_state(state.u)
    return solver


class _StubSolver:
    """Counts steps; isolates the supervisor's dispatch machinery."""

    def __init__(self):
        self.step_count = 0

    def run(self, n_steps, dt, monitor_interval=0):
        for _ in range(n_steps):
            self.step_count += 1


def measure_off_dispatch_ns(iters=200_000, repeats=9):
    """Absolute per-step cost of the ``off``-policy dispatch, in ns.

    The off path must be a plain ``solver.run`` plus one policy check
    and a report object — nanoseconds per run, amortized over the
    steps. Measured against the bare loop on a stub solver so the
    signal is not buried under real RHS evaluations; min over repeats
    discards scheduler noise.
    """
    stub = _StubSolver()
    best_bare = best_sup = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        stub.run(iters, DT)
        best_bare = min(best_bare, (time.perf_counter() - t0) / iters)
        t0 = time.perf_counter()
        run_resilient(stub, None, iters, dt=DT, policy="off")
        best_sup = min(best_sup, (time.perf_counter() - t0) / iters)
    return max(best_sup - best_bare, 0.0) * 1e9


def measure_step_seconds(steps, repeats):
    """Best whole-step seconds of the unsupervised 4-rank scenario."""
    solver = build()
    try:
        solver.run(2, DT)  # lazy allocations + Newton warm start
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            solver.run(steps, DT)
            best = min(best, (time.perf_counter() - t0) / steps)
        return best
    finally:
        solver.close()


def measure_checkpoint_seconds(repeats):
    """Wall time of one coordinated two-phase checkpoint save."""
    solver = build()
    try:
        solver.run(2, DT)
        fs = SimFileSystem(lustre())
        ring = DistributedCheckpointRing(fs, prefix="bench")
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            ring.save(solver)
            best = min(best, time.perf_counter() - t0)
        return best
    finally:
        solver.close()


def measure_recovery(steps):
    """Fault-free vs kill-and-recover wall time + bitwise checks."""
    solver = build()
    try:
        t0 = time.perf_counter()
        solver.run(steps, DT)
        clean_wall = time.perf_counter() - t0
        u_ref = np.array(solver.gather_state(), copy=True)
    finally:
        solver.close()

    # off policy through the supervisor: must match bitwise
    solver = build(policy="off")
    try:
        run_resilient(solver, SimFileSystem(lustre()), steps, dt=DT,
                      policy="off")
        off_bitwise = bool(np.array_equal(solver.gather_state(), u_ref))
    finally:
        solver.close()

    # seeded kill mid-run, respawn policy (set_state and the baseline
    # checkpoint's pull are collective calls 1 and 2, a ck45 step with
    # its filter pass is 2 x 5 + 2 more, and a checkpoint pulls once)
    inj = FaultInjector(seed=7)
    inj.add("exec.call", mode="rank_failure", count=1,
            after=2 + 12 * (steps // 2) + steps // 4, rank=2)
    solver = build(policy="respawn", faults=inj)
    try:
        t0 = time.perf_counter()
        report = run_resilient(solver, SimFileSystem(lustre()), steps, dt=DT,
                               policy="respawn", checkpoint_interval=2)
        faulted_wall = time.perf_counter() - t0
        recovered_bitwise = bool(np.array_equal(solver.gather_state(), u_ref))
    finally:
        solver.close()
    return {
        "steps": steps,
        "clean_wall_seconds": clean_wall,
        "faulted_wall_seconds": faulted_wall,
        "time_to_solution_ratio": faulted_wall / clean_wall,
        "recoveries": report.recoveries,
        "replayed_steps": report.replayed_steps,
        "checkpoints_written": report.checkpoints_written,
        "off_policy_bitwise": off_bitwise,
        "recovered_bitwise": recovered_bitwise,
    }


def run(steps, repeats):
    dispatch_ns = measure_off_dispatch_ns()
    step_s = measure_step_seconds(steps, repeats)
    ckpt_s = measure_checkpoint_seconds(repeats)
    recovery = measure_recovery(steps)
    return {
        "case": "1-D H2/air hot spot, 64 cells, 4 in-process ranks, "
                f"ck45, dt {DT:g}, {steps}-step blocks x {repeats} "
                "rounds (min)",
        "steps": steps,
        "repeats": repeats,
        "off_dispatch_ns_per_step": dispatch_ns,
        "step_seconds": step_s,
        # the gated quantity: supervisor machinery against a real step
        "off_overhead_fraction": dispatch_ns * 1e-9 / step_s,
        "checkpoint_save_seconds": ckpt_s,
        "checkpoint_vs_step": ckpt_s / step_s,
        "recovery": recovery,
        "overhead_ceiling_off": OVERHEAD_CEILING,
        "tts_ceiling": TTS_CEILING,
    }


def check_regression(report, baseline_path):
    failures = []
    off = report["off_overhead_fraction"]
    if off >= OVERHEAD_CEILING:
        failures.append(
            f"off-policy dispatch {off:.3%} over the "
            f"{OVERHEAD_CEILING:.0%} ceiling"
        )
    rec = report["recovery"]
    if rec["time_to_solution_ratio"] >= TTS_CEILING:
        failures.append(
            f"recovery time-to-solution {rec['time_to_solution_ratio']:.2f}x "
            f"over the {TTS_CEILING:.0f}x ceiling"
        )
    if not rec["off_policy_bitwise"]:
        failures.append("off policy perturbed the solution (bitwise check)")
    if not rec["recovered_bitwise"]:
        failures.append("recovered run diverged from fault-free (bitwise)")
    if rec["recoveries"] < 1:
        failures.append("seeded kill did not trigger a recovery")
    if os.path.exists(baseline_path):
        with open(baseline_path) as fh:
            base = json.load(fh)
        committed = base["off_overhead_fraction"]
        if committed >= OVERHEAD_CEILING:
            failures.append(
                f"committed baseline off-policy overhead {committed:.3%} "
                f"over the ceiling"
            )
    else:
        failures.append(f"no committed baseline at {baseline_path}")
    for f in failures:
        print(f"REGRESSION: {f}")
    if not failures:
        print(
            f"recovery gate OK: off dispatch "
            f"{report['off_dispatch_ns_per_step']:.0f} ns/step = "
            f"{off:.4%} of a step (ceiling {OVERHEAD_CEILING:.0%}), "
            f"kill-and-recover {rec['time_to_solution_ratio']:.2f}x "
            f"fault-free (ceiling {TTS_CEILING:.0f}x), both bitwise"
        )
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--quick", action="store_true", help="fewer steps/repeats")
    ap.add_argument("--check-regression", action="store_true")
    ap.add_argument("--baseline", default=DEFAULT_JSON)
    ap.add_argument("--output", default=DEFAULT_JSON)
    args = ap.parse_args()
    steps, repeats = (4, 2) if args.quick else (6, 4)
    report = run(steps, repeats)
    rec = report["recovery"]
    print(
        f"off dispatch: {report['off_dispatch_ns_per_step']:.0f} ns/step "
        f"({report['off_overhead_fraction']:.4%} of a "
        f"{report['step_seconds'] * 1e3:.1f} ms step)"
    )
    print(
        f"coordinated checkpoint: "
        f"{report['checkpoint_save_seconds'] * 1e3:.2f} ms "
        f"({report['checkpoint_vs_step']:.2f} steps)"
    )
    print(
        f"kill-and-recover: {rec['faulted_wall_seconds']:.2f} s vs "
        f"{rec['clean_wall_seconds']:.2f} s clean "
        f"({rec['time_to_solution_ratio']:.2f}x, "
        f"{rec['recoveries']} recovery, {rec['replayed_steps']} replayed)"
    )
    print(f"bitwise off=={rec['off_policy_bitwise']}, "
          f"recovered=={rec['recovered_bitwise']}")
    if args.check_regression:
        return check_regression(report, args.baseline)
    with open(args.output, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
