"""RHS engine benchmark + regression harness.

Times one full right-hand-side evaluation (thermo + transport + fluxes +
chemistry) for both RHS engines — ``naive`` (one derivative sweep per
variable/direction, allocating temporaries) and ``batched`` (fused
stacked sweeps over a workspace arena) — across Euler, viscous, and
reacting cases in 1/2/3 dimensions, and reports ns/point/evaluation.

Results land in ``BENCH_rhs.json``. A committed baseline of the same
file gates CI: ``--check-regression`` fails when any case's
batched-over-naive speedup ratio drops more than 20 % below the
baseline ratio (ratios are machine-portable where absolute times are
not), or when the headline 3-D reacting H2 case falls under the hard
2x floor.

Beyond the engine comparison, ``--backends`` times the batched engine
under each requested array backend (``numpy``, ``numba``)
with the same interleaved-minima protocol, reporting a
``speedup_vs_reference`` column (reference = the NumPy batched engine).
Backends whose optional package is absent are recorded under
``backend_skipped`` with the reason instead of silently vanishing.
``--check-regression`` additionally enforces that every *measured*
accelerated backend beats the reference on the headline case.

Usage::

    python benchmarks/bench_rhs.py                   # measure, write JSON
    python benchmarks/bench_rhs.py --quick           # fewer repeats
    python benchmarks/bench_rhs.py --backends all    # + per-backend sweep
    python benchmarks/bench_rhs.py --check-regression [--baseline PATH]

Measurement honesty: each timed evaluation uses the next of several
pre-built perturbed state buffers, so the batched engine's per-buffer
property memoization never short-circuits a timed call.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.backend import BACKEND_NAMES, backend_skip_reason  # noqa: E402
from repro.chemistry import ch4_onestep, h2_li2004  # noqa: E402
from repro.core.grid import Grid  # noqa: E402
from repro.core.rhs import CompressibleRHS  # noqa: E402
from repro.core.state import State  # noqa: E402
from repro.transport import MixtureAveragedTransport  # noqa: E402

#: default location of the committed baseline / output
DEFAULT_JSON = os.path.join(os.path.dirname(__file__), "..", "BENCH_rhs.json")

#: relative slack on per-case speedup ratios before CI fails
REGRESSION_TOLERANCE = 0.20

#: the acceptance-criterion case and its hard speedup floor
HEADLINE_CASE = "react_h2_3d"
HEADLINE_FLOOR = 2.0

#: every measured accelerated backend must at least match the NumPy
#: batched reference on the headline case
BACKEND_HEADLINE_FLOOR = 1.0

#: number of distinct state buffers cycled through the timed loop
N_BUFFERS = 3


def _cases():
    """Benchmark case table: name -> (mech factory, shape, viscous, reacting)."""
    return {
        "euler_h2_1d": (h2_li2004, (2048,), False, False),
        "euler_h2_2d": (h2_li2004, (96, 96), False, False),
        "euler_h2_3d": (h2_li2004, (32, 32, 32), False, False),
        "viscous_h2_3d": (h2_li2004, (24, 24, 24), True, False),
        "react_h2_2d": (h2_li2004, (64, 64), True, True),
        # headline: a 64^3 block is a realistic per-node working set for
        # the paper's DNS runs — at this size the naive engine's
        # allocator traffic (fresh multi-MB temporaries per sweep) is at
        # its honest worst
        HEADLINE_CASE: (h2_li2004, (64, 64, 64), True, True),
        "react_ch4_3d": (ch4_onestep, (32, 32, 32), True, True),
    }


def _make_states(mech, shape, n_buffers, seed=12):
    """Perturbed near-uniform reacting states (distinct buffers).

    The box is periodic in every direction — the turbulence-in-a-box
    configuration of the paper's DNS runs. Buffers are small mutual
    perturbations of one base field (consecutive RK stages in a real run
    are temporally close), so the Newton temperature solve converges from
    its warm guess as it does in steady state, while each buffer is still
    a distinct array that defeats per-buffer property memoization.
    """
    rng = np.random.default_rng(seed)
    grid = Grid(shape, tuple(0.01 for _ in shape),
                periodic=(True,) * len(shape))
    S = grid.shape
    T0 = 1200.0 + 150.0 * rng.random(S)
    rho0 = 0.45 + 0.1 * rng.random(S)
    vel0 = [25.0 * (rng.random(S) - 0.5) for _ in shape]
    Y0 = rng.random((mech.n_species,) + S) + 0.1
    Y0 /= Y0.sum(axis=0)
    states = []
    for _ in range(n_buffers):
        T = T0 * (1.0 + 1e-4 * (rng.random(S) - 0.5))
        rho = rho0 * (1.0 + 1e-4 * (rng.random(S) - 0.5))
        vel = [v * (1.0 + 1e-4 * (rng.random(S) - 0.5)) for v in vel0]
        Y = Y0 * (1.0 + 1e-4 * (rng.random(Y0.shape) - 0.5))
        Y /= Y.sum(axis=0)
        states.append(State.from_primitive(mech, grid, rho, vel, T, Y))
    return grid, states


def _time_case(mech, states, viscous, reacting, repeats):
    """Best per-evaluation time for both engines, interleaved.

    Each evaluation is timed individually and the two engines alternate
    within every repeat, so background interference hits both the same
    way; the per-engine minimum is the statistic least sensitive to it.
    """
    rhs_n = CompressibleRHS(
        states[0],
        transport=MixtureAveragedTransport(mech) if viscous else None,
        reacting=reacting, engine="naive",
    )
    rhs_b = CompressibleRHS(
        states[0],
        transport=MixtureAveragedTransport(mech) if viscous else None,
        reacting=reacting, engine="batched",
    )
    buffers = [s.u for s in states]
    out = np.empty_like(buffers[0])
    # warm: workspace arena, Newton cache, numpy internals
    for u in buffers:
        rhs_n(0.0, u)
        rhs_b(0.0, u, out=out)
    best_n = best_b = np.inf
    for _ in range(repeats):
        for u in buffers:
            t0 = time.perf_counter()
            rhs_n(0.0, u)
            t1 = time.perf_counter()
            rhs_b(0.0, u, out=out)
            t2 = time.perf_counter()
            best_n = min(best_n, t1 - t0)
            best_b = min(best_b, t2 - t1)
    return best_n, best_b


def run_benchmarks(repeats):
    results = {}
    for name, (factory, shape, viscous, reacting) in _cases().items():
        mech = factory()
        grid, states = _make_states(mech, shape, N_BUFFERS)
        points = int(np.prod(shape))
        t_naive, t_batched = _time_case(mech, states, viscous, reacting, repeats)
        results[name] = {
            "shape": list(shape),
            "points": points,
            "n_species": mech.n_species,
            "viscous": viscous,
            "reacting": reacting,
            "naive_s_per_eval": t_naive,
            "batched_s_per_eval": t_batched,
            "naive_ns_per_point": 1e9 * t_naive / points,
            "batched_ns_per_point": 1e9 * t_batched / points,
            "speedup": t_naive / t_batched,
        }
        print(f"{name:16s} {str(shape):15s} naive {1e9*t_naive/points:9.1f} "
              f"ns/pt  batched {1e9*t_batched/points:9.1f} ns/pt  "
              f"speedup {t_naive/t_batched:5.2f}x")
    return results


def _time_backend_case(mech, states, viscous, reacting, repeats, backend):
    """Best per-evaluation time: NumPy-batched reference vs ``backend``.

    Same interleaved-minima protocol as the engine comparison so the
    speedup-vs-reference ratio is machine-portable.
    """

    def _build(be):
        return CompressibleRHS(
            states[0],
            transport=MixtureAveragedTransport(mech) if viscous else None,
            reacting=reacting, engine="batched", backend=be,
        )

    rhs_ref = _build("numpy")
    rhs_be = _build(backend)
    buffers = [s.u for s in states]
    out_ref = np.empty_like(buffers[0])
    out_be = np.empty_like(buffers[0])
    for u in buffers:  # warm: arenas, Newton caches, JIT compiles
        rhs_ref(0.0, u, out=out_ref)
        rhs_be(0.0, u, out=out_be)
    best_ref = best_be = np.inf
    for _ in range(repeats):
        for u in buffers:
            t0 = time.perf_counter()
            rhs_ref(0.0, u, out=out_ref)
            t1 = time.perf_counter()
            rhs_be(0.0, u, out=out_be)
            t2 = time.perf_counter()
            best_ref = min(best_ref, t1 - t0)
            best_be = min(best_be, t2 - t1)
    return best_ref, best_be


def run_backend_benchmarks(repeats, backend_names, engine_cases):
    """Per-backend batched-engine timings + skip reasons.

    ``engine_cases`` supplies the already-measured NumPy numbers, so the
    reference section costs nothing extra; accelerated backends re-time
    the reference interleaved for an honest on-machine ratio.
    """
    backends = {}
    skipped = {}
    for bname in backend_names:
        reason = backend_skip_reason(bname)
        if reason is not None:
            skipped[bname] = reason
            print(f"backend {bname:8s} skipped: {reason}")
            continue
        cases = {}
        if bname == "numpy":
            for cname, c in engine_cases.items():
                cases[cname] = {
                    "s_per_eval": c["batched_s_per_eval"],
                    "ns_per_point": c["batched_ns_per_point"],
                    "speedup_vs_reference": 1.0,
                }
            backends[bname] = {"reference": True, "cases": cases}
            continue
        for cname, (factory, shape, viscous, reacting) in _cases().items():
            mech = factory()
            grid, states = _make_states(mech, shape, N_BUFFERS)
            points = int(np.prod(shape))
            t_ref, t_be = _time_backend_case(
                mech, states, viscous, reacting, repeats, bname
            )
            cases[cname] = {
                "s_per_eval": t_be,
                "ns_per_point": 1e9 * t_be / points,
                "reference_s_per_eval": t_ref,
                "speedup_vs_reference": t_ref / t_be,
            }
            print(f"backend {bname:8s} {cname:16s} {1e9*t_be/points:9.1f} "
                  f"ns/pt  vs reference {t_ref/t_be:5.2f}x")
        backends[bname] = {"reference": False, "cases": cases}
    return backends, skipped


def check_regression(current, baseline_path, backends=None):
    """Compare speedup ratios against the committed baseline; return failures."""
    with open(baseline_path) as f:
        baseline = json.load(f)
    failures = []
    for name, cur in current.items():
        base = baseline.get("cases", {}).get(name)
        if base is None:
            print(f"  {name}: no baseline entry (new case, skipped)")
            continue
        floor = base["speedup"] * (1.0 - REGRESSION_TOLERANCE)
        status = "ok" if cur["speedup"] >= floor else "REGRESSED"
        print(f"  {name}: speedup {cur['speedup']:.2f}x vs baseline "
              f"{base['speedup']:.2f}x (floor {floor:.2f}x) {status}")
        if cur["speedup"] < floor:
            failures.append(
                f"{name}: speedup {cur['speedup']:.2f}x fell below "
                f"{floor:.2f}x (baseline {base['speedup']:.2f}x - "
                f"{100*REGRESSION_TOLERANCE:.0f}%)"
            )
    head = current.get(HEADLINE_CASE)
    if head is not None and head["speedup"] < HEADLINE_FLOOR:
        failures.append(
            f"{HEADLINE_CASE}: speedup {head['speedup']:.2f}x is under the "
            f"hard {HEADLINE_FLOOR:.1f}x acceptance floor"
        )
    # per-backend headline gates: every accelerated backend actually
    # measured in this run must at least match the NumPy reference
    for bname, bdata in (backends or {}).items():
        if bdata.get("reference"):
            continue
        bhead = bdata["cases"].get(HEADLINE_CASE)
        if bhead is None:
            continue
        ratio = bhead["speedup_vs_reference"]
        status = "ok" if ratio >= BACKEND_HEADLINE_FLOOR else "REGRESSED"
        print(f"  backend {bname} {HEADLINE_CASE}: {ratio:.2f}x vs "
              f"reference (floor {BACKEND_HEADLINE_FLOOR:.1f}x) {status}")
        if ratio < BACKEND_HEADLINE_FLOOR:
            failures.append(
                f"backend {bname}: {HEADLINE_CASE} runs at {ratio:.2f}x the "
                f"NumPy reference, under the {BACKEND_HEADLINE_FLOOR:.1f}x floor"
            )
    return failures


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="fewer timing repeats (CI-friendly)")
    ap.add_argument("--repeats", type=int, default=None,
                    help="timing repeats per engine/case (default 6, quick 3)")
    ap.add_argument("--out", default=DEFAULT_JSON,
                    help="where to write the results JSON")
    ap.add_argument("--baseline", default=DEFAULT_JSON,
                    help="baseline JSON for --check-regression")
    ap.add_argument("--check-regression", action="store_true",
                    help="fail (exit 1) on >20%% speedup regression vs baseline")
    ap.add_argument("--backends", default="numpy",
                    help="comma-separated backend names to sweep, or 'all' "
                         "(default: numpy; unavailable backends are recorded "
                         "as skipped with the reason)")
    args = ap.parse_args(argv)

    repeats = args.repeats or (3 if args.quick else 6)
    cases = run_benchmarks(repeats)
    backend_names = (
        list(BACKEND_NAMES) if args.backends.strip() == "all"
        else [b.strip() for b in args.backends.split(",") if b.strip()]
    )
    backends, backend_skipped = run_backend_benchmarks(
        repeats, backend_names, cases
    )
    payload = {
        "meta": {
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "repeats": repeats,
            "n_buffers": N_BUFFERS,
            "numpy": np.__version__,
            "python": sys.version.split()[0],
        },
        "cases": cases,
        "backends": backends,
        "backend_skipped": backend_skipped,
    }
    if args.check_regression:
        # never clobber the baseline with the measurement being judged
        out = args.out
        if os.path.abspath(out) == os.path.abspath(args.baseline):
            out = os.path.join(os.path.dirname(__file__), "results",
                               "BENCH_rhs_current.json")
            os.makedirs(os.path.dirname(out), exist_ok=True)
    else:
        out = args.out
    with open(out, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote {out}")

    if args.check_regression:
        print("regression check:")
        failures = check_regression(cases, args.baseline, backends=backends)
        if failures:
            for msg in failures:
                print(f"FAIL: {msg}", file=sys.stderr)
            return 1
        print("regression check passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
