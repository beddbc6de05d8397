"""One workload in one fresh process: set-up, timed blocks, traced run.

Started by ``run.py`` (never imported by it: this module imports numpy
and the program). Three modes:

``setup``   build the workload and complete one step; report set-up time.
``e2e``     set-up, then timed blocks with all telemetry off, then the
            correctness checks; reports the end-to-end metrics.
``traced``  an untraced and a traced block through the same benchmark-
            owned step loop, then the per-layer probes on the live
            end-of-block state; reports the per-layer metrics.

The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import probes  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from repro.analysis import golden  # noqa: E402
from repro.perfmodel import s3d_kernel_inventory  # noqa: E402
from repro.perfmodel.machine import XT4  # noqa: E402
from repro.perfmodel.roofline import kernel_time, total_time  # noqa: E402
from repro.telemetry import NULL_TELEMETRY, Telemetry  # noqa: E402

#: blocks a timed run never goes below, whatever ``--seconds`` says
MIN_BLOCKS = 2
#: periodic domains must conserve total mass to this relative drift
MASS_DRIFT_TOL = 1e-8
#: the rank-parallel run must match its 1-rank run to this
ONE_RANK_TOL = 1e-12
#: steps replayed after a checkpoint restore
REPLAY_STEPS = 3
#: steps of the 1-rank base that are timed (the last ones)
BASE_TIMED_STEPS = 15

#: the paper's section 3 measurement, printed beside ours as context
PAPER_US_PER_POINT_STEP = {"XT4": 55.0, "XT3": 68.0}

#: the program's kernel spans that get a ledger line each
LEDGER_SPANS = ("THERMOPROPS", "REACTION_RATES", "DERIVATIVES", "INTEGRATE",
                "COMPUTESPECIESDIFFFLUX", "COMPUTEHEATFLUX", "FILTER",
                "CHEMISTRY_IMPLICIT", "HALO_EXCHANGE")


class Checks:
    """Attempted and failed operations, with the reason of each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list = []
        self.passed: list = []

    def ops(self, attempted: int, failed: int = 0, why: str = "") -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.failures.append(why)

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if ok:
            self.passed.append(name)
        else:
            self.failed += 1
            self.failures.append(f"{name}: {detail}")
        return ok


def quartiles(values) -> dict:
    """Median beside min, quartiles and the sample count."""
    values = list(values)
    out = {"n": len(values), "min": min(values), "max": max(values),
           "median": statistics.median(values)}
    if len(values) >= 2:
        q = statistics.quantiles(values, n=4, method="inclusive")
        out["q1"], out["q3"] = q[0], q[2]
    return out


def compare_summary(got, want, rtol: float, path: str = "") -> list:
    """Mismatches between two ``summarize_solver`` dicts. A field's
    min/max/mean are compared on the scale of the field, so a mean that
    cancels to ~0 is not held to a relative tolerance of itself."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{path}: keys differ"]
        if set(want) == {"min", "max", "mean"}:
            scale = max(abs(v) for v in want.values())
            return [f"{path}/{k}: {got[k]!r} != reference {want[k]!r}"
                    for k in want
                    if not abs(got[k] - want[k]) <= rtol * scale]
        out = []
        for key in want:
            out += compare_summary(got[key], want[key], rtol, f"{path}/{key}")
        return out
    if isinstance(want, float):
        if not abs(got - want) <= rtol * abs(want):
            return [f"{path}: {got!r} != reference {want!r}"]
        return []
    return [] if got == want else [f"{path}: {got!r} != reference {want!r}"]


def digest(u: np.ndarray) -> str:
    return hashlib.sha1(np.ascontiguousarray(u).tobytes()).hexdigest()


def peak_rss_mb() -> float:
    """High-water mark of this process plus that of its largest reaped
    child (the rank workers, once the solver is closed)."""
    kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
          + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def replay_difference(case) -> float:
    """Continue live, then restore the newest checkpoint and replay:
    the largest relative difference between the two futures of the same
    checkpointed state (0.0 = bitwise). Leaves the solver restored at
    that checkpoint. Must run before anything decodes primitives on the
    live state: that refreshes the Newton temperature cache, which the
    live future then starts from."""
    case.advance(REPLAY_STEPS)
    live = case.global_u()
    case.checkpoint_restore()
    case.advance(REPLAY_STEPS)
    diff = float(np.abs(case.global_u() - live).max() / np.abs(live).max())
    case.checkpoint_restore()
    return diff


def check_replay(wl, case, checks) -> float:
    diff = replay_difference(case)
    checks.check("restore_replay", diff <= wl.replay_rtol,
                 f"replay from the newest checkpoint differs by {diff:.3e} "
                 f"(allowed {wl.replay_rtol:g})")
    return diff


def set_up(wl, args, telemetry, **build_kwargs):
    """Build, snapshot the initial state, complete one step."""
    case = wl.build(wl.size(args.smoke), args.seed, telemetry,
                    **build_kwargs)
    try:
        case.save_initial()
        case.advance(1)
    except BaseException:
        case.close()
        raise
    return case


# ----------------------------------------------------------------------
# e2e mode
# ----------------------------------------------------------------------
def run_e2e(wl, args) -> dict:
    size = wl.size(args.smoke)
    checks = Checks()
    case = set_up(wl, args, NULL_TELEMETRY)
    setup_s = time.time() - args.t0
    sizes = size_record(wl, size, case)
    blocks = []
    summary = None
    try:
        case.reset()
        mass0 = case.solver.state.total_mass()
        begin = time.perf_counter()
        while True:
            case.reset()
            case.advance(size.warmup)
            sim0 = case.sim_time
            t0 = time.perf_counter()
            try:
                case.run_block(size.steps)
            except Exception as err:
                checks.ops(size.steps, size.steps,
                           f"block {len(blocks)}: {type(err).__name__}: {err}")
                traceback.print_exc()
                break
            wall = time.perf_counter() - t0
            checks.ops(size.steps)
            blocks.append({"wall_s": wall, "sim_s": case.sim_time - sim0,
                           "digest": digest(case.global_u())})
            spent = time.perf_counter() - begin
            if len(blocks) >= MIN_BLOCKS and spent + 0.5 * wall >= args.seconds:
                break
        if blocks and not checks.failed:
            u = case.global_u()
            checks.check("finite", bool(np.isfinite(u).all()),
                         "non-finite conserved state")
            checks.check("blocks_bitwise",
                         len({b["digest"] for b in blocks}) == 1,
                         "blocks reached different final states")
            checks.check("supervisor_clean", case.clean,
                         "the supervisor had to recover")
            if wl.periodic:
                drift = abs(case.solver.state.total_mass() - mass0) / mass0
                checks.check("mass_drift", drift <= MASS_DRIFT_TOL,
                             f"relative total-mass drift {drift:.3e}")
            if size.checkpoint_interval:
                check_replay(wl, case, checks)
            summary = golden.summarize_solver(case.solver, wl.species)
            check_reference(wl, args, summary, checks)
    finally:
        case.close()
    npts = case.grid.n_points
    per_block = {
        "us_per_point_step": [b["wall_s"] / size.steps / npts * 1e6
                              for b in blocks],
        "wall_s_per_sim_us": [b["wall_s"] / (b["sim_s"] * 1e6)
                              for b in blocks],
    }
    stats = {k: quartiles(v) for k, v in per_block.items() if v}
    metrics = {k: s["median"] for k, s in stats.items()}
    metrics["setup_s"] = setup_s
    metrics["peak_rss_mb"] = peak_rss_mb()
    return {"metrics": metrics, "stats": stats, "summary": summary,
            "checks": checks, "blocks": len(blocks), "sizes": sizes}


def check_reference(wl, args, summary, checks) -> None:
    """Seed 0 must reproduce the committed reference; for other seeds
    only the invariants apply."""
    if args.seed != 0:
        return
    suffix = ".smoke.json" if args.smoke else ".json"
    path = os.path.join(args.reference_dir, wl.name + suffix)
    if not os.path.exists(path):
        if not args.smoke:  # smoke references exist only in the self-test
            checks.check("reference", False, f"missing {path}")
        return
    with open(path) as fh:
        want = json.load(fh)
    bad = compare_summary(summary, want, wl.reference_rtol)
    checks.check("reference", not bad, "; ".join(bad[:4]))


def size_record(wl, size, case) -> dict:
    nvar = 2 + case.grid.ndim + case.mech.n_species - 1
    return {"grid": list(size.grid), "points": case.grid.n_points,
            "warmup_steps": size.warmup, "timed_steps": size.steps,
            "checkpoint_interval": size.checkpoint_interval,
            "ranks": wl.ranks,
            "conserved_stack_mb": 8.0 * nvar * case.grid.n_points / 1e6}


# ----------------------------------------------------------------------
# traced mode
# ----------------------------------------------------------------------
def telemetry_snapshots(case) -> tuple:
    """(driver snapshot, per-rank snapshots) of the program's telemetry."""
    ranks = []
    if case.ranks > 1:
        ranks = case.solver.world.call_all("telemetry_snapshot")
    return case.telemetry.snapshot(), ranks


def span_delta(after: dict, before: dict, field: str) -> dict:
    """``field`` of every span that was entered between two snapshots."""
    base = before.get("spans", {})
    zero = {"count": 0, field: 0}
    return {name: row[field] - base.get(name, zero)[field]
            for name, row in after.get("spans", {}).items()
            if row["count"] > base.get(name, zero)["count"]}


def counter_delta(after: dict, before: dict) -> dict:
    base = before.get("metrics", {}).get("counters", {})
    return {k: v - base.get(k, 0.0)
            for k, v in after.get("metrics", {}).get("counters", {}).items()}


def ledger(driver_excl: dict, rank_excl: list, wall_s: float,
           expected) -> tuple:
    """Shares of the block's wall time by program span (self time).

    On a rank-parallel run a kernel's share is its mean over the ranks,
    and that mean is taken out of the driver's INTEGRATE self time, which
    covers the wait for the ranks: what stays in INTEGRATE is the RK
    update, the IPC and the wait for the slowest rank. Returns
    ``(metrics, missing)``; a span in ``expected`` that the program did
    not emit is *missing* (None), never a silent zero.
    """
    merged = dict(driver_excl)
    if rank_excl:
        kernels: dict = {}
        for excl in rank_excl:
            for name, v in excl.items():
                kernels[name] = kernels.get(name, 0.0) + v / len(rank_excl)
        in_rhs = sum(v for name, v in kernels.items() if name != "FILTER")
        if "INTEGRATE" in merged:
            merged["INTEGRATE"] -= in_rhs
        for name, v in kernels.items():
            merged[name] = merged.get(name, 0.0) + v
    shares = {name: v / wall_s for name, v in merged.items()}
    out = {f"ledger.share.{name}": shares.get(name) for name in LEDGER_SPANS}
    missing = [f"ledger.share.{name}" for name in LEDGER_SPANS
               if name in expected and name not in shares]
    out["ledger.share.OTHER"] = sum(
        v for name, v in shares.items() if name not in LEDGER_SPANS)
    out["ledger.untracked_frac"] = 1.0 - sum(shares.values())
    return out, missing


def perfmodel_shares() -> dict:
    """Roofline share of each inventory kernel on the paper's XT4."""
    inventory = s3d_kernel_inventory()
    total = total_time(inventory, XT4)
    return {k.name: kernel_time(k, XT4) / total for k in inventory}


def loop_blocks(case, size, n_blocks: int, rec) -> tuple:
    """``n_blocks`` blocks through the step loop: (block walls, steps)."""
    walls, step_s = [], []
    for _ in range(n_blocks):
        case.reset()
        case.advance(size.warmup)
        t0 = time.perf_counter()
        step_s += case.step_loop(size.steps, rec)
        walls.append(time.perf_counter() - t0)
    return walls, step_s


def run_traced(wl, args) -> dict:
    size = wl.size(args.smoke)
    checks = Checks()
    rec = spans.SpanRecorder(wl.name)
    prober = probes.Prober(rec, budget_s=args.seconds / 40.0)
    parallel = wl.ranks > 1
    # every declared per-layer metric, None until measured: a metric
    # that does not apply to this workload stays None
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        m: dict = dict.fromkeys(x["name"] for x in json.load(fh)["per_layer"])
    extra: dict = {}

    # -- untraced, traced, untraced: blocks through the same loop --------
    # Both solvers are alive at once (idle rank workers cost no CPU). A
    # process runs its first seconds ~5 % slow, so one untraced block is
    # discarded, and the traced block sits between its two base blocks.
    tel = Telemetry(tracing=False)
    build_kwargs = {"rank_telemetry": True} if parallel else {}
    base = set_up(wl, args, NULL_TELEMETRY)
    sizes = size_record(wl, size, base)
    null = spans.NullRecorder()
    try:
        case = set_up(wl, args, tel, **build_kwargs)
    except BaseException:
        base.close()
        raise
    try:
        try:
            off_walls, off_steps = loop_blocks(base, size, 2, null)
            off_walls, off_steps = off_walls[1:], off_steps[size.steps:]
            case.reset()
            case.advance(size.warmup)
            before = telemetry_snapshots(case)
            log = case.solver.world.log if parallel else None
            msgs0, bytes0 = ((log.count, log.total_bytes) if parallel
                             else (0, 0))
            t0 = time.perf_counter()
            with rec.span("traced_block"):
                on_steps = case.step_loop(size.steps, rec)
            on_wall = time.perf_counter() - t0
            after = telemetry_snapshots(case)
            walls, steps = loop_blocks(base, size, 1, null)
            off_walls, off_steps = off_walls + walls, off_steps + steps
            checks.ops(2 * size.steps + len(off_steps))
            if parallel:
                world = base.solver.world
                m["parallel.exec.call_all_null_us"] = probes.scaled(
                    prober.time("exec_call_all_null",
                                lambda: world.call_all("telemetry_snapshot")),
                    1e6)
        finally:
            base.close()
        off_wall = statistics.mean(off_walls)
        final_u = case.global_u()
        checks.check("finite", bool(np.isfinite(final_u).all()),
                     "non-finite conserved state")

        driver_excl = span_delta(after[0], before[0], "exclusive")
        rank_excl = [span_delta(a, b, "exclusive")
                     for a, b in zip(after[1], before[1])]
        shares, missing = ledger(driver_excl, rank_excl, on_wall,
                                 wl.expected_spans)
        m.update(shares)
        model = perfmodel_shares()
        m["perfmodel.share_l1_residual"] = sum(
            abs((shares.get(f"ledger.share.{k}") or 0.0) - v)
            for k, v in model.items())
        extra["perfmodel_xt4_shares"] = model
        extra["paper_us_per_point_step"] = PAPER_US_PER_POINT_STEP

        count_metrics(case, size.steps, before, after, m)
        m["telemetry.traced_overhead_frac"] = on_wall / off_wall - 1.0
        if parallel:
            m["parallel.halo.messages_per_step"] = (
                (log.count - msgs0) / size.steps)
            m["parallel.halo.bytes_per_step"] = (
                (log.total_bytes - bytes0) / size.steps)
            halo = case.solver.halo
            extended = sum(int(np.prod(halo.extended_shape(r)))
                           for r in range(case.ranks))
            m["parallel.redundant_point_frac"] = (
                extended / case.grid.n_points - 1.0)
            m["parallel.step_ms_p75"] = statistics.quantiles(
                off_steps, n=4)[2] * 1e3
            locals_ = case.solver.locals
            m["parallel.halo.us_per_exchange"] = probes.scaled(
                prober.time("halo_exchange",
                            lambda: halo.exchange(locals_, leading_axes=1)),
                1e6)

        # -- probes on the live end-of-block state ----------------------
        objs = case.probe_objects()
        probes.kernel_probes(prober, objs, m)
        if "CHEMISTRY_IMPLICIT" in wl.expected_spans:
            half_dt = 0.5 * (case.sim_time / case.solver.step_count)
            probes.implicit_probes(prober, objs, half_dt, m)
        if not parallel:
            from repro.observability import for_solver

            health = for_solver(case.solver, "on")
            dt = case.solver.compute_dt()
            m["observability.on_step_us"] = probes.scaled(
                prober.time("health_on_step",
                            lambda: health.on_step(dt, 0.0)), 1e6)
        if size.checkpoint_interval:
            probes.checkpoint_probes(prober, case, m)
            m["resilience.restore_replay_bitwise"] = float(
                check_replay(wl, case, checks) == 0.0)
    finally:
        case.close()

    if parallel:
        parallel_extras(wl, args, size, final_u, off_steps, off_wall,
                        prober, checks, m)
    checks.ops(prober.calls, len(prober.failures),
               "; ".join(prober.failures))

    trace_path = None
    if args.trace_out:
        os.makedirs(args.trace_out, exist_ok=True)
        trace_path = os.path.join(
            args.trace_out, f"{wl.name}.seed{args.seed}.trace.json")
        with open(trace_path, "w") as fh:
            json.dump(spans.chrome_trace(rec.spans, wl.name), fh)
    extra["driver_self_time"] = spans.self_time_by_name(rec.spans)
    extra["probe_stats"] = prober.stats
    extra["trace_file"] = trace_path
    extra["untraced_block_wall_s"] = off_walls
    extra["traced_block_wall_s"] = on_wall
    return {"metrics": m, "missing": missing, "checks": checks,
            "extra": extra, "sizes": sizes}


def count_metrics(case, steps: int, before, after, m: dict) -> None:
    """Exact counts of the traced block, read from the program's own
    counters and spans (the ranks' own on a rank-parallel run)."""
    parallel = case.ranks > 1
    kernel_snaps = (list(zip(after[1], before[1])) if parallel
                    else [(after[0], before[0])])
    counts = [span_delta(a, b, "count") for a, b in kernel_snaps]
    counters = [counter_delta(a, b) for a, b in kernel_snaps]
    per_step = 1.0 / (len(kernel_snaps) * steps)
    m["core.rhs.evals_per_step"] = per_step * sum(
        c.get("COMPUTESPECIESDIFFFLUX", 0) for c in counts)
    m["core.workspace.allocations_per_step"] = per_step * sum(
        c.get("workspace.allocations", 0.0) for c in counters)
    m["core.rhs.props_cache_hits_per_step"] = per_step * sum(
        c.get("rhs.props_cache_hits", 0.0) for c in counters)
    m["core.rhs.bytes_allocated_last_eval"] = max(
        a["metrics"]["gauges"].get("rhs.bytes_allocated", 0.0)
        for a, _ in kernel_snaps)
    driver_counts = span_delta(after[0], before[0], "count")
    m["telemetry.spans_per_step"] = sum(
        sum(c.values()) for c in [driver_counts] + (counts if parallel else [])
    ) / steps
    dc = counter_delta(after[0], before[0])
    m.update(implicit_counts(dc, steps, case.grid.n_points))
    m["resilience.checkpoints_written"] = dc.get(
        "resilience.checkpoints_written")


def implicit_counts(dc: dict, steps: int, cells: int) -> dict:
    """``chem.implicit.*`` counters as per-cell / per-step ratios."""
    names = ("chemistry.implicit.substeps_per_cell",
             "chemistry.implicit.rejected_per_step",
             "chemistry.implicit.factorizations_per_cell",
             "chemistry.implicit.jacobian_reuse_frac")
    if "chem.implicit.substeps" not in dc:
        return dict.fromkeys(names)
    accepted = dc["chem.implicit.substeps"]
    rejected = dc.get("chem.implicit.rejected_steps", 0.0)
    halfsteps = 2 * steps * cells
    return dict(zip(names, (
        accepted / halfsteps,
        rejected / steps,
        dc.get("chem.implicit.factorizations", 0.0) / halfsteps,
        # useful / attempted: trial substeps that reused a Jacobian
        dc.get("chem.implicit.jacobian_reuses", 0.0)
        / max(accepted + rejected, 1.0),
    )))


def parallel_extras(wl, args, size, final_u, off_steps, off_wall, prober,
                    checks, m) -> None:
    """The 1-rank base of the same grid and one load-balanced block."""
    n_total = size.warmup + size.steps
    # 1-rank, in process: the base of speed-up and of the 1e-12 check
    base = wl.build(size, args.seed, NULL_TELEMETRY, proc_shape=(1, 1),
                    comm_transport="inprocess", observability="on")
    try:
        times = []
        for _ in range(n_total):
            t0 = time.perf_counter()
            base.solver.step(base.dt)
            times.append(time.perf_counter() - t0)
        checks.ops(n_total)
        u1 = base.global_u()
        err = float(np.abs(final_u - u1).max() / np.abs(u1).max())
        checks.check("matches_1rank", err <= ONE_RANK_TOL,
                     f"max relative difference {err:.3e}")
        health = base.solver.health
        m["observability.on_step_us"] = probes.scaled(
            prober.time("health_on_step",
                        lambda: health.on_step(base.dt, 0.0)), 1e6)
    finally:
        base.close()
    base_step = statistics.median(times[-BASE_TIMED_STEPS:])
    m["parallel.speedup_vs_1rank"] = base_step / statistics.median(off_steps)
    m["parallel.efficiency"] = m["parallel.speedup_vs_1rank"] / wl.ranks

    tel = Telemetry(tracing=False)
    lb = set_up(wl, args, tel, chem_load_balance="greedy")
    try:
        lb.reset()
        lb.advance(size.warmup)
        before = tel.snapshot()
        t0 = time.perf_counter()
        lb.step_loop(size.steps, spans.NullRecorder())
        lb_wall = time.perf_counter() - t0
        after = tel.snapshot()
        checks.ops(size.steps)
        checks.check("chemlb_bitwise",
                     bool(np.array_equal(lb.global_u(), final_u)),
                     "greedy load balancing changed the solution")
    finally:
        lb.close()
    dc = counter_delta(after, before)
    gauges = after["metrics"]["gauges"]
    m["parallel.chemlb.step_ratio_vs_off"] = lb_wall / off_wall
    m["parallel.chemlb.cells_shipped_per_step"] = (
        dc.get("chemlb.cells_shipped", 0.0) / size.steps)
    m["parallel.chemlb.imbalance_before"] = gauges.get("chemlb.imbalance")
    m["parallel.chemlb.imbalance_after"] = gauges.get(
        "chemlb.imbalance_after")
    m["parallel.chemlb.fallbacks"] = dc.get("chemlb.fallbacks", 0.0)


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--mode", required=True, choices=("setup", "e2e", "traced"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--t0", type=float, default=None,
                    help="epoch seconds just before this process was started")
    ap.add_argument("--reference-dir", default=os.path.join(HERE, "reference"))
    ap.add_argument("--trace-out", default=None)
    args = ap.parse_args(argv)
    if args.t0 is None:
        args.t0 = time.time()
    wl = workloads.WORKLOADS[args.workload]

    if args.mode == "setup":
        set_up(wl, args, NULL_TELEMETRY).close()
        result = {"metrics": {"setup_s": time.time() - args.t0}}
    else:
        result = (run_e2e if args.mode == "e2e" else run_traced)(wl, args)
        checks = result.pop("checks")
        result.update(attempted=checks.attempted, failed=checks.failed,
                      failures=checks.failures, passed=checks.passed)
    result["numpy"] = np.__version__
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
