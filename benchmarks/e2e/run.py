#!/usr/bin/env python3
"""The step-cost ledger: the repository's one end-to-end benchmark.

    python3 benchmarks/e2e/run.py                      # every workload, both runs
    python3 benchmarks/e2e/run.py --workload NAME      # one workload, both runs
    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/e2e/run.py --aa                 # two sets of the same code
    python3 benchmarks/e2e/run.py --regen-reference [--force]

With ``--workload`` and ``--trace`` it makes one run and prints, as the
last line of standard output, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of an
untraced run (``--trace 0``) or the per-layer metrics of a traced run
(``--trace 1``). Names, units and bounds are those of ``BENCHMARK.json``
at the root of the checkout. The exit code is non-zero when a check
failed. See ``README.md`` beside this file.

This process only starts and reaps workers (``worker.py``), each a fresh
Python process, so set-up time and peak memory mean something.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
sys.path.insert(0, HERE)

import host  # noqa: E402

#: fresh-process set-ups per untraced run; ``setup_s`` is their median
SETUP_REPEATS = 3
#: a worker that runs longer than this is killed
WORKER_TIMEOUT_S = 170
#: end-to-end metrics that are wall-clock times (unresolved on a host
#: that cannot give the run its cores)
WALL_METRICS = ("setup_s", "us_per_point_step", "wall_s_per_sim_us")
SMOKE_SECONDS = 0.5


class WorkerFailed(RuntimeError):
    pass


def load_manifest() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def worker_env() -> tuple:
    """Environment of every worker: single-threaded BLAS unless the
    caller chose otherwise, and none of the program's ``REPRO_*``
    switches (they would change what a workload runs)."""
    env = dict(os.environ)
    for var in host.BLAS_THREAD_VARS:
        env.setdefault(var, "1")
    scrubbed = sorted(k for k in env if k.startswith("REPRO_"))
    for k in scrubbed:
        del env[k]
    return env, scrubbed


def run_process(cmd, env) -> str:
    """Run ``cmd`` to its end and return its stdout. On a time-out the
    worker is killed and reaped (its rank workers exit on the closed
    pipe) before the error propagates."""
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                          text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise WorkerFailed(f"{' '.join(cmd[1:])} exited with "
                           f"{proc.returncode}:\n{proc.stderr[-4000:]}")
    return proc.stdout


def spawn_worker(mode, args, env, extra=()) -> dict:
    cmd = [sys.executable, WORKER, "--workload", args.workload,
           "--mode", mode, "--seed", str(args.seed),
           "--seconds", repr(float(args.seconds)),
           "--reference-dir", args.reference_dir,
           "--t0", repr(time.time()), *extra]
    if args.smoke:
        cmd.append("--smoke")
    out = run_process(cmd, env)
    return json.loads(out.strip().splitlines()[-1])


def run_one(args, manifest) -> dict:
    """One run of one workload; returns its full record."""
    env, scrubbed = worker_env()
    stamp = host.stamp(ROOT, env)
    stamp["scrubbed_env"] = scrubbed
    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "smoke": bool(args.smoke),
              "seconds": args.seconds, "host": stamp}
    kind = "per_layer" if args.trace else "end_to_end"
    declared = {m["name"]: m for m in manifest[kind]}
    if args.trace:
        result = spawn_worker("traced", args, env,
                              ("--trace-out", args.trace_out))
    else:
        # one discarded import first, so no set-up pays a cold cache
        run_process([sys.executable, "-c",
                     f"import sys; sys.path.insert(0, {SRC!r}); "
                     "import repro"], env)
        setups = [spawn_worker("setup", args, env)["metrics"]["setup_s"]
                  for _ in range(SETUP_REPEATS - 1)]
        result = spawn_worker("e2e", args, env)
        setups.append(result["metrics"]["setup_s"])
        result["metrics"]["setup_s"] = statistics.median(setups)
        result["stats"]["setup_s"] = {
            "n": len(setups), "min": min(setups), "max": max(setups),
            "median": statistics.median(setups)}

    values = result.pop("metrics")
    failures = list(result.pop("failures"))
    unknown = sorted(set(values) - set(declared))
    absent = sorted(set(declared) - set(values))
    if unknown or absent:
        failures.append(f"metric names differ from BENCHMARK.json: "
                        f"not declared {unknown}, not measured {absent}")
    not_applicable = sorted(k for k, v in values.items() if v is None
                            and k not in result.get("missing", ()))
    record.update(result)
    record["host"]["numpy"] = result.get("numpy")
    record["not_applicable"] = not_applicable
    # the result line can only carry numbers: a metric that does not
    # apply to this workload reads 0 there and is listed in the record
    record["metrics"] = {
        name: {"value": float(values.get(name) or 0.0), "unit": m["unit"]}
        for name, m in declared.items()}
    failed = result["failed"] + (1 if unknown or absent else 0)
    record.update(correct=failed == 0, failed=failed,
                  attempted=max(1, result["attempted"]), failures=failures)
    flags = host.regime_flags(stamp, result["sizes"]["ranks"])
    record["flags"] = flags
    record["unresolved"] = ([n for n in WALL_METRICS if n in declared]
                            if flags else [])
    return record


def result_line(record: dict) -> str:
    return json.dumps({k: record[k] for k in
                       ("correct", "attempted", "failed", "metrics")})


def print_record(record: dict) -> None:
    kind = "traced run, per-layer" if record["trace"] else "untraced run, end-to-end"
    print(f"\n== {record['workload']}  seed {record['seed']}  ({kind})"
          f"{'  SMOKE: not comparable' if record['smoke'] else ''}")
    stats = record.get("stats", {})
    for name, m in record["metrics"].items():
        note = ""
        if name in record.get("not_applicable", ()):
            note = "  (not applicable to this workload)"
        elif name in record.get("missing", ()):
            note = "  MISSING: the program no longer emits this span"
        elif name in record.get("unresolved", ()):
            note = "  UNRESOLVED on this host: " + "; ".join(record["flags"])
        elif name in stats and "q1" in stats[name]:
            s = stats[name]
            note = (f"  [min {s['min']:.6g}  q1 {s['q1']:.6g}  "
                    f"q3 {s['q3']:.6g}  n={s['n']}]")
        print(f"  {name:<46s} {m['value']:>14.6g} {m['unit']:<8s}{note}")
    model = record.get("extra", {}).get("perfmodel_xt4_shares")
    if model:
        paper = record["extra"]["paper_us_per_point_step"]
        print(f"  measured share beside the perfmodel roofline share on XT4 "
              f"(paper: {paper['XT4']:g} us/point/step on XT4, "
              f"{paper['XT3']:g} on XT3):")
        for kernel, share in model.items():
            got = record["metrics"][f"ledger.share.{kernel}"]["value"]
            print(f"    {kernel:<26s} measured {got:6.3f}   model {share:6.3f}")
    print(f"  attempted {record['attempted']}  failed {record['failed']}  "
          f"correct {record['correct']}")
    for why in record.get("failures", ()):
        print(f"  FAILED: {why}")


def run_set(args, manifest, names, traces) -> list:
    records = []
    for name in names:
        for trace in traces:
            one = argparse.Namespace(**{**vars(args), "workload": name,
                                        "trace": trace})
            record = run_one(one, manifest)
            print_record(record)
            records.append(record)
    return records


def worse_by(a: float, b: float, better: str) -> float:
    """How much worse ``b`` is than ``a``, as a share of ``a``."""
    return (b - a) / a if better == "lower" else (a - b) / a


def run_aa(args, manifest, names) -> int:
    """Two full sets of untraced runs of the same code, compared."""
    first = run_set(args, manifest, names, (0,))
    second = run_set(args, manifest, names, (0,))
    print("\n== A/A: second set against the first, beside the bound")
    bad = 0
    for a, b in zip(first, second):
        for m in manifest["end_to_end"]:
            va = a["metrics"][m["name"]]["value"]
            vb = b["metrics"][m["name"]]["value"]
            diff = worse_by(va, vb, m["better"])
            over = diff > m["bound"]
            bad += over
            print(f"  {a['workload']:<24s} {m['name']:<20s} {va:>12.6g} "
                  f"{vb:>12.6g}  {diff:+8.2%}  bound {m['bound']:.0%}"
                  f"{'  EXCEEDED' if over else ''}")
        bad += (a["failed"] > 0) + (b["failed"] > 0)
    write_out(args, first + second)
    return 1 if bad else 0


def regen_reference(args, manifest, names) -> int:
    for name in names:
        path = os.path.join(args.reference_dir, name + ".json")
        if os.path.exists(path) and not args.force:
            print(f"refusing to overwrite {path} without --force")
            return 1
    for name in names:
        one = argparse.Namespace(**{**vars(args), "workload": name,
                                    "trace": 0, "seed": 0, "seconds": 0.0})
        record = run_one(one, manifest)
        other = [f for f in record["failures"] if not f.startswith("reference")]
        if other or record.get("summary") is None:
            print_record(record)
            return 1
        os.makedirs(args.reference_dir, exist_ok=True)
        path = os.path.join(args.reference_dir, name + ".json")
        with open(path, "w") as fh:
            json.dump(record["summary"], fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {path}")
    return 0


def write_out(args, records) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as fh:
        json.dump({"runs": records}, fh, indent=1)
    print(f"\nrecord written to {args.out}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", default=None)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="how long a run measures (default: run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=None)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes for the self-test; never comparable")
    ap.add_argument("--aa", action="store_true")
    ap.add_argument("--regen-reference", action="store_true")
    ap.add_argument("--force", action="store_true")
    ap.add_argument("--out", default=os.path.join(HERE, "out", "record.json"))
    ap.add_argument("--trace-out", default=os.path.join(HERE, "out"))
    ap.add_argument("--reference-dir",
                    default=os.path.join(HERE, "reference"))
    args = ap.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no program to measure: {SRC}/repro is missing",
              file=sys.stderr)
        return 2
    manifest = load_manifest()
    known = [w["name"] for w in manifest["workloads"]]
    if args.workload is not None and args.workload not in known:
        ap.error(f"unknown workload {args.workload!r}; choose from {known}")
    if args.seconds is None:
        args.seconds = (SMOKE_SECONDS if args.smoke
                        else float(manifest["run_seconds"]))
    names = [args.workload] if args.workload else known

    try:
        if args.regen_reference:
            return regen_reference(args, manifest, names)
        if args.aa:
            return run_aa(args, manifest, names)
        if args.workload is not None and args.trace is not None:
            record = run_one(args, manifest)
            print_record(record)
            print(result_line(record))
            return 0 if record["correct"] else 1
        records = run_set(args, manifest, names,
                          (0, 1) if args.trace is None else (args.trace,))
    except (WorkerFailed, subprocess.TimeoutExpired) as err:
        # a run that did not finish has no result to print
        print(f"run failed: {err}", file=sys.stderr)
        return 1
    write_out(args, records)
    return 0 if all(r["correct"] for r in records) else 1


if __name__ == "__main__":
    sys.exit(main())
