#!/usr/bin/env python3
"""Alternating parent/change pairs of the end-to-end benchmark.

    python3 benchmarks/ab_pairs.py PARENT CHANGE [--pairs 10] [--seed0 100]
        [--workloads a,b] [--seconds 15] [--smoke] [--out pairs.json]

``PARENT`` and ``CHANGE`` are two checkouts of this repository (make the
parent with ``git clone`` + ``git checkout``). For every workload of the
change's ``BENCHMARK.json`` the tool makes ``--pairs`` pairs of

    python3 benchmarks/e2e/run.py --workload W --seed S --seconds T --trace 0

one run from each checkout with the same fresh seed, alternating which
side goes first — after one untimed smoke-size warm-up run per side and
workload that fills a bytecode cache of that side's own
(:func:`child_env`), so ``setup_s`` compares code, not who happened to
have a ``__pycache__`` — and prints per workload x end-to-end metric both
medians and quartiles, the pairs won, the regression check against the
benchmark's bound, and the verdict of the sandbox rule (choosing-metrics
section 8): a gain is claimable only when the change wins at least nine
tenths of at least ten pairs (ties count for neither side) *and* the
medians differ by more than the distance between the parent's own
quartiles.

This is the protocol PRs 12-14 ran by hand. It only spawns ``run.py`` of
each checkout and does arithmetic on their result lines; nothing here is
imported by the benchmark, and ``benchmarks/e2e/`` stays the instrument.
The exit code is non-zero when a run failed or was incorrect, or when a
metric regressed beyond its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

#: fraction of the pairs the change must win before a gain is claimable
WIN_FRACTION = 0.9
#: ... out of at least this many pairs
MIN_PAIRS = 10
RUN_TIMEOUT_S = 900


def quartiles(values) -> tuple:
    """``(q1, median, q3)``; the inclusive method, so that two values
    give their own range and one value gives itself three times."""
    values = sorted(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def compare(parent, change, better: str = "lower", bound: float | None = None) -> dict:
    """Statistics of paired runs ``parent[k]`` / ``change[k]``.

    ``wins`` counts pairs where the change reads strictly better, ties
    count for neither side. ``claimable`` is the section-8 rule;
    ``regressed`` says the change's median is worse than the parent's by
    more than ``bound`` (a fraction of the parent's median), and
    ``resolved`` is False when that question cannot be answered because
    the parent's own quartile spread is wider than the bound.
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same non-zero number of runs on both sides")
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', not {better!r}")
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (p - c) < 0 for p, c in zip(parent, change))
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    iqr = p_q3 - p_q1
    gain = sign * (p_med - c_med)  # > 0: the change's median is better
    out = {
        "pairs": len(parent), "wins": wins, "losses": losses,
        "ties": len(parent) - wins - losses,
        "parent": {"q1": p_q1, "median": p_med, "q3": p_q3},
        "change": {"q1": c_q1, "median": c_med, "q3": c_q3},
        "parent_iqr": iqr,
        "change_vs_parent": (c_med - p_med) / p_med if p_med else 0.0,
        "claimable": (len(parent) >= MIN_PAIRS
                      and wins >= WIN_FRACTION * len(parent) and gain > iqr),
    }
    if bound is not None:
        out["regressed"] = -gain > bound * abs(p_med)
        every_run_better = max(sign * c for c in change) < min(sign * p for p in parent)
        out["resolved"] = iqr <= bound * abs(p_med) or every_run_better
    return out


def child_env(pycache: str, base=None) -> dict:
    """The environment of one side's runs: the caller's, but with a
    bytecode cache of that side's own under ``pycache`` and bytecode
    writing on. ``setup_s`` times imports, so a checkout that has a
    ``__pycache__`` (the working tree the tests just ran in) would beat a
    fresh clone that has none by tens of percent for no reason in the
    code; this way both sides compile once, in their warm-up run, and
    every timed run of either reads a warm cache."""
    env = dict(os.environ if base is None else base)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = pycache
    return env


def run_once(checkout: str, workload: str, seed: int, seconds: float | None,
             smoke: bool, env=None) -> dict:
    """One untraced run of ``checkout``'s benchmark: its result line."""
    cmd = [sys.executable, os.path.join(checkout, "benchmarks", "e2e", "run.py"),
           "--workload", workload, "--seed", str(seed), "--trace", "0"]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S, env=env)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"correct": False, "attempted": 0, "failed": 0, "metrics": {},
                "error": proc.stderr[-2000:]}


def run_pairs(parent: str, change: str, workloads, pairs: int, seed0: int,
              seconds: float | None, smoke: bool, log=print) -> dict:
    """``{workload: [{"seed", "first", "parent": result, "change": result}]}``."""
    sides = {"parent": parent, "change": change}
    runs = {w: [] for w in workloads}
    with tempfile.TemporaryDirectory(prefix="ab_pairs_pycache_") as tmp:
        envs = {side: child_env(os.path.join(tmp, side)) for side in sides}
        # untimed: each side compiles its modules into its own cache
        for side in sides:
            for w in workloads:
                run_once(sides[side], w, seed0, seconds, True, env=envs[side])
            log(f"warm-up: {side} bytecode cache filled")
        for k in range(pairs):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            for w in workloads:
                pair = {"seed": seed0 + k, "first": order[0]}
                for side in order:
                    pair[side] = run_once(sides[side], w, seed0 + k, seconds,
                                          smoke, env=envs[side])
                runs[w].append(pair)
                log(f"pair {k + 1}/{pairs} {w} seed {seed0 + k} ({order[0]} first): " + "  ".join(
                    f"{side} correct={pair[side]['correct']} failed={pair[side]['failed']}"
                    for side in ("parent", "change")))
    return runs


def summarize(runs: dict, manifest: dict) -> dict:
    """``{workload: {"ok": bool, "metrics": {name: compare(...)}}}``."""
    summary = {}
    for w, pairs in runs.items():
        results = [p[side] for p in pairs for side in ("parent", "change")]
        ok = all(r["correct"] and r["failed"] == 0 for r in results)
        metrics = {}
        for spec in manifest["end_to_end"]:
            name = spec["name"]
            try:
                values = {side: [p[side]["metrics"][name]["value"] for p in pairs]
                          for side in ("parent", "change")}
            except KeyError:
                continue  # a failed run has no metrics; ``ok`` says so
            metrics[name] = compare(values["parent"], values["change"],
                                    spec["better"], spec.get("bound"))
            metrics[name]["unit"] = spec["unit"]
        summary[w] = {"ok": ok, "metrics": metrics}
    return summary


def render(summary: dict) -> str:
    lines = []
    for w, entry in summary.items():
        lines.append(f"{w}" + ("" if entry["ok"] else "   ** a run failed or was incorrect **"))
        lines.append(f"  {'metric':<20}{'parent q1/med/q3':>30}{'change q1/med/q3':>30}"
                     f"{'change':>9}{'won':>7}  verdict")
        for name, m in entry["metrics"].items():
            cells = ["/".join(f"{m[side][q]:.4g}" for q in ("q1", "median", "q3"))
                     for side in ("parent", "change")]
            if m.get("regressed"):
                verdict = "REGRESSED beyond bound"
            elif m["claimable"]:
                verdict = "gain claimable"
            elif not m.get("resolved", True):
                verdict = "unresolved (parent spread > bound)"
            else:
                verdict = "within bound"
            lines.append(f"  {name:<20}{cells[0]:>30}{cells[1]:>30}"
                         f"{100 * m['change_vs_parent']:>+8.1f}%"
                         f"{m['wins']:>4}/{m['pairs']:<2}  {verdict}")
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("parent", help="checkout of the parent commit")
    ap.add_argument("change", help="checkout of the change")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=100,
                    help="pair k runs both sides with seed seed0 + k")
    ap.add_argument("--workloads", default=None,
                    help="comma-separated subset (default: every workload)")
    ap.add_argument("--seconds", type=float, default=None,
                    help="run length (default: the benchmark's run_seconds)")
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes: checks the tool, never comparable")
    ap.add_argument("--out", default=None, help="write every run as JSON")
    args = ap.parse_args(argv)

    parent, change = (os.path.abspath(p) for p in (args.parent, args.change))
    with open(os.path.join(change, "BENCHMARK.json")) as fh:
        manifest = json.load(fh)
    known = [w["name"] for w in manifest["workloads"]]
    workloads = args.workloads.split(",") if args.workloads else known
    unknown = sorted(set(workloads) - set(known))
    if unknown:
        ap.error(f"unknown workloads {unknown}; choose from {known}")
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    runs = run_pairs(parent, change, workloads, args.pairs, args.seed0,
                     args.seconds, args.smoke)
    summary = summarize(runs, manifest)
    print()
    print(render(summary))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"parent": parent, "change": change, "runs": runs,
                       "summary": summary}, fh, indent=1)
    bad = [w for w, entry in summary.items() if not entry["ok"]]
    regressed = [f"{w}:{name}" for w, entry in summary.items()
                 for name, m in entry["metrics"].items() if m.get("regressed")]
    if bad:
        print(f"\nfailed or incorrect runs on: {', '.join(bad)}", file=sys.stderr)
    if regressed and not args.smoke:
        print(f"\nregressed beyond bound: {', '.join(regressed)}", file=sys.stderr)
    return 1 if bad or (regressed and not args.smoke) else 0


if __name__ == "__main__":
    sys.exit(main())
