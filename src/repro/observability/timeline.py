"""Stitched cross-rank timelines: Perfetto export + critical-path analysis.

The consumer side of :mod:`repro.telemetry.tracing`: per-rank trace
logs — the driver's own plus the worker snapshots shipped home at run
end — are :func:`stitch`-ed into one causally-ordered global event
stream (ids renumbered, message parents resolved across logs, ordered
by Lamport clock), and three views are built on top:

* :func:`export_chrome_trace` — Chrome-trace-event JSON (the format
  Perfetto and ``chrome://tracing`` load): one *pid* per rank, ``X``
  slices for spans, ``s``/``f`` flow arrows connecting each message's
  send to its receive. :func:`validate_chrome_trace` is the schema
  check CI runs on exported files.
* :func:`breakdown` / :func:`critical_path` — where each step's wall
  time actually went, per rank and along the longest dependency chain
  (compute vs. halo wait vs. chemlb shipping vs. chemistry cells), the
  per-rank wait attribution the paper's Fig 2/3 tables motivate.
* :func:`reconcile_chemistry` — cross-checks the trace-derived
  per-rank chemistry shares against an independent measurement (the
  :class:`~repro.observability.fusion.FusedProfile` imbalance table or
  the chemistry balancer's ``rank_seconds``), so the two observability
  paths vouch for each other.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

__all__ = [
    "breakdown",
    "chemistry_shares",
    "classify_kernel",
    "critical_path",
    "export_chrome_trace",
    "reconcile_chemistry",
    "stitch",
    "validate_chrome_trace",
]

#: span-name -> wall-time category used by breakdown/critical-path
_CATEGORIES = ("compute", "chemistry", "chemlb.ship", "halo", "exec.wait",
               "other")


def classify_kernel(name: str) -> str:
    """Wall-time category for a span name.

    ``CHEMLB`` itself is the shipping/orchestration overhead (its cell
    evaluations are separate ``CHEMISTRY_CELLS`` children); ``EXEC:*``
    is the driver waiting on the worker pool; halo machinery matches by
    substring; chemistry names (implicit, reaction, per-rank cells)
    collapse into one ``chemistry`` bucket; everything else is compute.
    """
    up = str(name).upper()
    if up == "CHEMLB":
        return "chemlb.ship"
    if "HALO" in up:
        return "halo"
    if up.startswith("EXEC:"):
        return "exec.wait"
    if "CHEM" in up or "REACTION" in up:
        return "chemistry"
    if "PROFILE_FUSION" in up:
        return "other"
    return "compute"


def _as_dict(event) -> dict:
    return event if isinstance(event, dict) else event.as_dict()


def _normalize_log(log) -> dict:
    """Accept a TraceLog, its snapshot dict, or a bare event list."""
    if hasattr(log, "snapshot"):
        log = log.snapshot()
    if isinstance(log, dict):
        return {"events": [_as_dict(e) for e in log.get("events", [])]}
    return {"events": [_as_dict(e) for e in log]}


def stitch(logs) -> list:
    """Combine per-process trace logs into one global event stream.

    Ids are renumbered to be globally unique; span parents resolve
    within their own log, message parents (recv -> send) across logs
    when the matching send was recorded in another process (the SPMD
    case). Events come back sorted causally — by Lamport clock, then
    rank, then per-rank sequence — so a linear walk respects every
    happens-before edge.
    """
    logs = [_normalize_log(l) for l in logs]
    remap: list = []
    next_id = 1
    for log in logs:
        m = {}
        for ev in log["events"]:
            m[int(ev["id"])] = next_id
            next_id += 1
        remap.append(m)
    # send events per log keyed by their original id, for cross-log
    # parent resolution of receives
    sends = [
        {int(e["id"]): e for e in log["events"] if e["kind"] == "send"}
        for log in logs
    ]
    out = []
    for li, log in enumerate(logs):
        for ev in log["events"]:
            ev = dict(ev)
            ev["attrs"] = dict(ev.get("attrs", {}))
            ev["id"] = remap[li][int(ev["id"])]
            parent = ev.get("parent")
            if parent is not None:
                parent = int(parent)
                if ev["kind"] == "recv":
                    src = ev["attrs"].get("src")
                    ev["parent"] = None
                    for lj in [li] + [j for j in range(len(logs)) if j != li]:
                        s = sends[lj].get(parent)
                        if s is not None and (src is None
                                              or int(s["rank"]) == int(src)):
                            ev["parent"] = remap[lj][parent]
                            break
                else:
                    ev["parent"] = remap[li].get(parent)
            out.append(ev)
    out.sort(key=lambda e: (e["logical"], e["rank"], e["seq"]))
    return out


# ---------------------------------------------------------------------------
# Chrome-trace-event / Perfetto export
# ---------------------------------------------------------------------------
def _pid(rank: int) -> int:
    """Chrome pids must be non-negative: driver lane (-1) maps to 0,
    rank r to r + 1."""
    return int(rank) + 1


def _pid_name(rank: int) -> str:
    return "driver" if int(rank) < 0 else f"rank {int(rank)}"


def export_chrome_trace(events, title: str = "repro trace") -> dict:
    """Chrome-trace-event JSON dict of a (stitched) event stream.

    One pid per rank (plus the driver lane), ``X`` complete slices for
    spans, and ``s`` -> ``f`` flow arrows binding each message's send
    event to its receive by the send's event id. Timestamps are
    microseconds relative to the earliest event; load the serialized
    dict at https://ui.perfetto.dev or chrome://tracing.
    """
    evs = [_as_dict(e) for e in events]
    t0 = min((e["start"] for e in evs), default=0.0)
    trace_events = []
    for rank in sorted({int(e["rank"]) for e in evs}):
        trace_events.append({
            "ph": "M", "name": "process_name", "pid": _pid(rank), "tid": 0,
            "args": {"name": _pid_name(rank)},
        })
        trace_events.append({
            "ph": "M", "name": "process_sort_index", "pid": _pid(rank),
            "tid": 0, "args": {"sort_index": _pid(rank)},
        })
    for e in evs:
        ts = (e["start"] - t0) * 1e6
        pid = _pid(e["rank"])
        args = {"id": e["id"], "logical": e["logical"]}
        args.update(e.get("attrs", {}))
        if e["kind"] == "span":
            trace_events.append({
                "ph": "X", "name": e["name"], "cat": "span", "pid": pid,
                "tid": 0, "ts": ts, "dur": e["duration"] * 1e6, "args": args,
            })
        elif e["kind"] == "send":
            trace_events.append({
                "ph": "i", "s": "p", "name": f"send {e['name']}",
                "cat": "msg", "pid": pid, "tid": 0, "ts": ts, "args": args,
            })
            trace_events.append({
                "ph": "s", "name": e["name"], "cat": "msg", "pid": pid,
                "tid": 0, "ts": ts, "id": e["id"],
            })
        elif e["kind"] == "recv":
            trace_events.append({
                "ph": "i", "s": "p", "name": f"recv {e['name']}",
                "cat": "msg", "pid": pid, "tid": 0, "ts": ts, "args": args,
            })
            if e.get("parent") is not None:
                trace_events.append({
                    "ph": "f", "bp": "e", "name": e["name"], "cat": "msg",
                    "pid": pid, "tid": 0, "ts": ts, "id": e["parent"],
                })
    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {"title": title},
    }


_REQUIRED_BY_PH = {
    "X": ("name", "pid", "tid", "ts", "dur"),
    "M": ("name", "pid", "args"),
    "s": ("name", "pid", "tid", "ts", "id"),
    "f": ("name", "pid", "tid", "ts", "id", "bp"),
    "i": ("name", "pid", "ts"),
}


def validate_chrome_trace(trace: dict) -> dict:
    """Schema check of an exported Chrome trace; raises ``ValueError``
    on any violation, returns summary statistics on success.

    Checks the container shape, per-phase required fields, numeric
    timestamps/durations, and that every flow-finish (``f``) event
    binds to an emitted flow-start (``s``) id.
    """
    if not isinstance(trace, dict) or "traceEvents" not in trace:
        raise ValueError("trace must be a dict with a 'traceEvents' list")
    events = trace["traceEvents"]
    if not isinstance(events, list):
        raise ValueError("'traceEvents' must be a list")
    flow_starts, flow_finishes = set(), []
    pids = set()
    counts: dict = defaultdict(int)
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            raise ValueError(f"traceEvents[{i}] is not an object")
        ph = ev.get("ph")
        if ph not in _REQUIRED_BY_PH:
            raise ValueError(f"traceEvents[{i}]: unknown phase {ph!r}")
        for key in _REQUIRED_BY_PH[ph]:
            if key not in ev:
                raise ValueError(
                    f"traceEvents[{i}] (ph={ph}): missing field {key!r}"
                )
        for key in ("ts", "dur"):
            if key in ev and not isinstance(ev[key], (int, float)):
                raise ValueError(
                    f"traceEvents[{i}]: field {key!r} must be numeric"
                )
        if ev.get("dur", 0) < 0:
            raise ValueError(f"traceEvents[{i}]: negative duration")
        if ph == "f" and ev.get("bp") != "e":
            raise ValueError(f"traceEvents[{i}]: flow finish must set bp='e'")
        if ph == "s":
            flow_starts.add(ev["id"])
        elif ph == "f":
            flow_finishes.append((i, ev["id"]))
        pids.add(ev["pid"])
        counts[ph] += 1
    for i, fid in flow_finishes:
        if fid not in flow_starts:
            raise ValueError(
                f"traceEvents[{i}]: flow finish id {fid} has no matching start"
            )
    return {
        "events": len(events),
        "by_phase": dict(counts),
        "pids": sorted(pids),
        "flows": len(flow_finishes),
    }


# ---------------------------------------------------------------------------
# wall-time attribution
# ---------------------------------------------------------------------------
def _span_exclusive(evs) -> dict:
    """Exclusive seconds per span event id (duration minus direct span
    children)."""
    child_sum: dict = defaultdict(float)
    for e in evs:
        if e["kind"] == "span" and e.get("parent") is not None:
            child_sum[e["parent"]] += e["duration"]
    return {
        e["id"]: max(e["duration"] - child_sum.get(e["id"], 0.0), 0.0)
        for e in evs if e["kind"] == "span"
    }


def breakdown(events) -> dict:
    """Per-rank wall-time attribution of a stitched event stream.

    Returns ``{"ranks": {rank: {category: seconds}}, "total":
    {category: seconds}}`` over exclusive span times, with categories
    from :func:`classify_kernel` (compute / chemistry / chemlb.ship /
    halo / exec.wait / other).
    """
    evs = [_as_dict(e) for e in events]
    exclusive = _span_exclusive(evs)
    ranks: dict = {}
    total: dict = defaultdict(float)
    for e in evs:
        if e["kind"] != "span":
            continue
        cat = classify_kernel(e["name"])
        sec = exclusive[e["id"]]
        ranks.setdefault(int(e["rank"]), defaultdict(float))[cat] += sec
        total[cat] += sec
    return {
        "ranks": {r: dict(cats) for r, cats in sorted(ranks.items())},
        "total": dict(total),
    }


def critical_path(events) -> dict:
    """Longest dependency chain through the stitched DAG.

    Edges: per-rank program order (consecutive events on one rank) and
    message edges (each receive depends on its matching send). Span
    costs are exclusive seconds so nested spans are not double-counted;
    message events cost nothing themselves — their effect is the
    cross-rank ordering they impose.

    Returns ``{"seconds", "steps", "by_category"}`` where ``steps``
    lists the chain's events (rank, name, kind, seconds) in causal
    order and ``by_category`` folds the chain's seconds through
    :func:`classify_kernel`.
    """
    evs = [_as_dict(e) for e in events]
    evs.sort(key=lambda e: (e["logical"], e["rank"], e["seq"]))
    exclusive = _span_exclusive(evs)
    best: dict = {}       # id -> (cumulative seconds, predecessor id)
    info: dict = {}
    last_on_rank: dict = {}
    for e in evs:
        cost = exclusive.get(e["id"], 0.0) if e["kind"] == "span" else 0.0
        candidates = []
        prev_rank = last_on_rank.get(int(e["rank"]))
        if prev_rank is not None:
            candidates.append(prev_rank)
        if e["kind"] == "recv" and e.get("parent") in best:
            candidates.append(e["parent"])
        prev = None
        base = 0.0
        for c in candidates:
            if best[c][0] >= base:
                base, prev = best[c][0], c
        best[e["id"]] = (base + cost, prev)
        info[e["id"]] = e
        last_on_rank[int(e["rank"])] = e["id"]
    if not best:
        return {"seconds": 0.0, "steps": [], "by_category": {}}
    tail = max(best, key=lambda i: best[i][0])
    chain = []
    node = tail
    while node is not None:
        e = info[node]
        cost = exclusive.get(e["id"], 0.0) if e["kind"] == "span" else 0.0
        chain.append({
            "rank": int(e["rank"]), "name": e["name"], "kind": e["kind"],
            "seconds": cost,
        })
        node = best[node][1]
    chain.reverse()
    by_cat: dict = defaultdict(float)
    for step in chain:
        if step["kind"] == "span" and step["seconds"] > 0:
            by_cat[classify_kernel(step["name"])] += step["seconds"]
    return {
        "seconds": best[tail][0],
        "steps": chain,
        "by_category": dict(by_cat),
    }


def chemistry_shares(events) -> dict:
    """Per-rank chemistry-cell seconds from the trace (the
    ``CHEMISTRY_CELLS`` spans the balancer and the Strang half-steps
    record on the *executing* rank's lane)."""
    shares: dict = defaultdict(float)
    for e in (_as_dict(x) for x in events):
        if e["kind"] == "span" and e["name"] == "CHEMISTRY_CELLS" \
                and int(e["rank"]) >= 0:
            shares[int(e["rank"])] += e["duration"]
    return dict(shares)


def reconcile_chemistry(events, rank_seconds) -> dict:
    """Cross-check trace-derived chemistry shares against an independent
    per-rank measurement.

    ``rank_seconds`` is the reference per-rank chemistry wall time —
    the chemistry balancer's measured ``rank_seconds`` or a
    :class:`~repro.observability.fusion.FusedProfile` row's loads.
    Both vectors are normalized to shares (fractions of their own
    totals) and compared; ``max_share_deviation`` is the largest
    absolute per-rank share difference, so "< 0.05" means the two
    instruments agree on the load-balance picture to within 5 points.
    """
    reference = np.asarray(rank_seconds, dtype=float)
    trace = chemistry_shares(events)
    traced = np.array([trace.get(r, 0.0) for r in range(reference.size)])

    def _shares(v):
        total = v.sum()
        return v / total if total > 0 else np.zeros_like(v)

    t_share, r_share = _shares(traced), _shares(reference)
    return {
        "trace_seconds": traced.tolist(),
        "reference_seconds": reference.tolist(),
        "trace_share": t_share.tolist(),
        "reference_share": r_share.tolist(),
        "max_share_deviation": float(np.abs(t_share - r_share).max())
        if reference.size else 0.0,
    }
