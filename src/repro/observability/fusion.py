"""Cross-rank profile fusion: per-rank telemetry into Fig 2 / Fig 3 views.

The paper's TAU methodology reduces thousands of per-rank profiles to
per-kernel statistics (Fig 2) and a load-imbalance story (Fig 3). This
module does the same with live data: every rank serializes its
``Telemetry.snapshot()`` and ships it over the transport to a root rank,
which fuses them into a :class:`FusedProfile` — per-kernel
min/median/max/mean exclusive times plus the max/mean imbalance factor
(the same statistic :func:`repro.perfmodel.loadbalance.chemistry_imbalance`
computes), so the ``chemlb`` speedups can be validated from measured
rank profiles rather than the cost model.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from repro.perfmodel.loadbalance import chemistry_imbalance

__all__ = [
    "FUSION_TAG",
    "FusedKernelRow",
    "FusedProfile",
    "collect_snapshot_dicts",
    "fuse_profiles",
]

#: message tag for snapshot shipping (off the halo/chemlb tag ranges)
FUSION_TAG = 9102


def collect_snapshot_dicts(world, snapshots, root: int = 0,
                           telemetry=None) -> list:
    """Gather per-rank snapshot *dicts* at ``root`` over the transport.

    The transport-agnostic core of profile fusion: callers that cannot
    reach live telemetry backends (rank programs in worker processes)
    obtain plain snapshot dicts through the execution plane and ship
    them here. Non-root ranks encode their snapshot as JSON bytes and
    ``Send`` to the root, which receives them in rank order — the
    reduction pattern a real TAU profile merge runs at job end.
    Returns the per-rank snapshot dicts (indexed by rank). Message
    traffic lands in the world's message log and, when a recording
    ``telemetry`` is given, in its ``fusion.*`` counters under a
    ``PROFILE_FUSION`` span.
    """
    if len(snapshots) != world.size:
        raise ValueError(
            f"need one snapshot per rank ({world.size}), got {len(snapshots)}"
        )
    from repro.telemetry import resolve as resolve_telemetry

    tel = telemetry if telemetry is not None else resolve_telemetry(None)
    payloads = [
        json.dumps(snapshots[rank], sort_keys=True).encode()
        for rank in range(world.size)
    ]
    out = []
    with tel.span("PROFILE_FUSION"):
        raw = world.gather_bytes(payloads, root=root, tag=FUSION_TAG)
        for rank, payload in enumerate(raw):
            if rank != root:
                tel.counter("fusion.bytes").inc(len(payload))
                tel.counter("fusion.messages").inc()
            out.append(json.loads(payload.decode()))
    return out


@dataclass
class FusedKernelRow:
    """Per-kernel statistics across ranks (exclusive seconds)."""

    name: str
    per_rank: list = field(default_factory=list)
    calls: int = 0

    @property
    def tmin(self) -> float:
        return float(np.min(self.per_rank))

    @property
    def tmax(self) -> float:
        return float(np.max(self.per_rank))

    @property
    def tmean(self) -> float:
        return float(np.mean(self.per_rank))

    @property
    def tmedian(self) -> float:
        return float(np.median(self.per_rank))

    @property
    def imbalance(self) -> float:
        """max/mean — the Fig 3 bulk-synchronous penalty factor."""
        return chemistry_imbalance(self.per_rank)


class FusedProfile:
    """Fused cross-rank profile: the Fig 2 table with per-kernel imbalance."""

    def __init__(self, rows: dict, n_ranks: int):
        self.rows = rows  # name -> FusedKernelRow
        self.n_ranks = int(n_ranks)

    def __contains__(self, name: str) -> bool:
        return name in self.rows

    def kernels(self) -> list:
        """Kernel names, heaviest mean exclusive time first."""
        return sorted(self.rows, key=lambda k: (-self.rows[k].tmean, k))

    def loads(self, kernel: str) -> np.ndarray:
        """Per-rank exclusive seconds for one kernel."""
        return np.asarray(self.rows[kernel].per_rank, dtype=float)

    def imbalance(self, kernel: str) -> float:
        return self.rows[kernel].imbalance

    # -- rendering -------------------------------------------------------
    def table(self, title: str = "cross-rank fused profile") -> str:
        """The Fig 2-style per-kernel table with imbalance columns."""
        header = (
            f"{'kernel':<28s} {'calls':>8s} {'min[ms]':>10s} {'med[ms]':>10s} "
            f"{'max[ms]':>10s} {'mean[ms]':>10s} {'imb':>6s}"
        )
        rule = "-" * len(header)
        lines = [f"{title} ({self.n_ranks} ranks)", rule, header, rule]
        for name in self.kernels():
            row = self.rows[name]
            lines.append(
                f"{name:<28s} {row.calls:>8d} {row.tmin * 1e3:>10.4f} "
                f"{row.tmedian * 1e3:>10.4f} {row.tmax * 1e3:>10.4f} "
                f"{row.tmean * 1e3:>10.4f} {row.imbalance:>6.3f}"
            )
        lines.append(rule)
        return "\n".join(lines)

    def as_dict(self) -> dict:
        """Plain-data view (JSON-serializable), kernels sorted."""
        return {
            "n_ranks": self.n_ranks,
            "kernels": {
                name: {
                    "calls": row.calls,
                    "per_rank": [float(v) for v in row.per_rank],
                    "imbalance": row.imbalance,
                }
                for name, row in sorted(self.rows.items())
            },
        }


def _rank_exclusive(snapshot: dict) -> dict:
    """kernel -> (exclusive seconds, calls) for one rank snapshot."""
    return {name: (float(row["exclusive"]), int(row["count"]))
            for name, row in snapshot.get("spans", {}).items()}


def fuse_profiles(snapshots) -> FusedProfile:
    """Merge per-rank snapshot dicts into a :class:`FusedProfile`.

    Kernels absent on a rank contribute zero there (a rank that never
    entered REACTION really did spend 0 s in it — that asymmetry *is*
    the imbalance signal).
    """
    per_rank = [_rank_exclusive(s) for s in snapshots]
    names = sorted(set().union(*[set(p) for p in per_rank]) if per_rank else ())
    rows = {}
    for name in names:
        values = [p.get(name, (0.0, 0))[0] for p in per_rank]
        calls = sum(p.get(name, (0.0, 0))[1] for p in per_rank)
        rows[name] = FusedKernelRow(name=name, per_rank=values, calls=calls)
    return FusedProfile(rows, n_ranks=len(snapshots))
