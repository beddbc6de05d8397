"""Cross-rank profile fusion: per-rank telemetry into Fig 2 / Fig 3 views.

The paper's TAU methodology reduces thousands of per-rank profiles to
per-kernel statistics (Fig 2) and a load-imbalance story (Fig 3). This
module does the same with live data: :func:`fuse_profiles` merges the
per-rank ``Telemetry.snapshot()`` dicts a world's ranks return into a
:class:`FusedProfile` — per kernel, the exclusive seconds and calls of
every rank, and the max/mean imbalance factor
(:func:`repro.perfmodel.loadbalance.chemistry_imbalance`, the same
statistic), so the ``chemlb`` speedups can be validated from measured
rank profiles rather than the cost model.
"""

from __future__ import annotations

import numpy as np

from repro.perfmodel.loadbalance import chemistry_imbalance
from repro.telemetry.export import profile_report

__all__ = ["FusedProfile", "fuse_profiles"]

#: a kernel a rank never entered: it really spent 0 s there
_ABSENT = {"count": 0, "exclusive": 0.0, "inclusive": 0.0}


class FusedProfile:
    """Fused cross-rank profile: the Fig 2 table with per-kernel imbalance."""

    def __init__(self, rows: dict, n_ranks: int):
        self.rows = rows  # kernel -> one snapshot span row per rank
        self.n_ranks = int(n_ranks)

    def __contains__(self, name: str) -> bool:
        return name in self.rows

    def loads(self, kernel: str) -> np.ndarray:
        """Per-rank exclusive seconds for one kernel."""
        return np.array([row["exclusive"] for row in self.rows[kernel]])

    def imbalance(self, kernel: str) -> float:
        """max/mean — the Fig 3 bulk-synchronous penalty factor."""
        return chemistry_imbalance(self.loads(kernel))

    def profile_report(self, title: str = "cross-rank fused profile") -> str:
        """The Fig 2 table over the world: per kernel the mean exclusive
        and inclusive time of a rank, the calls of all ranks and the
        imbalance."""
        spans = {
            name: {"count": sum(row["count"] for row in rows),
                   "exclusive": float(np.mean(self.loads(name))),
                   "inclusive": float(np.mean([row["inclusive"]
                                               for row in rows])),
                   "imbalance": self.imbalance(name)}
            for name, rows in self.rows.items()
        }
        return profile_report(spans, f"{title} ({self.n_ranks} ranks)")


def fuse_profiles(snapshots) -> FusedProfile:
    """Merge per-rank snapshot dicts into a :class:`FusedProfile`.

    Kernels absent on a rank contribute zero there (a rank that never
    entered REACTION really did spend 0 s in it — that asymmetry *is*
    the imbalance signal).
    """
    spans = [s.get("spans", {}) for s in snapshots]
    names = sorted(set().union(*spans))
    return FusedProfile({name: [s.get(name, _ABSENT) for s in spans]
                         for name in names}, n_ranks=len(spans))
