"""TAU-substitute profiler: per-rank, per-kernel exclusive times (Fig 2).

Fig 2 shows two equivalence classes of processes in a 6400-core hybrid
run: XT4-resident ranks spend longer in MPI_Wait (they finish their
memory-bound loops early and wait for XT3 ranks at the bulk-synchronous
communication points), while XT3 ranks spend that time in the
memory-intensive loops instead. Compute-bound kernels take identical
time in both classes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.perfmodel.kernels import s3d_kernel_inventory
from repro.perfmodel.machine import XT3, XT4, HybridSystem
from repro.perfmodel.roofline import kernel_time


@dataclass
class RankProfile:
    """Exclusive time per kernel for one (simulated) rank."""

    rank: int
    node_type: str
    exclusive: dict = field(default_factory=dict)

    @property
    def total(self) -> float:
        return sum(self.exclusive.values())


def profile_hybrid_run(n_cores: int, sample_ranks=8, seed=0):
    """Per-rank kernel breakdown for a hybrid allocation (Fig 2).

    Returns a list of :class:`RankProfile` (a sample of ranks from each
    node class plus per-class means). MPI_Wait on the fast class absorbs
    the slow class's surplus loop time; a small deterministic jitter
    models per-rank variation.
    """
    sys_ = HybridSystem()
    inv = s3d_kernel_inventory()
    xt4_cores, xt3_cores = sys_.allocation(n_cores)
    if xt3_cores == 0 or xt4_cores == 0:
        raise ValueError("a hybrid profile needs both node classes present")
    rng = np.random.default_rng(seed)

    def class_times(node):
        return {k.name: kernel_time(k, node) for k in inv}

    t3 = class_times(XT3)
    t4 = class_times(XT4)
    wait_xt4 = sum(t3.values()) - sum(t4.values())  # fast class waits
    profiles = []
    half = sample_ranks // 2
    for i in range(half):
        jitter = 1.0 + 0.01 * rng.standard_normal()
        exc = {name: v * jitter for name, v in t4.items()}
        exc["MPI_WAIT"] = wait_xt4 * (1.0 + 0.05 * rng.standard_normal())
        profiles.append(RankProfile(rank=i, node_type="XT4", exclusive=exc))
    for i in range(half):
        jitter = 1.0 + 0.01 * rng.standard_normal()
        exc = {name: v * jitter for name, v in t3.items()}
        exc["MPI_WAIT"] = abs(0.02 * wait_xt4 * rng.standard_normal())
        profiles.append(
            RankProfile(rank=xt4_cores + i, node_type="XT3", exclusive=exc)
        )
    return profiles


def class_means(profiles):
    """Mean exclusive time per kernel per node class."""
    out: dict = {}
    for cls in {p.node_type for p in profiles}:
        rows = [p for p in profiles if p.node_type == cls]
        keys = rows[0].exclusive.keys()
        out[cls] = {k: float(np.mean([r.exclusive[k] for r in rows])) for k in keys}
    return out
