"""Weak-scaling model: Fig 1's three curves.

S3D's communication is nearest-neighbour only (~80 kB messages), so
weak scaling is essentially flat; the model adds the small
nearest-neighbour exchange cost plus a mild log term for the
synchronization/monitoring collectives (§2.6: "all-to-all
communications are only required for monitoring and synchronization").
Hybrid allocations run bulk-synchronously, so the per-step time is set
by the slower node class — the paper's observation that 12000-22800
core runs match the XT3-only rate.
"""

from __future__ import annotations

import math

from repro.perfmodel.kernels import s3d_kernel_inventory
from repro.perfmodel.machine import XT3, XT4, HybridSystem
from repro.perfmodel.roofline import total_time

#: model problem of Fig 1: 50^3 points per core
POINTS_PER_CORE = 50**3

#: SeaStar interconnect parameters (public numbers)
LINK_BANDWIDTH = 2.0e9   # B/s sustained per direction
LINK_LATENCY = 5e-6      # s per message

#: per-variable halo exchanges per RK stage (gradients + flux divergences)
EXCHANGES_PER_STEP = 6 * 12
HALO_BYTES = 4 * 50 * 50 * 8  # 4 ghost layers of a 50^2 face = 80 kB


def comm_time_per_point(n_cores: int) -> float:
    """Communication + synchronization cost per grid point per step [s]."""
    if n_cores <= 1:
        return 0.0
    # nearest-neighbour halo: latency + bandwidth per message, amortized
    per_step = EXCHANGES_PER_STEP * (LINK_LATENCY + HALO_BYTES / LINK_BANDWIDTH)
    # monitoring/synchronization collectives: log(P) depth, tiny payload
    per_step += 2.0 * LINK_LATENCY * math.log2(n_cores)
    return per_step / POINTS_PER_CORE


def weak_scaling_curve(node, cores):
    """Cost per grid point per step [s] at each core count, one node type."""
    inv = s3d_kernel_inventory()
    base = total_time(inv, node)
    return [base + comm_time_per_point(p) for p in cores]


def hybrid_weak_scaling(cores):
    """Fig 1's hybrid curve: XT4-preferred allocation, slowest-class pace.

    Returns cost per grid point per step [s] per core count. Runs that
    fit in the XT4 partition go at XT4 speed; anything spilling onto
    XT3 nodes is pinned to the XT3 rate (bulk-synchronous steps).
    """
    sys_ = HybridSystem()
    inv = s3d_kernel_inventory()
    t3 = total_time(inv, XT3)
    t4 = total_time(inv, XT4)
    out = []
    for p in cores:
        xt4_cores, xt3_cores = sys_.allocation(p)
        node_time = t4 if xt3_cores == 0 else t3
        out.append(node_time + comm_time_per_point(p))
    return out
