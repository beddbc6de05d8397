"""Heterogeneous load balancing: the Fig 3 prediction.

The paper proposes giving XT3 cores a 50x50x40 block (80 % of the
50x50x50 XT4 block) to compensate for their ~24 % lower memory-bound
throughput; wall-clock per step is then set by the XT4 block time, and
the *average* cost per grid point depends on the XT4 fraction:

    cost(f) = t4 * V4 / (f V4 + (1 - f) V3)

which runs from the XT3-only 68 us at f = 0 to the XT4-only 55 us at
f = 1 and gives ~61 us at Jaguar's 46 % XT4 mix.
"""

from __future__ import annotations

import numpy as np

from repro.perfmodel.kernels import s3d_kernel_inventory
from repro.perfmodel.machine import XT3, XT4
from repro.perfmodel.roofline import total_time

#: block sizes of the rebalancing proposal (§4)
XT4_BLOCK = 50 * 50 * 50
XT3_BLOCK = 50 * 50 * 40


def rebalanced_cost(xt4_fraction: float) -> float:
    """Average cost per grid point per step [s] at an XT4 node fraction."""
    if not 0.0 <= xt4_fraction <= 1.0:
        raise ValueError("xt4_fraction must be in [0, 1]")
    inv = s3d_kernel_inventory()
    t3 = total_time(inv, XT3)
    t4 = total_time(inv, XT4)
    # XT3 block shrunk so its wall time does not exceed the XT4 block:
    # paper: "conservatively ... 50x50x40 on XT3 takes no longer".
    wall = max(t4 * XT4_BLOCK, t3 * XT3_BLOCK)
    if xt4_fraction == 0.0:
        # no XT4 nodes: everyone runs the full block at XT3 speed
        return t3
    mean_points = xt4_fraction * XT4_BLOCK + (1.0 - xt4_fraction) * XT3_BLOCK
    return wall / mean_points


def balance_curve(fractions=None):
    """(fractions, cost) arrays for the Fig 3 sweep."""
    f = np.asarray(
        fractions if fractions is not None else np.linspace(0.0, 1.0, 21), dtype=float
    )
    return f, np.array([rebalanced_cost(x) for x in f])


def predicted_jaguar_cost() -> float:
    """Cost at Jaguar's 46 % XT4 share (paper predicts ~61 us)."""
    return rebalanced_cost(0.46)


# ---------------------------------------------------------------------------
# chemistry load balancing: the Fig 3 idea applied to reaction work
# ---------------------------------------------------------------------------
def chemistry_imbalance(loads) -> float:
    """Load-imbalance factor max/mean — the weak-scaling penalty of a
    bulk-synchronous step whose slowest rank gates everyone."""
    loads = np.asarray(loads, dtype=float)
    mean = loads.mean()
    if mean <= 0.0:
        return 1.0
    return float(loads.max() / mean)
