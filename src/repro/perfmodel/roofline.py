"""Roofline cost model: time = max(flop time, memory time) per kernel.

Reproduces the §4 observations:

* memory-intensive loops take longer on XT3 than XT4; compute-bound
  kernels take identical time on both (Fig 2's per-kernel comparison),
* S3D achieves a small fraction of peak (the paper measures 0.305
  flops/cycle = 15 % of peak on a 6.4 GB/s node).
"""

from __future__ import annotations

import numpy as np


def kernel_time(kernel, node) -> float:
    """Execution time per grid point per step on one core [s]."""
    t_flops = kernel.flops / (kernel.flop_efficiency * node.peak_flops_per_core)
    t_bytes = kernel.bytes / node.usable_bandwidth_per_core
    return max(t_flops, t_bytes)


def total_time(inventory, node) -> float:
    """Cost per grid point per step [s] summed over the inventory."""
    return sum(kernel_time(k, node) for k in inventory)


def achieved_flops_fraction(inventory, node) -> float:
    """Fraction of peak FLOP rate the kernel mix achieves.

    The paper measures 15 % of peak (0.305 flops/cycle) on the
    6.4 GB/s Cray XD1 node used for the §4.1 study.
    """
    flops = sum(k.flops for k in inventory)
    time = total_time(inventory, node)
    return (flops / time) / node.peak_flops_per_core
