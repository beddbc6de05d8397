"""Performance-model substrate: §3-§4 of the paper.

The Cray XT3/XT4 "Jaguar" is simulated with an analytic machine +
roofline model, calibrated only by public node parameters (clock,
peak FLOP rate, memory bandwidth — §3):

* :mod:`repro.perfmodel.machine` — node models (XT3: 6.4 GB/s,
  XT4: 10.6 GB/s, 2.6 GHz dual-core Opteron) and the hybrid system mix,
* :mod:`repro.perfmodel.kernels` — the S3D kernel inventory with
  per-grid-point flop and byte counts (measured from the Python
  implementation's array traffic),
* :mod:`repro.perfmodel.roofline` — time = max(flops/peak,
  bytes/bandwidth) per kernel; reproduces "memory-intensive loops run
  slower on XT3" (Fig 2) and the 0.305 flops/cycle = 15 %-of-peak
  observation (§4.1),
* :mod:`repro.perfmodel.weakscaling` — the Fig 1 weak-scaling curves
  including the hybrid configuration pinned to XT3 speed,
* :mod:`repro.perfmodel.loadbalance` — the Fig 3 rebalancing model
  (50x50x40 blocks on XT3 vs 50x50x50 on XT4),
* :mod:`repro.perfmodel.profiler` — TAU-substitute per-rank,
  per-kernel exclusive-time breakdown with MPI_Wait imbalance (Fig 2).
"""

from repro.perfmodel.machine import NodeModel, XT3, XT4, HybridSystem
from repro.perfmodel.kernels import KernelSpec, s3d_kernel_inventory
from repro.perfmodel.roofline import kernel_time
from repro.perfmodel.weakscaling import weak_scaling_curve, hybrid_weak_scaling
from repro.perfmodel.loadbalance import (
    balance_curve,
    chemistry_imbalance,
    rebalanced_cost,
)
from repro.perfmodel.profiler import profile_hybrid_run
from repro.perfmodel.transportmodel import (
    predicted_transport_speedup,
    transport_comparison,
    transport_comparison_table,
)

__all__ = [
    "NodeModel",
    "XT3",
    "XT4",
    "HybridSystem",
    "KernelSpec",
    "s3d_kernel_inventory",
    "kernel_time",
    "weak_scaling_curve",
    "hybrid_weak_scaling",
    "rebalanced_cost",
    "balance_curve",
    "chemistry_imbalance",
    "profile_hybrid_run",
    "predicted_transport_speedup",
    "transport_comparison",
    "transport_comparison_table",
]
