"""S3D kernel inventory: per-grid-point flop and byte counts.

The kernels are those of Fig 2's breakdown (reaction rates, species
diffusive flux, heat flux, derivatives, filter, thermo/transport
properties, RK integration). Counts are per grid point per *time step*
(six RK stages) per core, calibrated so the roofline model reproduces
the paper's measured 55 us (XT4) and 68 us (XT3) per grid point per
step for the 50^3 model problem — the only free calibration in the
§3-§4 reproduction; the *relative* flop/byte split per kernel follows
the structure of the computation (chemistry is flop-heavy, flux and
derivative assembly is bandwidth-heavy).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class KernelSpec:
    """One kernel's per-grid-point cost model inputs.

    ``flop_efficiency`` is the fraction of peak FLOP rate the kernel's
    instruction mix can sustain: transcendental/divide-heavy chemistry
    runs far below the FMA peak (which is why whole-code S3D achieves
    only 0.305 flops/cycle = 15 % of peak, §4.1).
    """

    name: str
    flops: float   # flop per grid point per step
    bytes: float   # bytes moved to/from memory per grid point per step
    category: str  # "compute" | "memory" | "mixed"
    flop_efficiency: float = 1.0

    @property
    def arithmetic_intensity(self) -> float:
        """Flops per byte."""
        return self.flops / self.bytes if self.bytes else float("inf")


def s3d_kernel_inventory() -> list:
    """The Fig 2 kernel set with calibrated per-point costs."""
    return [
        KernelSpec("REACTION_RATES", flops=30.0e3, bytes=6.3e3,
                   category="compute", flop_efficiency=0.18),
        KernelSpec("COMPUTESPECIESDIFFFLUX", flops=7.0e3, bytes=27.5e3, category="memory"),
        KernelSpec("DERIVATIVES", flops=6.0e3, bytes=23.3e3, category="memory"),
        KernelSpec("COMPUTEHEATFLUX", flops=3.0e3, bytes=12.7e3, category="memory"),
        KernelSpec("FILTER", flops=2.5e3, bytes=8.5e3, category="memory"),
        KernelSpec("THERMOPROPS", flops=4.0e3, bytes=6.3e3,
                   category="mixed", flop_efficiency=0.27),
        KernelSpec("INTEGRATE", flops=1.4e3, bytes=6.3e3, category="memory"),
    ]
