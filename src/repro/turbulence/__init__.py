"""Turbulence substrate: synthetic inflow turbulence and statistics.

The paper's jet configurations specify synthetic turbulence at the
inflow whose scales then evolve downstream (Table 1 footnote d). This
package provides:

* :mod:`repro.turbulence.spectra` — the Passot-Pouquet model energy
  spectrum,
* :mod:`repro.turbulence.synthetic` — divergence-free random velocity
  fields synthesized from a target spectrum,
* :mod:`repro.turbulence.statistics` — u', dissipation, integral and
  Taylor scales, and the derived numbers of Table 1 (Re_t, Karlovitz,
  Damkohler).
"""

from repro.turbulence.spectra import passot_pouquet
from repro.turbulence.synthetic import synthetic_velocity_field
from repro.turbulence.statistics import (
    TurbulenceScales,
    rms_fluctuation,
    integral_length_scale,
    turbulence_scales,
)

__all__ = [
    "passot_pouquet",
    "synthetic_velocity_field",
    "TurbulenceScales",
    "rms_fluctuation",
    "integral_length_scale",
    "turbulence_scales",
]
