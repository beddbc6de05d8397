"""Analysis substrate: the post-processing toolkit behind §6-§7.

* :mod:`repro.analysis.mixture_fraction` — Bilger mixture fraction
  (the x-axis of Fig 11),
* :mod:`repro.analysis.progress` — reaction progress variable c from
  O2 mass fraction (§7.3) and its gradient magnitude,
* :mod:`repro.analysis.conditional` — conditional means/scatter
  statistics (Figs 11 and 13),
* :mod:`repro.analysis.flame` — flame-surface extraction, surface
  length/wrinkling, pinch-off counting, lift-off height,
* :mod:`repro.analysis.laminar` — PREMIX-substitute 1D freely
  propagating premixed flame (SL, thermal thickness, heat-release FWHM
  for Table 1).
"""

from repro.analysis.mixture_fraction import bilger_mixture_fraction, stoichiometric_mixture_fraction
from repro.analysis.progress import progress_variable, gradient_magnitude
from repro.analysis.conditional import conditional_mean
from repro.analysis.flame import (
    flame_contours,
    surface_length,
    count_flame_pieces,
    liftoff_height,
)
from repro.analysis.laminar import FreeFlame, LaminarFlameProperties

__all__ = [
    "bilger_mixture_fraction",
    "stoichiometric_mixture_fraction",
    "progress_variable",
    "gradient_magnitude",
    "conditional_mean",
    "flame_contours",
    "surface_length",
    "count_flame_pieces",
    "liftoff_height",
    "FreeFlame",
    "LaminarFlameProperties",
]
