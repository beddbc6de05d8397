"""Visualization substrate: §8 of the paper.

* :mod:`repro.viz.transfer` — color/opacity transfer functions,
* :mod:`repro.viz.volume` — a software ray-marching volume renderer
  with front-to-back compositing (the Figs 10/12/14 images),
* :mod:`repro.viz.fusion` — multivariate data fusion: render two or
  more scalar fields simultaneously with per-field transfer functions
  and mixed styles (§8.1),
* :mod:`repro.viz.parallel_coords` — the parallel-coordinates brushing
  interface of Fig 15,
* :mod:`repro.viz.time_histogram` — per-variable time histograms
  (Fig 15's temporal view).
"""

from repro.viz.transfer import TransferFunction, ColorMap
from repro.viz.volume import VolumeRenderer, render_isosurface_mask
from repro.viz.fusion import fuse_fields, simultaneous_render
from repro.viz.parallel_coords import ParallelCoordinates
from repro.viz.time_histogram import TimeHistogram
from repro.viz.image import save_ppm

__all__ = [
    "TransferFunction",
    "ColorMap",
    "VolumeRenderer",
    "render_isosurface_mask",
    "fuse_fields",
    "simultaneous_render",
    "ParallelCoordinates",
    "TimeHistogram",
    "save_ppm",
]
