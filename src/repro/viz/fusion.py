"""Multivariate data fusion (§8.1).

"The data-fusion problem here is to determine how to display multiple
data values defined at the same spatial location." Here the fusion is
render-level: :func:`simultaneous_render` goes through
:class:`~repro.viz.volume.VolumeRenderer.render_multi`, the mode used
for the OH + HO2 images of Figs 10/14.
"""

from __future__ import annotations

import numpy as np

from repro.viz.transfer import ColorMap, TransferFunction
from repro.viz.volume import VolumeRenderer


def simultaneous_render(fields: dict):
    """Render the canonical §6 pairs: OH (cool colors) + HO2 (fire),
    viewed along the last axis of a 3D field.

    ``fields`` maps names to arrays; known names get tuned transfer
    functions, others a generic gray ramp. Returns the RGB image.
    """
    layers = []
    presets = {
        "OH": (ColorMap.cool(), [(0.0, 0.0), (0.3, 0.0), (1.0, 0.8)]),
        "HO2": (ColorMap.fire(), [(0.0, 0.0), (0.25, 0.0), (1.0, 0.7)]),
        "T": (ColorMap.fire(), [(0.0, 0.0), (0.5, 0.1), (1.0, 0.5)]),
        "mixfrac": (ColorMap.greens(), [(0.0, 0.0), (1.0, 0.4)]),
    }
    for name, field in fields.items():
        f = np.asarray(field, dtype=float)
        lo, hi = float(f.min()), float(f.max())
        if hi <= lo:
            hi = lo + 1.0
        cmap, opacity = presets.get(
            name, (ColorMap([(0.0, (0.1,) * 3), (1.0, (0.9,) * 3)]),
                   [(0.0, 0.0), (1.0, 0.5)])
        )
        layers.append((f, TransferFunction(lo, hi, cmap, opacity=opacity)))
    return VolumeRenderer().render_multi(layers)
