"""Software volume renderer: ray marching with front-to-back compositing.

The §8 images (Figs 10, 12, 14) are direct volume renderings of scalar
fields. This renderer marches axis-aligned rays through a 2D or 3D
scalar field, samples a transfer function, and composites front to back:

    C  += (1 - A) * a_i * c_i
    A  += (1 - A) * a_i

2D fields are rendered as a single slab (one sample per pixel), which is
what the scaled-down 2D DNS benchmarks produce.
"""

from __future__ import annotations

import numpy as np


class VolumeRenderer:
    """Axis-aligned volume renderer for fields on structured grids.

    Parameters
    ----------
    axis:
        View direction: rays integrate along this array axis.
    """

    #: RGB color behind the volume
    BACKGROUND = (0.0, 0.0, 0.0)

    def __init__(self, axis: int = 2):
        self.axis = int(axis)

    def render(self, field, transfer) -> np.ndarray:
        """Render one scalar ``field`` through ``transfer``.

        Returns an RGB image of the field's shape with the view axis
        removed (2D fields produce a (nx, ny, 3) image directly).
        """
        return self.render_multi([(field, transfer)])

    def render_multi(self, layers) -> np.ndarray:
        """Simultaneously render multiple (field, transfer) layers.

        This is the §8.1 data-fusion path: at every sample the layers'
        colors are blended weighted by their opacities before
        compositing, so spatially coexisting structures (e.g. OH and
        HO2) remain individually visible.
        """
        fields = [np.asarray(f, dtype=float) for f, _ in layers]
        shape = fields[0].shape
        for f in fields:
            if f.shape != shape:
                raise ValueError("all layers must share a shape")
        if len(shape) == 2:
            fields = [f[..., None] for f in fields]
            axis = 2
        else:
            axis = self.axis
        fields = [np.moveaxis(f, axis, -1) for f in fields]
        base = fields[0].shape[:-1]
        depth = fields[0].shape[-1]
        color = np.zeros(base + (3,))
        alpha = np.zeros(base)
        for k in range(depth):  # front to back
            rgb_mix = np.zeros(base + (3,))
            a_mix = np.zeros(base)
            for f, (_, tf) in zip(fields, layers):
                rgb, a = tf(f[..., k])
                rgb_mix += rgb * a[..., None]
                a_mix += a
            np.clip(a_mix, 0.0, 1.0, out=a_mix)
            safe = np.maximum(a_mix, 1e-12)
            rgb_eff = rgb_mix / safe[..., None]
            trans = 1.0 - alpha
            color += (trans * a_mix)[..., None] * rgb_eff
            alpha += trans * a_mix
            if np.all(alpha > 0.999):
                break
        color += (1.0 - alpha)[..., None] * np.asarray(self.BACKGROUND)
        return np.clip(color, 0.0, 1.0)


def render_isosurface_mask(field, level: float, width: float | None = None):
    """Soft mask highlighting the ``field == level`` band.

    Used to overlay the stoichiometric mixture-fraction isosurface on
    volume renderings (Fig 14's gold surface). Returns values in [0, 1]
    peaking on the isosurface.
    """
    f = np.asarray(field, dtype=float)
    if width is None:
        width = 0.05 * (f.max() - f.min() + 1e-300)
    return np.exp(-((f - level) / width) ** 2)
