"""Minimal image output (PPM, no external dependencies)."""

from __future__ import annotations

import numpy as np


def save_ppm(path: str, image) -> None:
    """Write an RGB float image (values in [0, 1]) as binary PPM."""
    img = np.asarray(image, dtype=float)
    if img.ndim != 3 or img.shape[2] != 3:
        raise ValueError("image must be (h, w, 3)")
    data = (np.clip(img, 0.0, 1.0) * 255.0 + 0.5).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(f"P6 {img.shape[1]} {img.shape[0]} 255\n".encode())
        f.write(data.tobytes())
