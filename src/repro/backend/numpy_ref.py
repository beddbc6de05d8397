"""The bitwise-pinned NumPy reference backend.

This backend *is* the pre-backend implementation: it registers no fused
kernels — so every operator and chemistry hook falls through to the
exact code the bitwise test matrix pins. Selecting ``backend="numpy"``
(the default) therefore cannot change a single bit of any result.
"""

from __future__ import annotations

from repro.backend import ArrayBackend, register_backend


@register_backend
class NumpyBackend(ArrayBackend):
    """Reference host backend; the truth every other backend is tested against."""

    name = "numpy"
    is_reference = True
