"""In-situ visualization (§8.3).

Renders while the simulation runs, sharing the solver's data structures
(no copies of the state are made) and accounting for its own cost so
the "small overhead on top of the simulation" requirement can be
checked. Attach an :class:`InSituRenderer` to
``S3DSolver.insitu_hook``.
"""

from __future__ import annotations

import time

import numpy as np

from repro.viz.fusion import simultaneous_render


class InSituRenderer:
    """Solver hook producing fused renderings of selected fields.

    Parameters
    ----------
    fields:
        List of field selectors: names among {"T", "OH", "HO2",
        "heat_release"} plus any species name prefixed "Y:".
    max_overhead:
        Advisory ceiling on viz time / solver time; exceeded ratios are
        flagged in :attr:`overhead_warnings`.
    """

    def __init__(self, fields=("T", "OH"), max_overhead: float = 0.05):
        self.fields = tuple(fields)
        self.max_overhead = float(max_overhead)
        self.images: list = []
        self.render_time = 0.0
        self.overhead_warnings: list = []
        # solve time is what passes between two hook calls; each such
        # gap is paired with the render that follows it
        self._last_return: float | None = None
        self._solve_time = 0.0
        self._paired_render = 0.0

    def _extract(self, name: str, state, primitives):
        rho, vel, T, p, Y, _ = primitives
        if name == "T":
            return T
        if name.startswith("Y:"):
            return Y[state.mech.index(name[2:])]
        if name in state.mech.species_names:
            return Y[state.mech.index(name)]
        raise KeyError(f"unknown in-situ field {name!r}")

    def __call__(self, step: int, t: float, state) -> None:
        start = time.perf_counter()
        primitives = state.primitives()
        fields = {
            name.replace("Y:", ""): self._extract(name, state, primitives)
            for name in self.fields
        }
        image = simultaneous_render(fields)
        self.images.append((step, t, image))
        end = time.perf_counter()
        self.render_time += end - start
        if self._last_return is not None:
            self._solve_time += start - self._last_return
            self._paired_render += end - start
        self._last_return = end

    def check_overhead(self) -> float:
        """Viz-time / solve-time ratio; warns when above the ceiling.

        The renderer measures both sides itself: solve time is the wall
        time between one hook call returning and the next one starting,
        compared with the renders that follow those gaps (0 until the
        hook has run twice).
        """
        solve = self._solve_time
        ratio = self._paired_render / solve if solve > 0 else 0.0
        if ratio > self.max_overhead:
            self.overhead_warnings.append(ratio)
        return ratio
