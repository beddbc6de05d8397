"""Solver configuration: boundary specifications, run parameters, and
the one table of run-time knobs.

Every run-time switch of the package is a row of :data:`KNOBS` and is
read through :func:`resolve` — the only place under ``src/repro`` that
touches ``os.environ``. This module imports nothing from the package,
so every layer can import it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

#: boundary kinds understood by the solver
BOUNDARY_KINDS = (
    "periodic",
    "nonreflecting_outflow",
    "hard_inflow",
)


@dataclass
class BoundarySpec:
    """Boundary condition for one face of the domain.

    Parameters
    ----------
    kind:
        One of :data:`BOUNDARY_KINDS`.
    p_inf:
        Far-field pressure for non-reflecting outflow [Pa].
    sigma:
        Pressure-relaxation coefficient of the outflow LODI treatment
        (Poinsot-Lele; 0.25-0.6 typical).
    velocity, temperature, mass_fractions:
        Target fields for inflow faces. Each may be a scalar/vector
        constant or an array matching the face plane; ``velocity`` is a
        sequence of ndim components, ``mass_fractions`` has leading
        species axis. ``velocity`` may also be a callable ``f(t)``
        returning the face profile, enabling synthetic-turbulence inflow.
    """

    kind: str
    p_inf: float | None = None
    sigma: float = 0.28
    velocity: object = None
    temperature: object = None
    mass_fractions: object = None

    def __post_init__(self):
        if self.kind not in BOUNDARY_KINDS:
            raise ValueError(f"unknown boundary kind {self.kind!r}; choose from {BOUNDARY_KINDS}")
        if self.kind == "nonreflecting_outflow" and self.p_inf is None:
            raise ValueError("nonreflecting_outflow requires p_inf")
        if self.kind == "hard_inflow":
            for attr in ("velocity", "temperature", "mass_fractions"):
                if getattr(self, attr) is None:
                    raise ValueError(f"{self.kind} requires {attr}")


def periodic_boundaries(ndim: int) -> dict:
    """All-periodic boundary map for an ndim-dimensional grid."""
    out = {}
    for ax in range(ndim):
        out[(ax, 0)] = BoundarySpec("periodic")
        out[(ax, 1)] = BoundarySpec("periodic")
    return out


# ----------------------------------------------------------------------
# the run-time knob table
# ----------------------------------------------------------------------
_SWITCH = {"1": True, "on": True, "true": True, "yes": True,
           "0": False, "off": False, "false": False, "no": False}


def _seconds(value) -> float:
    x = float(value)
    if not x >= 0.0:
        raise ValueError(value)
    return x


@dataclass(frozen=True)
class Knob:
    """One row of the knob table.

    ``name`` is the :class:`SolverConfig` field (``in_config``) or the
    name of an environment-only knob; ``env`` the ``REPRO_*`` variable
    consulted when no explicit value is given. A value is matched
    against ``choices`` and ``aliases`` (other accepted spellings,
    mapped to a choice), or handed to ``parse`` for numeric knobs, whose
    accepted form ``accepts`` describes.
    """

    name: str
    env: str
    default: object
    doc: str
    choices: tuple = ()
    aliases: dict = field(default_factory=dict)
    parse: object = None
    accepts: str = ""
    in_config: bool = True

    def forms(self) -> str:
        """The accepted values, as the error message and docs state them."""
        if self.parse is not None:
            return self.accepts
        text = ", ".join(repr(c) for c in self.choices)
        spellings = sorted(a for a in self.aliases if a and isinstance(a, str))
        return f"{text} (or {', '.join(spellings)})" if spellings else text


#: every run-time knob, by name (docs/CONFIG.md is rendered from this)
KNOBS = {k.name: k for k in (
    Knob("transport", "REPRO_TRANSPORT", "inprocess",
         "communication backend of rank-parallel runs: the deterministic "
         "single-process reference, or one worker process per rank",
         choices=("inprocess", "multiprocessing")),
    Knob("chem_load_balance", "REPRO_CHEM_LB", "off",
         "chemistry load-balancing policy of rank-parallel runs; every "
         "policy is bitwise identical to off",
         choices=("off", "greedy", "pairwise-diffusion")),
    Knob("chemistry_mode", "REPRO_CHEMISTRY_MODE", "explicit",
         "chemistry inside the ERK right-hand side, or Strang-split "
         "implicit half-steps around a non-reacting transport step",
         choices=("explicit", "strang")),
    Knob("parallel_recovery", "REPRO_PARALLEL_RECOVERY", "off",
         "rank-failure policy of supervised parallel runs: plain run, or "
         "revive dead ranks on the same decomposition and replay",
         choices=("off", "respawn")),
    Knob("observability", "REPRO_OBSERVABILITY", "off",
         "health observatory: null monitor, standard watchdogs + flight "
         "recorder, or everything armed (conservation, RK stage guard)",
         choices=("off", "on", "full")),
    Knob("telemetry", "REPRO_TELEMETRY", False,
         "record spans and metrics (a fresh recording backend) instead of "
         "the zero-cost null backend",
         choices=(False, True), aliases=_SWITCH),
    Knob("heartbeat", "REPRO_HEARTBEAT", 0.0,
         "multiprocessing worker liveness deadline in seconds; 0 disables "
         "hang detection",
         parse=_seconds, accepts="a number of seconds >= 0",
         in_config=False),
    Knob("fault_seed", "REPRO_FAULT_SEED", None,
         "fault-injector seed of the resilience test lanes; unset keeps "
         "each suite's own seed",
         parse=int, accepts="an integer", in_config=False),
)}


def _coerce(knob: Knob, raw, source: str):
    value = raw.strip().lower() if isinstance(raw, str) else raw
    try:
        if knob.parse is not None:
            return knob.parse(value)
        return ({c: c for c in knob.choices} | knob.aliases)[value]
    except (KeyError, TypeError, ValueError):
        raise ValueError(
            f"unknown {knob.name} {raw!r} ({source}); "
            f"{knob.name} / {knob.env} accepts {knob.forms()}"
        ) from None


def resolve(name: str, explicit=None):
    """The value of knob ``name``: explicit > ``REPRO_*`` > default.

    ``explicit`` is whatever the caller was handed — a constructor
    argument or the :class:`SolverConfig` field — and wins when not
    ``None``; otherwise the knob's environment variable decides (unset
    or empty means unset), and finally the table default. Text is
    stripped and case-folded before matching, from either source; a
    value the knob does not accept raises ``ValueError`` naming the
    knob, its variable and the accepted forms.
    """
    knob = KNOBS[name]
    if explicit is not None:
        return _coerce(knob, explicit, "explicit")
    raw = os.environ.get(knob.env, "").strip()
    if raw:
        return _coerce(knob, raw, "from the environment")
    return knob.default


def knob_table_markdown() -> str:
    """The "Configuration knobs" table of docs/CONFIG.md, from the table."""
    lines = [
        "| knob | environment variable | accepts | default | meaning |",
        "|---|---|---|---|---|",
    ]
    for k in KNOBS.values():
        name = f"`SolverConfig.{k.name}`" if k.in_config else f"{k.name} (env only)"
        forms = k.forms().replace("'", "`")
        lines.append(
            f"| {name} | `{k.env}` | {forms} | `{k.default!r}` | {k.doc} |"
        )
    return "\n".join(lines) + "\n"


@dataclass
class SolverConfig:
    """Run parameters for :class:`~repro.core.solver.S3DSolver`.

    Attributes
    ----------
    boundaries:
        Mapping ``(axis, side) -> BoundarySpec`` with side 0 = min face,
        1 = max face. Periodic axes must be periodic on both sides and
        match ``grid.periodic``.
    cfl:
        Acoustic CFL number for the adaptive time step.
    dt:
        Fixed time step [s]; overrides ``cfl`` when set.
    filter_interval:
        Apply the 10th-order filter every this many steps (0 disables).
    filter_alpha:
        Filter strength in [0, 1].
    scheme:
        ERK scheme name: ``"ck45"``, the one scheme
        (:class:`repro.core.erk.ERKIntegrator`).
    chemistry_method:
        Implicit integrator of the Strang half-steps: ``None`` or
        ``"rosw2"``, the one integrator
        (:class:`repro.chemistry.implicit.ImplicitChemistry`); any other
        value fails :meth:`validate`.
    transport, chem_load_balance, chemistry_mode,
    parallel_recovery, observability, telemetry:
        The run-time knobs: one row each of :data:`KNOBS` (rendered in
        docs/CONFIG.md), which gives the accepted values, the
        ``REPRO_*`` variable consulted when the field is ``None``, the
        default and the meaning. ``transport`` (the *communication*
        backend, not the molecular transport model passed to the
        solver), ``chem_load_balance`` and ``parallel_recovery`` are
        consumed by
        :class:`~repro.parallel.solver.ParallelPeriodicSolver` only.
        ``telemetry=False`` forces the null backend; ``None`` uses the
        process default.
    """

    boundaries: dict = field(default_factory=dict)
    cfl: float = 0.8
    dt: float | None = None
    filter_interval: int = 1
    filter_alpha: float = 0.2
    scheme: str = "ck45"
    telemetry: bool | None = None
    observability: str | None = None
    chemistry_mode: str | None = None
    chemistry_method: str | None = None
    chem_load_balance: str | None = None
    transport: str | None = None
    parallel_recovery: str | None = None

    def validate(self, grid) -> None:
        """Cross-check the boundary map against the grid, and every knob
        field against the knob table."""
        for ax in range(grid.ndim):
            for side in (0, 1):
                spec = self.boundaries.get((ax, side))
                if spec is None:
                    raise ValueError(f"missing boundary spec for face (axis={ax}, side={side})")
                if grid.periodic[ax] != (spec.kind == "periodic"):
                    raise ValueError(
                        f"face (axis={ax}, side={side}): boundary kind {spec.kind!r} "
                        f"inconsistent with grid.periodic[{ax}]={grid.periodic[ax]}"
                    )
        if self.dt is None and not (0 < self.cfl <= 2.0):
            raise ValueError("cfl must be in (0, 2]")
        if not 0.0 <= self.filter_alpha <= 1.0:
            raise ValueError("filter_alpha must be in [0, 1]")
        if self.chemistry_method not in (None, "rosw2"):
            raise ValueError(f"unknown chemistry_method {self.chemistry_method!r}; "
                             "the one method is 'rosw2'")
        for knob in KNOBS.values():
            if knob.in_config and getattr(self, knob.name) is not None:
                resolve(knob.name, getattr(self, knob.name))


def resolve_face_value(value, t: float):
    """Resolve a possibly-callable boundary target to an array at time t."""
    if callable(value):
        return np.asarray(value(t), dtype=float)
    return np.asarray(value, dtype=float)
