"""Pluggable array backends for the hot RHS kernels.

The batched RHS engine (see :mod:`repro.core.rhs`) runs its hottest
kernels — the stencil sweeps, the Newton temperature inversion and the
production rates — through a small execution protocol,
:class:`ArrayBackend`. Two backends implement it:

``numpy``
    The bitwise-pinned reference (default). It registers no fused
    kernels and its hooks call the mechanism directly, so every code
    path is literally the pre-backend implementation: all existing
    bitwise guarantees (engine cross-checks, goldens, restart identity)
    are untouched by construction.
``numba``
    JIT-compiles the ghost-padded stencil sweeps and the per-cell
    Arrhenius/falloff production-rate loops into fused ``nopython``
    kernels operating on the same NumPy arena buffers (the Newton
    temperature inversion stays the host solve). Importability-gated: resolving it without the
    ``numba`` package raises :class:`BackendUnavailable` naming the
    missing package, and conformance tests skip with that reason.

The non-reference backend is verified by tolerance-based conformance
tests against the NumPy reference (≤ 1e-12 relative); the reference
itself remains the truth for every bitwise contract in the test suite.

Selection is the ``rhs_backend`` knob of
:data:`repro.core.config.KNOBS`; an :class:`ArrayBackend` instance
passed as ``backend=`` is used as is.
"""

from __future__ import annotations

__all__ = [
    "ArrayBackend",
    "BackendUnavailable",
    "BACKEND_NAMES",
    "register_backend",
    "resolve_backend",
    "backend_skip_reason",
]


class BackendUnavailable(RuntimeError):
    """A registered backend cannot run because its package is missing.

    ``missing`` names the import that failed (e.g. ``"numba"``) so
    skip-with-reason test gates and benchmark reports can state exactly
    what to install.
    """

    def __init__(self, backend: str, missing: str):
        self.backend = backend
        self.missing = missing
        super().__init__(
            f"RHS backend {backend!r} is unavailable: "
            f"requires the {missing!r} package (not importable)"
        )


class ArrayBackend:
    """Execution protocol for the batched RHS program.

    A backend supplies a registry of optional *fused kernels* the core
    stencil operators consult, and the two chemistry hooks below. Every
    hook defaults to the host reference implementation, so a backend
    overrides exactly the pieces it accelerates and inherits bitwise
    reference behavior for the rest. Arena buffers are plain NumPy
    arrays on every backend.
    """

    #: registry name; subclasses must override
    name = "abstract"
    #: True only for the bitwise-pinned NumPy reference backend
    is_reference = False

    def __init__(self):
        #: fused kernels compiled so far (telemetry: backend.compile_count)
        self.compile_count = 0
        #: seconds spent JIT-compiling kernels (backend.compile_seconds)
        self.compile_seconds = 0.0

    # -- availability ---------------------------------------------------
    @classmethod
    def available(cls) -> bool:
        """Whether the backend's package dependencies are importable."""
        return True

    @classmethod
    def skip_reason(cls) -> str | None:
        """Human-readable unavailability reason naming the missing package."""
        return None

    # -- fused kernels ---------------------------------------------------
    def kernel(self, name: str):
        """The fused kernel registered under ``name``, or None.

        Core operators call this once per construction; ``None`` means
        "use the generic reference path". Backends that JIT record
        compilation effort in :attr:`compile_count` /
        :attr:`compile_seconds` (published as telemetry gauges by the
        RHS after its first evaluation).
        """
        return None

    # -- chemistry hooks (default: host reference) ------------------------
    def temperature_from_energy(self, mech, e, Y, T_guess=None):
        """Newton inversion of e(T, Y); the primitive-recovery hot spot."""
        return mech.temperature_from_energy(e, Y, T_guess=T_guess)

    def production_rates(self, mech, rho, T, Y):
        """Chemical source terms W_i ω̇_i for the reaction block."""
        return mech.production_rates(rho, T, Y)

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
_REGISTRY: dict[str, type] = {}
_INSTANCES: dict[str, ArrayBackend] = {}


def register_backend(cls):
    """Class decorator registering an :class:`ArrayBackend` subclass."""
    if not cls.name or cls.name == "abstract":
        raise ValueError("backend classes must define a unique name")
    _REGISTRY[cls.name] = cls
    return cls


def _registered(name) -> type:
    # imported here, not at module level: repro.core imports this package
    from repro.core.config import resolve

    return _REGISTRY[resolve("rhs_backend", name)]


def backend_skip_reason(name: str) -> str | None:
    """Why ``name`` would skip (missing package), or None when runnable."""
    return _registered(name).skip_reason()


def resolve_backend(backend=None) -> ArrayBackend:
    """Resolve a backend selection to a (shared) live instance.

    ``backend`` may be an :class:`ArrayBackend` instance (returned as
    is) or the ``rhs_backend`` knob value (``None`` defers to its
    environment variable and default). Knowing a name does not need its
    package; building it does, and raises :class:`BackendUnavailable`
    otherwise. Instances are cached per name so JIT-compiled kernels are
    shared process-wide.
    """
    if isinstance(backend, ArrayBackend):
        return backend
    cls = _registered(backend)
    if not cls.available():
        raise BackendUnavailable(cls.name, cls.missing_package)
    inst = _INSTANCES.get(cls.name)
    if inst is None:
        inst = _INSTANCES[cls.name] = cls()
    return inst


# Import the concrete backends for their registration side effects. The
# numba module guards its optional dependency, so importing this package
# never requires numba.
from repro.backend import numpy_ref as _numpy_ref  # noqa: E402,F401
from repro.backend import numba_jit as _numba_jit  # noqa: E402,F401

#: registered backend names (the ``rhs_backend`` knob's choices)
BACKEND_NAMES = tuple(_REGISTRY)
