"""The explicit Runge-Kutta time integrator.

S3D advances the solution with a six-stage fourth-order explicit
Runge-Kutta method in low-storage form (§2.6, refs [8, 9]). This
reproduction runs one scheme, ``"ck45"``: the five-stage fourth-order
2N low-storage member of the Carpenter-Kennedy family (the paper's
reference [8]), with the 2N register strategy S3D uses to keep its
memory footprint down. The paper's six-stage variant is not
reproduced.

The integrator operates on arbitrary ndarray state and a callable
``rhs(t, u) -> du/dt``. When the callable advertises
``supports_out = True`` (:class:`~repro.core.rhs.CompressibleRHS` does),
stage evaluations land in a persistent per-integrator buffer via
``rhs(t, u, out=...)``, eliminating one full state-sized allocation per
stage; the arithmetic is unchanged bitwise.

The stage loop is written once, as a generator (``stepper``): an RHS
that must wait for data it does not hold — a rank of a decomposed
domain, whose stencils reach into its neighbours' blocks — is a
generator function ``rhs(t, u, out)`` whose suspensions become the
stage loop's. ``step`` drives the same loop to completion over a plain
callable, which never suspends.
"""

from __future__ import annotations

import inspect

import numpy as np

#: the one scheme: Carpenter-Kennedy five-stage fourth-order 2N
#: coefficients ``A_i``, ``B_i`` and stage times ``c_i``
_CK45_A = (
    0.0,
    -567301805773.0 / 1357537059087.0,
    -2404267990393.0 / 2016746695238.0,
    -3550918686646.0 / 2091501179385.0,
    -1275806237668.0 / 842570457699.0,
)
_CK45_B = (
    1432997174477.0 / 9575080441755.0,
    5161836677717.0 / 13612068292357.0,
    1720146321549.0 / 2090206949498.0,
    3134564353537.0 / 4481467310338.0,
    2277821191437.0 / 14882151754819.0,
)
_CK45_C = (
    0.0,
    1432997174477.0 / 9575080441755.0,
    2526269341429.0 / 6820363962896.0,
    2006345519317.0 / 3224310063776.0,
    2802321613138.0 / 2924317926251.0,
)


class NonFiniteStageError(FloatingPointError):
    """A stage slope went non-finite: ``args`` are the stage index and
    the number of non-finite entries."""


def finite_guard(stage: int, k) -> None:
    """The stage hook the health monitor's RK stage guard arms: raises
    the moment a slope is not finite (the solver's step reports it)."""
    bad = int(k.size - np.count_nonzero(np.isfinite(k)))
    if bad:
        raise NonFiniteStageError(stage, bad)


def _evaluate(rhs, t, u, out):
    """One RHS evaluation inside a stage loop: delegate to an RHS that
    may suspend, call one that cannot."""
    if inspect.isgeneratorfunction(rhs):
        return (yield from rhs(t, u, out))
    return rhs(t, u) if out is None else rhs(t, u, out=out)


class ERKIntegrator:
    """The ``ck45`` 2N (Williamson) low-storage explicit Runge-Kutta.

    Uses only two registers regardless of stage count:

        du = A_i du + dt * rhs(t + c_i dt, u);  u += B_i du

    Parameters
    ----------
    scheme:
        ``"ck45"``, the one scheme; any other name raises ``ValueError``.
    """

    def __init__(self, scheme: str = "ck45"):
        if scheme != "ck45":
            raise ValueError(
                f"unknown ERK scheme {scheme!r}; the one scheme is 'ck45'")
        self.a = np.asarray(_CK45_A, dtype=float)
        self.b = np.asarray(_CK45_B, dtype=float)
        self.c = np.asarray(_CK45_C, dtype=float)
        self.stages = len(self.b)
        #: optional per-stage callback ``hook(stage_index, k_stage)``;
        #: the health monitor's RK-stage NaN guard installs here
        self.stage_hook = None
        self._fbuf = None

    def stepper(self, rhs, t, u, dt):
        """One step from ``t`` to ``t + dt`` in low-storage form (two
        registers), as a generator returning the updated state array (a
        fresh one: ``u`` is left untouched). Stage 1 is evaluated on
        ``u`` itself, so whatever the RHS memoized on that buffer — the
        property bundle of a ``stable_dt`` just before the step — is
        what stage 1 consumes; the working copy is taken afterwards.
        The copy is then updated in place between evaluations, so an RHS
        that memoizes on the buffer it is handed is told after each
        update (``rhs.mark_modified()``, or the method's object's): no
        checksum of a conservative update is guaranteed to move."""
        u = np.asarray(u, dtype=float)
        du = np.zeros_like(u)
        use_out = getattr(rhs, "supports_out", False)
        if use_out and (self._fbuf is None or self._fbuf.shape != u.shape):
            self._fbuf = np.empty_like(u)
        mark_modified = getattr(getattr(rhs, "__self__", rhs),
                                "mark_modified", None)
        hook = self.stage_hook
        for i in range(self.stages):
            du *= self.a[i]
            f = yield from _evaluate(rhs, t + self.c[i] * dt, u,
                                     self._fbuf if use_out else None)
            if hook is not None:
                hook(i, f)
            if use_out:
                f *= dt
                du += f
            else:
                du += dt * f
            if i == 0:
                u = u.copy()
            u += self.b[i] * du
            if mark_modified is not None:
                mark_modified()
        return u

    def step(self, rhs, t, u, dt):
        """Advance ``u`` from ``t`` to ``t + dt`` over an RHS that never
        suspends; returns the updated state array."""
        stepper = self.stepper(rhs, t, u, dt)
        try:
            next(stepper)
        except StopIteration as done:
            return done.value
        raise RuntimeError("the RHS suspended: drive the stepper, not step()")
