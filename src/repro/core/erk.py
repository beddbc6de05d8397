"""Explicit Runge-Kutta time integrators.

S3D advances the solution with a six-stage fourth-order explicit
Runge-Kutta method in low-storage form (§2.6, refs [8, 9]). We provide:

* ``"rkf45"`` — the six-stage fourth-order Fehlberg scheme (with an
  embedded 5th-order error estimate), the default, matching the paper's
  "six-stage, fourth-order" description;
* ``"ck45"`` — the Carpenter-Kennedy five-stage fourth-order 2N
  low-storage scheme from the paper's reference [8] family, exposing the
  2N register strategy S3D uses to keep its memory footprint down;
* ``"rk4"`` — classical four-stage RK4 as a cross-check.

Integrators operate on arbitrary ndarray state and a callable
``rhs(t, u) -> du/dt``. When the callable advertises
``supports_out = True`` (:class:`~repro.core.rhs.CompressibleRHS` does),
stage evaluations land in persistent per-integrator stage
buffers via ``rhs(t, u, out=...)``, eliminating one full state-sized
allocation per stage; the arithmetic is unchanged bitwise.

The stage loops are written once, as generators (``stepper``): an RHS
that must wait for data it does not hold — a rank of a decomposed
domain, whose stencils reach into its neighbours' blocks — is a
generator function ``rhs(t, u, out)`` whose suspensions become the
stage loop's. ``step`` drives the same loop to completion over a plain
callable, which never suspends.
"""

from __future__ import annotations

import inspect

import numpy as np


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


def _complete(stepper):
    """Drive a stage loop whose RHS never suspends to its result."""
    try:
        next(stepper)
    except StopIteration as done:
        return done.value
    raise RuntimeError("the RHS suspended: drive the stepper, not step()")


class ButcherERK:
    """Generic explicit Runge-Kutta from a Butcher tableau."""

    def __init__(self, a, b, c, order: int, name: str, b_embedded=None, order_embedded=None):
        self.a = [np.asarray(row, dtype=float) for row in a]
        self.b = np.asarray(b, dtype=float)
        self.c = np.asarray(c, dtype=float)
        self.order = int(order)
        self.name = name
        self.b_embedded = None if b_embedded is None else np.asarray(b_embedded, dtype=float)
        self.order_embedded = order_embedded
        self.stages = len(self.b)
        self._kbuf = None

    def _stage_buffers(self, rhs, u):
        """Persistent stage-slope storage when the RHS writes into out=."""
        if not getattr(rhs, "supports_out", False):
            return None
        shape = (self.stages,) + np.shape(u)
        if self._kbuf is None or self._kbuf.shape != shape:
            self._kbuf = np.empty(shape)
        return self._kbuf

    def _stages(self, rhs, t, u, dt, stage_hook=None):
        """Evaluate all stage slopes k_i (a generator returning the list
        of k arrays).

        ``stage_hook(i, k_i)`` is called after each stage evaluation —
        the observability layer's per-stage NaN guard hangs here, so a
        poisoned slope is caught before it blends into the state.
        """
        kbuf = self._stage_buffers(rhs, u)
        k = []
        for i in range(self.stages):
            ui = u
            if i:
                incr = sum(self.a[i][j] * k[j] for j in range(i) if self.a[i][j] != 0.0)
                ui = u + dt * incr
            k.append((yield from _evaluate(
                rhs, t + self.c[i] * dt, ui,
                None if kbuf is None else kbuf[i])))
            if stage_hook is not None:
                stage_hook(i, k[-1])
        return k

    def stepper(self, rhs, t, u, dt, stage_hook=None):
        """One step as a generator returning the updated state array."""
        k = yield from self._stages(rhs, t, u, dt, stage_hook=stage_hook)
        return u + dt * sum(bi * ki for bi, ki in zip(self.b, k) if bi != 0.0)

    def step(self, rhs, t, u, dt, stage_hook=None):
        """One step; returns the updated state array."""
        return _complete(self.stepper(rhs, t, u, dt, stage_hook))

    def step_with_error(self, rhs, t, u, dt, stage_hook=None):
        """One step plus the embedded-scheme error estimate (or None)."""
        k = _complete(self._stages(rhs, t, u, dt, stage_hook=stage_hook))
        unew = u + dt * sum(bi * ki for bi, ki in zip(self.b, k) if bi != 0.0)
        err = None
        if self.b_embedded is not None:
            diff = self.b_embedded - self.b
            err = dt * sum(di * ki for di, ki in zip(diff, k) if di != 0.0)
        return unew, err


class LowStorageERK:
    """2N (Williamson) low-storage explicit Runge-Kutta.

    Uses only two registers regardless of stage count:

        du = A_i du + dt * rhs(t + c_i dt, u);  u += B_i du
    """

    def __init__(self, a, b, c, order: int, name: str):
        self.a = np.asarray(a, dtype=float)
        self.b = np.asarray(b, dtype=float)
        self.c = np.asarray(c, dtype=float)
        self.order = int(order)
        self.name = name
        self.stages = len(self.b)
        self._fbuf = None

    def stepper(self, rhs, t, u, dt, stage_hook=None):
        """One step in low-storage form (two registers), as a generator
        returning the updated state array (a fresh one: ``u`` is left
        untouched). Stage 1 is evaluated on ``u`` itself, as
        :class:`ButcherERK` does, so whatever the RHS memoized on that
        buffer — the property bundle of a ``stable_dt`` just before the
        step — is what stage 1 consumes; the working copy is taken
        afterwards. The copy is then updated in place between
        evaluations, so an RHS that memoizes on the buffer it is handed
        is told after each update (``rhs.mark_modified()``): no checksum
        of a conservative update is guaranteed to move."""
        u = np.asarray(u, dtype=float)
        du = np.zeros_like(u)
        use_out = getattr(rhs, "supports_out", False)
        if use_out and (self._fbuf is None or self._fbuf.shape != u.shape):
            self._fbuf = np.empty_like(u)
        mark_modified = getattr(rhs, "mark_modified", None)
        for i in range(self.stages):
            du *= self.a[i]
            f = yield from _evaluate(rhs, t + self.c[i] * dt, u,
                                     self._fbuf if use_out else None)
            if stage_hook is not None:
                stage_hook(i, f)
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

    def step(self, rhs, t, u, dt, stage_hook=None):
        """One step; returns the updated state array."""
        return _complete(self.stepper(rhs, t, u, dt, stage_hook))

    def step_with_error(self, rhs, t, u, dt, stage_hook=None):
        return self.step(rhs, t, u, dt, stage_hook=stage_hook), None


def _rkf45() -> ButcherERK:
    a = [
        [],
        [1 / 4],
        [3 / 32, 9 / 32],
        [1932 / 2197, -7200 / 2197, 7296 / 2197],
        [439 / 216, -8.0, 3680 / 513, -845 / 4104],
        [-8 / 27, 2.0, -3544 / 2565, 1859 / 4104, -11 / 40],
    ]
    # pad rows to full width
    a = [row + [0.0] * (6 - len(row)) for row in a]
    b4 = [25 / 216, 0.0, 1408 / 2565, 2197 / 4104, -1 / 5, 0.0]
    b5 = [16 / 135, 0.0, 6656 / 12825, 28561 / 56430, -9 / 50, 2 / 55]
    c = [0.0, 1 / 4, 3 / 8, 12 / 13, 1.0, 1 / 2]
    return ButcherERK(a, b4, c, order=4, name="rkf45", b_embedded=b5, order_embedded=5)


def _ck45() -> LowStorageERK:
    a = [
        0.0,
        -567301805773.0 / 1357537059087.0,
        -2404267990393.0 / 2016746695238.0,
        -3550918686646.0 / 2091501179385.0,
        -1275806237668.0 / 842570457699.0,
    ]
    b = [
        1432997174477.0 / 9575080441755.0,
        5161836677717.0 / 13612068292357.0,
        1720146321549.0 / 2090206949498.0,
        3134564353537.0 / 4481467310338.0,
        2277821191437.0 / 14882151754819.0,
    ]
    c = [
        0.0,
        1432997174477.0 / 9575080441755.0,
        2526269341429.0 / 6820363962896.0,
        2006345519317.0 / 3224310063776.0,
        2802321613138.0 / 2924317926251.0,
    ]
    return LowStorageERK(a, b, c, order=4, name="ck45")


def _rk4() -> ButcherERK:
    a = [
        [0.0, 0.0, 0.0, 0.0],
        [0.5, 0.0, 0.0, 0.0],
        [0.0, 0.5, 0.0, 0.0],
        [0.0, 0.0, 1.0, 0.0],
    ]
    b = [1 / 6, 1 / 3, 1 / 3, 1 / 6]
    c = [0.0, 0.5, 0.5, 1.0]
    return ButcherERK(a, b, c, order=4, name="rk4")


#: registry of available schemes
SCHEMES = {
    "rkf45": _rkf45,
    "ck45": _ck45,
    "rk4": _rk4,
}


class ERKIntegrator:
    """Time-integration driver over a named ERK scheme.

    Parameters
    ----------
    scheme:
        One of ``SCHEMES`` (default ``"rkf45"``).
    """

    def __init__(self, scheme: str = "rkf45"):
        try:
            self.scheme = SCHEMES[scheme]()
        except KeyError:
            raise ValueError(f"unknown ERK scheme {scheme!r}; choose from {sorted(SCHEMES)}") from None
        #: optional per-stage callback ``hook(stage_index, k_stage)``;
        #: the health monitor's RK-stage NaN guard installs here
        self.stage_hook = None

    @property
    def name(self) -> str:
        return self.scheme.name

    @property
    def order(self) -> int:
        return self.scheme.order

    @property
    def stages(self) -> int:
        return self.scheme.stages

    def step(self, rhs, t, u, dt):
        """Advance ``u`` from ``t`` to ``t + dt``."""
        return self.scheme.step(rhs, t, u, dt, stage_hook=self.stage_hook)

    def stepper(self, rhs, t, u, dt):
        """The same step as a generator, for an RHS that suspends."""
        return self.scheme.stepper(rhs, t, u, dt, stage_hook=self.stage_hook)

    def integrate(self, rhs, t0, u0, t1, n_steps: int):
        """Fixed-step integration; returns the final state."""
        if n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        dt = (t1 - t0) / n_steps
        u = np.asarray(u0, dtype=float)
        t = t0
        for _ in range(n_steps):
            u = self.step(rhs, t, u, dt)
            t += dt
        return u
