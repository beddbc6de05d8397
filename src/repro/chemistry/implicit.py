"""Per-cell implicit chemistry integration with the analytical Jacobian.

The DNS explicit time step is wall-clocked by the fastest radical
timescales; this module integrates the per-cell reactor ODE

.. math:: \\dot z = f(z), \\qquad z = (Y_1 .. Y_{N_s}, T)

implicitly over one (possibly large) transport step so the Strang-split
solver (:class:`repro.core.solver.S3DSolver` with
``chemistry_mode="strang"``) can advance at the acoustic CFL, on the
constant-volume closure of :mod:`repro.chemistry.jacobian` (the split
sub-ODE holds density and conserved energy fixed). The one integrator,
``"rosw2"``, is the two-stage second-order Rosenbrock-W method of Verwer
et al. (L-stable for exact J, :math:`\\gamma = 1 + 1/\\sqrt 2`),
driven by the analytical sparse Jacobian. Its order is independent of
the accuracy of the Jacobian used in the linear solves (the W
property), which is what makes per-cell Jacobian *reuse* across
substeps safe: a stale J can cost extra rejected steps, never accuracy
order. Embedded first-order error estimate ``(h/2)(k1 + k2)``.

Substepping is error-controlled **per cell**: each cell carries its own
time, step size, and Jacobian age, and every arithmetic
operation in the step loop is elementwise over the cell batch (the
linear algebra uses the hand-rolled partial-pivot LU below rather than
LAPACK). Consequently a cell's accept/reject trajectory — and its final
state and substep count — is a pure function of that
cell's own data: results are bitwise independent of batch size, cell
ordering, and co-batched cells. That is the contract that lets the
chemistry load balancer (:mod:`repro.parallel.chemlb`) ship implicit
cell work between ranks bit-exactly, and it is pinned by Hypothesis
property tests.

One round of the batch loop does only the work that round needs. A
rejected cell retries from the state it already stands at, so its
``f(z0)`` is kept (a per-cell cache valid until the cell accepts a step)
and so is a Jacobian that was evaluated at that state; only a Jacobian
carried over from earlier accepted steps is refreshed on rejection.
Both are the values a re-evaluation would return, bit for bit, so the
accept/reject trajectories are those of evaluating everything every
round (the frozen oracle in ``tests/test_implicit.py`` does exactly
that).

Telemetry: each :meth:`ImplicitChemistry.advance` increments
``chem.implicit.substeps``, ``chem.implicit.rejected_steps``,
``chem.implicit.factorizations``,
``chem.implicit.jacobian_reuses``, ``chem.implicit.source_cells`` and
``chem.implicit.jacobian_cells`` on the resolved backend (definitions:
:class:`ImplicitStats`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.chemistry.jacobian import SourceTermJacobian
from repro.telemetry import resolve as resolve_telemetry
from repro.util.reduction import axis0_sum

#: Rosenbrock-W gamma: L-stable second-order choice.
_ROS_GAMMA = 1.0 + 1.0 / np.sqrt(2.0)


# ----------------------------------------------------------------------
# batched dense LU with partial pivoting
# ----------------------------------------------------------------------
def batched_lu_factor(a):
    """LU-factorize a batch of small dense matrices, shape (N, n, n).

    Partial (row) pivoting per matrix; returns ``(lu, piv)`` with L unit
    lower / U upper packed in ``lu`` and ``piv[b, k]`` the row swapped
    with ``k`` at elimination step ``k`` (LAPACK ``getrf`` convention).

    Every operation is elementwise per matrix (argmax over the matrix's
    own column, fancy-indexed row swaps, rank-1 updates), so each
    matrix's factors are bitwise independent of the batch it rides in —
    unlike ``numpy.linalg`` routines, whose BLAS kernels may block
    across the batch. A singular pivot produces inf/nan factors rather
    than raising; callers detect non-finite solves and treat the cell as
    a failed step.
    """
    lu = np.array(a, dtype=float, copy=True)
    if lu.ndim != 3 or lu.shape[1] != lu.shape[2]:
        raise ValueError(f"expected (N, n, n) batch, got {lu.shape}")
    N, n, _ = lu.shape
    piv = np.empty((N, n), dtype=np.int64)
    rows = np.arange(N)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for k in range(n):
            p = np.abs(lu[:, k:, k]).argmax(axis=1) + k
            piv[:, k] = p
            if (p != k).any():  # no matrix pivots here: nothing to swap
                tmp = lu[rows, p, :]
                lu[rows, p, :] = lu[:, k, :]
                lu[:, k, :] = tmp
            if k + 1 < n:
                lu[:, k + 1 :, k] /= lu[:, k, None, k]
                lu[:, k + 1 :, k + 1 :] -= (
                    lu[:, k + 1 :, k, None] * lu[:, k, None, k + 1 :]
                )
    return lu, piv


def batched_lu_solve(lu, piv, b):
    """Solve the factored batch against right-hand sides ``b`` (N, n).

    Same per-matrix elementwise discipline as :func:`batched_lu_factor`;
    the forward/back substitution reductions run over each cell's own
    row (fixed length n), so solutions are batch-shape independent.
    """
    x = np.array(b, dtype=float, copy=True)
    N, n = x.shape
    rows = np.arange(N)
    for k in np.nonzero((piv != np.arange(n)).any(axis=0))[0]:
        p = piv[:, k]
        tmp = x[rows, p]
        x[rows, p] = x[:, k]
        x[:, k] = tmp
    for k in range(1, n):
        x[:, k] -= (lu[:, k, :k] * x[:, :k]).sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for k in range(n - 1, -1, -1):
            if k + 1 < n:
                x[:, k] -= (lu[:, k, k + 1 :] * x[:, k + 1 :]).sum(axis=1)
            x[:, k] /= lu[:, k, k]
    return x


# ----------------------------------------------------------------------
# integrator
# ----------------------------------------------------------------------
def _live_report(live, h):
    """The cells still integrating and their smallest step, for errors."""
    return f"{live.size} cells still live, smallest h = {h[live].min():.3e} s"


@dataclass
class ImplicitStats:
    """Work accounting for one :meth:`ImplicitChemistry.advance` call."""

    substeps: np.ndarray  #: accepted substeps per cell, shape (N,)
    rejected: int  #: rejected trial steps (total over cells)
    factorizations: int  #: iteration-matrix LU factorizations
    #: trial steps that did not evaluate a Jacobian: the cell's cached one
    #: was younger than ``JAC_REUSE_LIMIT`` accepted steps, or its last
    #: trial was rejected with a Jacobian already evaluated at the state
    #: it retries from (re-evaluating would return the same matrix)
    jacobian_reuses: int
    source_cells: int  #: cells ``SourceTermJacobian.source`` evaluated
    jacobian_cells: int  #: cells the analytical Jacobian was evaluated on

    @property
    def total_substeps(self) -> int:
        return int(self.substeps.sum())


class ImplicitChemistry:
    """Error-controlled per-cell implicit reactor integration.

    Parameters
    ----------
    mech:
        Reacting :class:`~repro.chemistry.mechanism.Mechanism`.
    closure, method:
        ``"constant-volume"`` and ``"rosw2"``, the one closure and the
        one integrator; any other value raises ``ValueError``.
    rtol:
        Relative tolerance of the error test; the per-cell weighted RMS
        norm uses weights ``atol + rtol |z|`` (:attr:`ATOL_Y` on species
        rows, :attr:`ATOL_T` on the temperature row).
    telemetry:
        Optional :class:`~repro.telemetry.Telemetry`; defaults to the
        process backend.
    """

    #: absolute error-test tolerances: species rows, temperature row [K]
    ATOL_Y = 1e-11
    ATOL_T = 1e-3
    #: accepted substeps a cell may reuse its cached Jacobian before a
    #: fresh analytical evaluation; a rejection forces a refresh, unless
    #: the cached Jacobian was evaluated at the state the cell retries from
    JAC_REUSE_LIMIT = 5
    #: cap on *rounds* of the batch loop in one :meth:`advance` call.
    #: Every live cell takes one trial step per round, so this bounds
    #: each cell's trial steps; exceeding it raises ``RuntimeError``
    MAX_SUBSTEPS = 100_000
    #: safety factor of the step-size controller
    SAFETY = 0.9

    def __init__(
        self,
        mech,
        closure: str = "constant-volume",
        method: str = "rosw2",
        rtol: float = 1e-6,
        telemetry=None,
    ):
        if method != "rosw2":
            raise ValueError(
                f"unknown implicit method {method!r}; the one method is 'rosw2'")
        self.mech = mech
        self.stj = SourceTermJacobian(mech, mode=closure)
        self.rtol = float(rtol)
        self.telemetry = resolve_telemetry(telemetry)
        #: when set, :meth:`advance` uses this count instead of the
        #: adaptive controller — the order-of-accuracy studies set it so
        #: the integration error scales smoothly with the step size rather
        #: than through the controller's discrete accept/reject decisions
        self.fixed_substeps: int | None = None
        ns = self.stj.ns
        self._atol = np.empty(ns + 1)
        self._atol[:ns] = self.ATOL_Y
        self._atol[ns] = self.ATOL_T

    # -- public entry points -------------------------------------------
    def advance(self, T, Y, dt, rho):
        """Integrate each cell's constant-volume reactor ODE over ``dt``.

        ``T`` has shape ``(N,)``, ``Y`` shape ``(Ns, N)``, the density
        ``rho`` is scalar or ``(N,)``. Returns ``(T1, Y1, ImplicitStats)``.
        With :attr:`fixed_substeps` set the error controller is bypassed
        and every cell takes exactly that many equal substeps (the
        order-of-accuracy measurement mode).
        """
        T = np.asarray(T, dtype=float)
        Y = np.asarray(Y, dtype=float)
        ns = self.stj.ns
        if T.ndim != 1 or Y.shape != (ns, T.shape[0]):
            raise ValueError(
                f"expected T (N,) and Y (Ns, N); got {T.shape} and {Y.shape}"
            )
        dt = float(dt)
        if dt <= 0.0:
            raise ValueError("dt must be positive")
        rho = np.broadcast_to(np.asarray(rho, dtype=float), T.shape)
        z = np.concatenate([Y, T[None]], axis=0)
        if self.fixed_substeps is not None:
            z1, stats = self._advance_fixed(z, dt, int(self.fixed_substeps), rho)
        else:
            z1, stats = self._advance_adaptive(z, dt, rho)
        tel = self.telemetry
        tel.counter("chem.implicit.substeps").inc(stats.total_substeps)
        tel.counter("chem.implicit.rejected_steps").inc(stats.rejected)
        tel.counter("chem.implicit.factorizations").inc(stats.factorizations)
        tel.counter("chem.implicit.jacobian_reuses").inc(stats.jacobian_reuses)
        tel.counter("chem.implicit.source_cells").inc(stats.source_cells)
        tel.counter("chem.implicit.jacobian_cells").inc(stats.jacobian_cells)
        return z1[ns], z1[:ns], stats

    def advance_energy(self, rho, e_int, Y, dt, T_guess=None):
        """Strang-step entry: advance at fixed ``(rho, e_int)``.

        Recovers the initial temperature from the (unchanged) specific
        internal energy with the per-cell Newton, integrates the
        constant-volume reactor, then re-inverts ``e(T, Y1)`` so the
        returned temperature is exactly consistent with the conserved
        energy the solver keeps — integration error in the reactor's own
        temperature variable is projected out rather than fed back.
        Pure per-cell function of ``(rho, e_int, Y, dt, T_guess)``.
        """
        rho = np.asarray(rho, dtype=float)
        e_int = np.asarray(e_int, dtype=float)
        T0 = self.mech.temperature_from_energy(e_int, Y, T_guess=T_guess)
        T1, Y1, stats = self.advance(T0, Y, dt, rho)
        T1 = self.mech.temperature_from_energy(e_int, Y1, T_guess=T1)
        return T1, Y1, stats

    # -- internals ------------------------------------------------------
    def _weights(self, z):
        return self._atol[:, None] + self.rtol * np.abs(z)

    def _error_norm(self, err, weights):
        """Per-cell weighted RMS norm, reduction over the state axis."""
        r = err / weights
        return np.sqrt(axis0_sum(r * r) / r.shape[0])

    def _advance_adaptive(self, z, dt, rho):
        ns, n = self.stj.ns, self.stj.n
        N = z.shape[1]
        t = np.zeros(N)
        h = np.full(N, dt)
        substeps = np.zeros(N, dtype=np.int64)
        jac = np.zeros((N, n, n))
        jac_age = np.full(N, self.JAC_REUSE_LIMIT, dtype=np.int64)
        # f(z) at each cell's current state, valid until the cell accepts
        # a step: a rejected cell retries from the same z
        f0 = np.zeros_like(z)
        f0_valid = np.zeros(N, dtype=bool)
        rejected = factorizations = reuses = 0
        source_cells = jacobian_cells = 0
        rounds = 0
        active = np.nonzero(t < dt * (1.0 - 1e-12))[0]
        while active.size:
            rounds += 1
            if rounds > self.MAX_SUBSTEPS:
                raise RuntimeError(
                    f"implicit chemistry exceeded max_substeps="
                    f"{self.MAX_SUBSTEPS} rounds; {_live_report(active, h)}"
                )
            hA = np.minimum(h[active], dt - t[active])
            # refresh stale Jacobians (per-cell age)
            need = jac_age[active] >= self.JAC_REUSE_LIMIT
            if need.any():
                idx = active[need]
                with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                    jac[idx] = self.stj.jacobian(z[ns, idx], z[:ns, idx],
                                                 rho=rho[idx])
                jac_age[idx] = 0
                jacobian_cells += int(idx.size)
            reuses += int((~need).sum())
            factorizations += int(active.size)
            cold = active[~f0_valid[active]]
            if cold.size:
                with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                    f0[:, cold] = self.stj.source(z[ns, cold], z[:ns, cold],
                                                  rho=rho[cold])
                f0_valid[cold] = True
                source_cells += int(cold.size)
            zA = z[:, active]
            wts = self._weights(zA)
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                z_new, err, fail = self._rosw2_step(
                    zA, hA, jac[active], f0[:, active], rho[active]
                )
                source_cells += int(active.size)  # the stage-2 source
                enorm = self._error_norm(err, wts)
            bad = fail | ~np.isfinite(enorm) | ~np.isfinite(z_new).all(axis=0)
            ok = (enorm <= 1.0) & ~bad
            acc = active[ok]
            z[:, acc] = z_new[:, ok]
            t[acc] += hA[ok]
            substeps[acc] += 1
            f0_valid[acc] = False
            rej = active[~ok]
            rejected += int(rej.size)
            # a rejected step invalidates an aged Jacobian; one evaluated
            # at the cell's current state (age 0) is what a refresh would
            # return, so it stays
            jac_age[rej[jac_age[rej] > 0]] = self.JAC_REUSE_LIMIT
            jac_age[acc] += 1
            # per-cell step-size controller (order-1 embedded → exponent 1/2)
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                fac = self.SAFETY * enorm**-0.5
            fac = np.where(np.isfinite(fac), fac, 5.0)
            fac = np.clip(fac, 0.2, 5.0)
            fac = np.where(bad, 0.25, fac)
            h[active] = hA * fac
            active = np.nonzero(t < dt * (1.0 - 1e-12))[0]
            if np.any(h[active] < dt * 1e-12):
                raise RuntimeError(
                    "implicit chemistry step-size underflow; "
                    + _live_report(active, h)
                )
        return z, ImplicitStats(substeps, rejected, factorizations, reuses,
                                source_cells, jacobian_cells)

    def _advance_fixed(self, z, dt, k, rho):
        ns = self.stj.ns
        N = z.shape[1]
        h = np.full(N, dt / k)
        for _ in range(k):
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                jacA = self.stj.jacobian(z[ns], z[:ns], rho=rho)
                f0 = self.stj.source(z[ns], z[:ns], rho=rho)
                z_new, _, fail = self._rosw2_step(z, h, jacA, f0, rho)
            if fail.any() or not np.isfinite(z_new).all():
                raise RuntimeError(
                    "fixed-step implicit chemistry step failed (step too large?)"
                )
            z = z_new
        stats = ImplicitStats(
            np.full(N, k, dtype=np.int64), 0, k * N, 0, 2 * k * N, k * N,
        )
        return z, stats

    def _rosw2_step(self, z0, h, jac, f0, rho):
        """One trial Rosenbrock-W step on a cell subset; ``f0 = f(z0)``."""
        ns, n = self.stj.ns, self.stj.n
        M = (-(_ROS_GAMMA) * h)[:, None, None] * jac
        M[:, np.arange(n), np.arange(n)] += 1.0
        lu, piv = batched_lu_factor(M)
        k1 = batched_lu_solve(lu, piv, f0.T).T
        z_mid = z0 + h[None] * k1
        f1 = self.stj.source(z_mid[ns], z_mid[:ns], rho=rho)
        k2 = batched_lu_solve(lu, piv, (f1 - 2.0 * k1).T).T
        z_new = z0 + (0.5 * h)[None] * (3.0 * k1 + k2)
        err = (0.5 * h)[None] * (k1 + k2)
        fail = ~np.isfinite(z_new).all(axis=0)
        return z_new, err, fail
