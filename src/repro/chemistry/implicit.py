"""Per-cell implicit chemistry integration with the analytical Jacobian.

The DNS explicit time step is wall-clocked by the fastest radical
timescales; this module integrates the per-cell reactor ODE

.. math:: \\dot z = f(z), \\qquad z = (Y_1 .. Y_{N_s}, T)

implicitly over one (possibly large) transport step so the Strang-split
solver (:class:`repro.core.solver.S3DSolver` with
``chemistry_mode="strang"``) can advance at the acoustic CFL. Two
second-order integrators are provided, both driven by the analytical
sparse Jacobian of :mod:`repro.chemistry.jacobian`:

``"rosw2"`` (default)
    The two-stage second-order Rosenbrock-W method of Verwer et al.
    (L-stable for exact J, :math:`\\gamma = 1 + 1/\\sqrt 2`). Its order
    is independent of the accuracy of the Jacobian used in the linear
    solves (the W property), which is what makes per-cell Jacobian
    *reuse* across substeps safe: a stale J can cost extra rejected
    steps, never accuracy order. Embedded first-order error estimate
    ``(h/2)(k1 + k2)``.

``"bdf2"``
    Variable-step BDF2 with an implicit-Euler startup step, solved by
    modified Newton: the iteration matrix ``I - beta h J`` keeps a
    frozen Jacobian that is refreshed only when stale
    (``jac_reuse_limit`` substeps), or after a step rejection or Newton
    convergence failure that used an aged one. The local error is
    estimated from the corrector-predictor difference (an O(h^2)
    curvature estimate — deliberately conservative; the measured global
    order is 2, see ``tests/test_implicit.py``).

Substepping is error-controlled **per cell**: each cell carries its own
time, step size, history, and Jacobian age, and every arithmetic
operation in the step loop is elementwise over the cell batch (the
linear algebra uses the hand-rolled partial-pivot LU below rather than
LAPACK). Consequently a cell's accept/reject trajectory — and its final
state, substep count, and Newton totals — is a pure function of that
cell's own data: results are bitwise independent of batch size, cell
ordering, and co-batched cells. That is the contract that lets the
chemistry load balancer (:mod:`repro.parallel.chemlb`) ship implicit
cell work between ranks and fall back to local evaluation bit-exactly,
and it is pinned by Hypothesis property tests.

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
``chem.implicit.newton_iters``, ``chem.implicit.factorizations``,
``chem.implicit.jacobian_reuses``, ``chem.implicit.source_cells`` and
``chem.implicit.jacobian_cells`` on the resolved backend (definitions:
:class:`ImplicitStats`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.chemistry.jacobian import SourceTermJacobian
from repro.core.config import KNOBS, resolve
from repro.telemetry import resolve as resolve_telemetry
from repro.util.reduction import axis0_sum

#: Solver-level chemistry coupling modes (SolverConfig.chemistry_mode).
CHEMISTRY_MODES = KNOBS["chemistry_mode"].choices

#: Implicit integration methods.
METHODS = KNOBS["chemistry_method"].choices

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
    newton_iters: int  #: modified-Newton iterations (bdf2; 0 for rosw2)
    factorizations: int  #: iteration-matrix LU factorizations
    #: trial steps that did not evaluate a Jacobian: the cell's cached one
    #: was younger than ``jac_reuse_limit`` accepted steps, or its last
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
    closure:
        Thermodynamic closure of the sub-ODE: ``"constant-volume"``
        (default — the physically consistent choice inside the
        compressible Strang step, which holds density and conserved
        energy fixed) or ``"constant-pressure"`` (the 0-D ignition
        problems).
    method:
        ``"rosw2"`` (default) or ``"bdf2"``; ``None`` defers to the
        ``chemistry_method`` knob's environment switch.
    rtol, atol_y, atol_T:
        Error-test tolerances; the per-cell weighted RMS norm uses
        weights ``atol + rtol |z|`` (``atol_y`` on species rows,
        ``atol_T`` on the temperature row).
    jac_reuse_limit:
        Maximum substeps a cell may reuse its cached Jacobian before a
        fresh analytical evaluation (1 = always fresh). A rejection or
        Newton failure forces a refresh regardless, unless the cached
        Jacobian was already evaluated at the state the cell retries
        from.
    max_newton, newton_tol:
        Modified-Newton iteration cap and displacement tolerance (in
        error-weight units) for ``bdf2``.
    max_substeps:
        Cap on *rounds* of the batch loop in one :meth:`advance` call.
        Every live cell takes one trial step (accepted or rejected) per
        round, so this bounds each cell's trial steps, not its accepted
        substeps; exceeding it raises ``RuntimeError``.
    safety:
        Safety factor of the step-size controller.
    fixed_substeps:
        When given, :meth:`advance` calls without an explicit
        ``fixed_steps`` take this many equal substeps instead of the
        adaptive controller (the convergence-study knob); ``None``
        defers to the ``fixed_substeps`` knob's environment switch.
    telemetry:
        Optional :class:`~repro.telemetry.Telemetry`; defaults to the
        process backend.
    """

    def __init__(
        self,
        mech,
        closure: str = "constant-volume",
        method: str = "rosw2",
        rtol: float = 1e-6,
        atol_y: float = 1e-11,
        atol_T: float = 1e-3,
        jac_reuse_limit: int = 5,
        max_newton: int = 10,
        newton_tol: float = 0.1,
        max_substeps: int = 100_000,
        safety: float = 0.9,
        fixed_substeps: int | None = None,
        telemetry=None,
    ):
        self.mech = mech
        self.closure = closure
        self.method = resolve("chemistry_method", method)
        self.stj = SourceTermJacobian(mech, mode=closure)
        self.rtol = float(rtol)
        self.atol_y = float(atol_y)
        self.atol_T = float(atol_T)
        self.jac_reuse_limit = max(1, int(jac_reuse_limit))
        self.max_newton = int(max_newton)
        self.newton_tol = float(newton_tol)
        self.max_substeps = int(max_substeps)
        self.safety = float(safety)
        self.telemetry = resolve_telemetry(telemetry)
        #: when set, :meth:`advance` calls without an explicit
        #: ``fixed_steps`` use this count instead of the adaptive
        #: controller — the order-of-accuracy studies set it so the
        #: integration error scales smoothly with the step size rather
        #: than through the controller's discrete accept/reject decisions
        self.fixed_substeps: int | None = resolve("fixed_substeps", fixed_substeps)
        ns = self.stj.ns
        self._atol = np.empty(ns + 1)
        self._atol[:ns] = self.atol_y
        self._atol[ns] = self.atol_T

    # -- public entry points -------------------------------------------
    def advance(self, T, Y, dt, p=None, rho=None, fixed_steps=None):
        """Integrate each cell's reactor ODE over ``dt``.

        ``T`` has shape ``(N,)``, ``Y`` shape ``(Ns, N)``; the closure
        parameter (``p`` for constant-pressure, ``rho`` for
        constant-volume) is scalar or ``(N,)``. Returns
        ``(T1, Y1, ImplicitStats)``. With ``fixed_steps=k`` the error
        controller is bypassed and every cell takes exactly ``k`` equal
        substeps (the order-of-accuracy measurement mode).
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
        kw = self._closure_param(T, p, rho)
        z = np.concatenate([Y, T[None]], axis=0)
        if fixed_steps is None:
            fixed_steps = self.fixed_substeps
        if fixed_steps is not None:
            z1, stats = self._advance_fixed(z, dt, int(fixed_steps), kw)
        else:
            z1, stats = self._advance_adaptive(z, dt, kw)
        tel = self.telemetry
        tel.counter("chem.implicit.substeps").inc(stats.total_substeps)
        tel.counter("chem.implicit.rejected_steps").inc(stats.rejected)
        tel.counter("chem.implicit.newton_iters").inc(stats.newton_iters)
        tel.counter("chem.implicit.factorizations").inc(stats.factorizations)
        tel.counter("chem.implicit.jacobian_reuses").inc(stats.jacobian_reuses)
        tel.counter("chem.implicit.source_cells").inc(stats.source_cells)
        tel.counter("chem.implicit.jacobian_cells").inc(stats.jacobian_cells)
        return z1[ns], z1[:ns], stats

    def advance_energy(self, rho, e_int, Y, dt, T_guess=None, fixed_steps=None):
        """Strang-step entry: advance at fixed ``(rho, e_int)``.

        Recovers the initial temperature from the (unchanged) specific
        internal energy with the per-cell Newton, integrates the
        constant-volume reactor, then re-inverts ``e(T, Y1)`` so the
        returned temperature is exactly consistent with the conserved
        energy the solver keeps — integration error in the reactor's own
        temperature variable is projected out rather than fed back.
        Pure per-cell function of ``(rho, e_int, Y, dt, T_guess)``.
        """
        if self.closure != "constant-volume":
            raise ValueError("advance_energy requires the constant-volume closure")
        rho = np.asarray(rho, dtype=float)
        e_int = np.asarray(e_int, dtype=float)
        T0 = self.mech.temperature_from_energy(e_int, Y, T_guess=T_guess)
        T1, Y1, stats = self.advance(
            T0, Y, dt, rho=rho, fixed_steps=fixed_steps
        )
        T1 = self.mech.temperature_from_energy(e_int, Y1, T_guess=T1)
        return T1, Y1, stats

    def stiffness_estimate(self, T, Y, p=None, rho=None):
        """Per-cell Gershgorin |λ|max bound of ∂f/∂z, shape (N,)."""
        kw = self._closure_param(np.asarray(T, dtype=float), p, rho)
        return self.stj.stiffness_estimate(T, Y, **kw)

    # -- internals ------------------------------------------------------
    def _closure_param(self, T, p, rho):
        if self.closure == "constant-pressure":
            if p is None:
                raise ValueError("constant-pressure closure requires p")
            return {"p": np.broadcast_to(np.asarray(p, dtype=float), T.shape)}
        if rho is None:
            raise ValueError("constant-volume closure requires rho")
        return {"rho": np.broadcast_to(np.asarray(rho, dtype=float), T.shape)}

    @staticmethod
    def _sub(kw, idx):
        return {k: v[idx] for k, v in kw.items()}

    def _weights(self, z):
        return self._atol[:, None] + self.rtol * np.abs(z)

    def _error_norm(self, err, weights):
        """Per-cell weighted RMS norm, reduction over the state axis."""
        r = err / weights
        return np.sqrt(axis0_sum(r * r) / r.shape[0])

    def _advance_adaptive(self, z, dt, kw):
        ns, n = self.stj.ns, self.stj.n
        N = z.shape[1]
        rosw2 = self.method == "rosw2"
        t = np.zeros(N)
        h = np.full(N, dt)
        substeps = np.zeros(N, dtype=np.int64)
        zprev = np.zeros_like(z)
        hprev = np.ones(N)
        have_hist = np.zeros(N, dtype=bool)
        jac = np.zeros((N, n, n))
        jac_age = np.full(N, self.jac_reuse_limit, dtype=np.int64)
        # f(z) at each cell's current state, valid until the cell accepts
        # a step: a rejected cell retries from the same z
        f0 = np.zeros_like(z)
        f0_valid = np.zeros(N, dtype=bool)
        rejected = newton_total = factorizations = reuses = 0
        source_cells = jacobian_cells = 0
        rounds = 0
        active = np.nonzero(t < dt * (1.0 - 1e-12))[0]
        while active.size:
            rounds += 1
            if rounds > self.max_substeps:
                raise RuntimeError(
                    f"implicit chemistry exceeded max_substeps="
                    f"{self.max_substeps} rounds; {_live_report(active, h)}"
                )
            hA = np.minimum(h[active], dt - t[active])
            # refresh stale Jacobians (per-cell age)
            need = jac_age[active] >= self.jac_reuse_limit
            if need.any():
                idx = active[need]
                with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                    jac[idx] = self.stj.jacobian(
                        z[ns, idx], z[:ns, idx], **self._sub(kw, idx)
                    )
                jac_age[idx] = 0
                jacobian_cells += int(idx.size)
            reuses += int((~need).sum())
            factorizations += int(active.size)
            # f(z0): every rosw2 cell, only the startup cells of bdf2
            cold = active if rosw2 else active[~have_hist[active]]
            cold = cold[~f0_valid[cold]]
            if cold.size:
                with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                    f0[:, cold] = self.stj.source(
                        z[ns, cold], z[:ns, cold], **self._sub(kw, cold)
                    )
                f0_valid[cold] = True
                source_cells += int(cold.size)
            zA = z[:, active]
            wts = self._weights(zA)
            kwA = self._sub(kw, active)
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                if rosw2:
                    z_new, err, fail = self._rosw2_step(
                        zA, hA, jac[active], f0[:, active], kwA
                    )
                    source_cells += int(active.size)  # the stage-2 source
                else:
                    z_new, err, fail, nit = self._bdf2_step(
                        zA,
                        hA,
                        jac[active],
                        zprev[:, active],
                        hprev[active],
                        have_hist[active],
                        f0[:, active],
                        kwA,
                        wts,
                    )
                    newton_total += nit
                    source_cells += nit  # one residual per Newton iteration
                enorm = self._error_norm(err, wts)
            bad = fail | ~np.isfinite(enorm) | ~np.isfinite(z_new).all(axis=0)
            ok = (enorm <= 1.0) & ~bad
            acc = active[ok]
            # history + state update for accepted cells
            zprev[:, acc] = z[:, acc]
            hprev[acc] = hA[ok]
            have_hist[acc] = True
            z[:, acc] = z_new[:, ok]
            t[acc] += hA[ok]
            substeps[acc] += 1
            f0_valid[acc] = False
            rej = active[~ok]
            rejected += int(rej.size)
            # a rejected step invalidates an aged Jacobian; one evaluated
            # at the cell's current state (age 0) is what a refresh would
            # return, so it stays
            jac_age[rej[jac_age[rej] > 0]] = self.jac_reuse_limit
            jac_age[acc] += 1
            # per-cell step-size controller (order-1 embedded → exponent 1/2)
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                fac = self.safety * enorm**-0.5
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
        return z, ImplicitStats(substeps, rejected, newton_total,
                                factorizations, reuses,
                                source_cells, jacobian_cells)

    def _advance_fixed(self, z, dt, k, kw):
        if k <= 0:
            raise ValueError("fixed_steps must be positive")
        ns, n = self.stj.ns, self.stj.n
        N = z.shape[1]
        h = np.full(N, dt / k)
        zprev = np.zeros_like(z)
        hprev = h
        have = np.zeros(N, dtype=bool)
        rosw2 = self.method == "rosw2"
        newton_total = source_cells = 0
        f0 = None
        for step in range(k):
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                jacA = self.stj.jacobian(z[ns], z[:ns], **kw)
                wts = self._weights(z)
                if rosw2 or step == 0:  # bdf2 needs f(z0) only at startup
                    f0 = self.stj.source(z[ns], z[:ns], **kw)
                    source_cells += N
                if rosw2:
                    z_new, _, fail = self._rosw2_step(z, h, jacA, f0, kw)
                    source_cells += N
                else:
                    z_new, _, fail, nit = self._bdf2_step(
                        z, h, jacA, zprev, hprev, have, f0, kw, wts
                    )
                    newton_total += nit
                    source_cells += nit
            if fail.any() or not np.isfinite(z_new).all():
                raise RuntimeError(
                    "fixed-step implicit chemistry step failed (step too large?)"
                )
            zprev = z
            have[:] = True
            z = z_new
        stats = ImplicitStats(
            np.full(N, k, dtype=np.int64), 0, newton_total, k * N, 0,
            source_cells, k * N,
        )
        return z, stats

    #: Newton displacement level (error-weight units) below which a
    #: non-contracting iteration is accepted rather than failed.
    _NEWTON_STAG_TOL = 0.5

    def _rosw2_step(self, z0, h, jac, f0, kw):
        """One trial Rosenbrock-W step on a cell subset; ``f0 = f(z0)``."""
        ns, n = self.stj.ns, self.stj.n
        M = (-(_ROS_GAMMA) * h)[:, None, None] * jac
        M[:, np.arange(n), np.arange(n)] += 1.0
        lu, piv = batched_lu_factor(M)
        k1 = batched_lu_solve(lu, piv, f0.T).T
        z_mid = z0 + h[None] * k1
        f1 = self.stj.source(z_mid[ns], z_mid[:ns], **kw)
        k2 = batched_lu_solve(lu, piv, (f1 - 2.0 * k1).T).T
        z_new = z0 + (0.5 * h)[None] * (3.0 * k1 + k2)
        err = (0.5 * h)[None] * (k1 + k2)
        fail = ~np.isfinite(z_new).all(axis=0)
        return z_new, err, fail

    def _bdf2_step(self, z0, h, jac, zp, hp, have, f0, kw, wts):
        """One trial BDF2 (or startup BDF1) step via modified Newton.

        ``f0`` holds ``f(z0)`` in the columns of the startup cells
        (``~have``); its other columns are never read."""
        ns, n = self.stj.ns, self.stj.n
        m = z0.shape[1]
        hp_safe = np.where(have, hp, 1.0)
        r = np.where(have, h / hp_safe, 0.0)
        denom = 1.0 + 2.0 * r
        a1 = np.where(have, (1.0 + r) ** 2 / denom, 1.0)
        a2 = np.where(have, -(r * r) / denom, 0.0)
        beta = np.where(have, (1.0 + r) / denom, 1.0)
        rhs_const = a1[None] * z0 + a2[None] * zp
        zpred = np.where(have[None], z0 + r[None] * (z0 - zp), z0)
        bh = beta * h
        M = (-bh)[:, None, None] * jac
        M[:, np.arange(n), np.arange(n)] += 1.0
        lu, piv = batched_lu_factor(M)
        zk = zpred.copy()
        fail = np.zeros(m, dtype=bool)
        idx = np.arange(m)
        prev_dn = np.full(m, np.inf)
        niter = 0
        for it in range(self.max_newton):
            f = self.stj.source(zk[ns, idx], zk[:ns, idx], **self._sub(kw, idx))
            G = zk[:, idx] - bh[idx][None] * f - rhs_const[:, idx]
            delta = -batched_lu_solve(lu[idx], piv[idx], G.T).T
            zk[:, idx] += delta
            niter += int(idx.size)
            dn = self._error_norm(delta, wts[:, idx])
            bad = ~np.isfinite(dn) | ~np.isfinite(zk[:, idx]).all(axis=0)
            done = (dn < self.newton_tol) & ~bad
            if it >= 1:
                # stagnation acceptance: the frozen-Jacobian iteration can
                # enter a slow linear tail (classic when radicals are born
                # from exactly-zero mass fractions, where the clipped-rate
                # sub-gradient underestimates the coupling). Once the
                # displacement is already well below the step error
                # tolerance and no longer contracting, further iterations
                # buy nothing the error test doesn't already control.
                stag = (dn < self._NEWTON_STAG_TOL) & (dn >= 0.5 * prev_dn[idx])
                done |= stag & ~bad
            fail[idx[bad]] = True
            prev_dn[idx] = dn
            idx = idx[~done & ~bad]
            if idx.size == 0:
                break
        fail[idx] = True  # ran out of iterations
        # error estimate: corrector-predictor difference for BDF2 cells,
        # z1 - z0 - h f(z0) for the implicit-Euler startup cells
        diff = zk - zpred
        no_hist = ~have
        if no_hist.any():
            j = np.nonzero(no_hist)[0]
            diff[:, j] = zk[:, j] - z0[:, j] - h[j][None] * f0[:, j]
        return zk, diff, fail, niter
