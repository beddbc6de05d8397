"""Right-hand side of the compressible reacting Navier-Stokes equations.

Assembles eqs. (1)-(4) of the paper in conservative form:

    d(rho)/dt     = -div(rho u)
    d(rho u_a)/dt = -div(rho u_a u) - grad_a p + div(tau_a.)
    d(rho e0)/dt  = -div(u (rho e0 + p)) + div(tau . u) - div(q)
    d(rho Y_i)/dt = -div(rho Y_i u) - div(J_i) + W_i omega_i

with the stress tensor of eq. (14), mixture-averaged species diffusion
of eq. (19) (with the mass-conserving correction velocity enforcing
eq. 15), and the heat flux of eq. (20). Body forces, radiation, Dufour
effect, and barodiffusion are neglected per §2.2-2.5; the Soret term is
optional via the transport model.

One program evaluates it (:meth:`CompressibleRHS.__call__`). All scalars
needing d/dx_b (velocity components, T, wbar, every Y_i, and later the
per-variable flux fields) are packed into one ``(nfields, ...)`` stack
and differentiated with a single vectorized stencil sweep per direction
(~3 large sweeps per direction instead of ~2·ndim + 2·ns small ones).
All intermediate storage comes from a
:class:`~repro.core.workspace.Workspace` arena, thermo/transport
properties are memoized per state buffer (shared between the flux
assembly, the reaction heat release, and :meth:`stable_dt`), and results
can land in a caller-supplied ``out`` array — a warm steady-state
evaluation performs zero large allocations (``rhs.bytes_allocated``
telemetry gauge reads 0).

:meth:`CompressibleRHS.reference` is its oracle: the original
one-sweep-per-(variable, direction) formulation, kept verbatim. The two
are bit-exact against each other: same operator coefficients, same
per-element operation order within every field (enforced by
``tests/test_rhs_engine.py``). The diffusive-flux assembly is the kernel
§4.1 restructures; both the program and :mod:`repro.loopopt.diffflux`
call the shared fused implementation in :mod:`repro.core.kernels`.
"""

from __future__ import annotations

import numpy as np

from repro.chemistry.thermo import tiles
from repro.core.derivatives import gradient_operators
from repro.core.kernels import species_diffusive_flux_dir
from repro.core import nscbc
from repro.core.workspace import Workspace
from repro.util.reduction import axis0_sum
from repro.telemetry import resolve as resolve_telemetry


class _EvalProps:
    """Memoized thermo/transport bundle for one state buffer."""

    __slots__ = ("u", "version", "fingerprint", "rho", "vel", "T", "p", "Y",
                 "e0", "wbar", "props", "h_i")


class _Eval:
    """What one evaluation carries from phase to phase."""

    __slots__ = ("t", "u", "out", "pc", "gstack", "grads", "tmp_s", "hq", "tau",
                 "flux_j", "flux_q", "fstacks", "dstacks", "sourced", "wdot")


def _fingerprint(u: np.ndarray):
    """Cheap content fingerprint catching in-place buffer mutation."""
    return (float(u.flat[0]), float(u.flat[-1]), float(u.sum()))


class CompressibleRHS:
    """Callable RHS ``f(t, u) -> du/dt`` over conserved arrays.

    Parameters
    ----------
    state:
        A :class:`~repro.core.state.State` used for primitive decoding
        (supplies mechanism, grid, temperature cache).
    transport:
        Transport model with an ``evaluate(T, p, Y)`` method, or None for
        inviscid (Euler) operation.
    boundaries:
        Mapping ``(axis, side) -> BoundarySpec``.
    reacting:
        Include chemical source terms.
    telemetry:
        :class:`~repro.telemetry.Telemetry` backend; kernel blocks are
        traced under the §4 inventory names (THERMOPROPS,
        COMPUTESPECIESDIFFFLUX, COMPUTEHEATFLUX, REACTION_RATES), with
        derivative sweeps nesting their own DERIVATIVES spans so
        exclusive times split out TAU-style. (The species-gradient
        sweeps live in the shared stacked sweep, so their DERIVATIVES
        time does not nest inside COMPUTESPECIESDIFFFLUX.)
    workspace:
        Optional shared :class:`~repro.core.workspace.Workspace`; by
        default each RHS owns a private arena.

    Notes
    -----
    ``__call__`` accepts an optional ``out`` array (advertised via
    :attr:`supports_out`) and diagnostic arrays such as
    :attr:`last_heat_release` are workspace-owned — valid until the next
    evaluation.
    """

    #: ``__call__`` computes directly into an ``out`` array
    supports_out = True
    #: Fourier number of :meth:`stable_dt`'s diffusive limit
    FOURIER = 0.4

    def __init__(self, state, transport=None, boundaries=None, reacting=True,
                 telemetry=None, workspace=None):
        self.state = state
        self.mech = state.mech
        self.grid = state.grid
        self.transport = transport
        self.boundaries = dict(boundaries or {})
        self.reacting = bool(reacting)
        self.telemetry = resolve_telemetry(telemetry)
        self.ops = gradient_operators(self.grid, telemetry=self.telemetry)
        self.ndim = self.grid.ndim
        self._needs_nscbc = any(
            spec.kind != "periodic" for spec in self.boundaries.values()
        )
        # gradient stack layout: [vel_0..vel_{ndim-1}, T] (+ wbar when
        # viscous) (+ Y_0..Y_{ns-1} when viscous or with characteristic
        # faces) (+ rho, p with characteristic faces); pure-periodic Euler
        # needs no primitive gradients at all
        viscous, ns = transport is not None, self.mech.n_species
        self._idx_t = self.ndim
        self._idx_w = self.ndim + 1 if viscous else None
        self._idx_y = self.ndim + 1 + viscous
        self._nf = self._idx_y + ns + 2 * self._needs_nscbc
        self._nscbc = None
        if self._needs_nscbc:
            fields = [*range(self.ndim), *range(self._idx_y, self._nf - 2),
                      self._idx_t, self._nf - 2, self._nf - 1]
            self._nscbc = nscbc.BoundaryPass(self, fields, self._nf)
        self.workspace = workspace if workspace is not None else Workspace(
            telemetry=self.telemetry
        )
        self._props_cache = None
        self._eval = None
        #: populated after every evaluation — kernel-level diagnostics
        self.last_heat_release = None

    def mark_modified(self) -> None:
        """The buffer last evaluated was updated in place (a low-storage
        RK stage): memoized properties of it are stale."""
        self.state.mark_modified()

    # ------------------------------------------------------------------
    def __call__(self, t, u, out=None):
        self.begin(t, u, out)
        self.fluxes()
        return self.finish()

    # ------------------------------------------------------------------
    # memoized thermo/transport properties
    # ------------------------------------------------------------------
    def _eval_props(self, u) -> _EvalProps:
        """Primitives + transport + species enthalpies for ``u``, memoized.

        One evaluation is shared between the diffusive-flux, heat-flux,
        and reaction consumers of a single RHS call, and with a
        :meth:`stable_dt` on the *same buffer* right after it. The cache
        key is the buffer object and the state's version token, which
        whoever updates a buffer in place bumps (:meth:`mark_modified`:
        the low-storage RK stage update, the filter, the Strang
        reactors); the content fingerprint is a second line against an
        update nobody declared and proves nothing by itself — a
        conservative update of a quiescent far field moves neither the
        corner values nor, to rounding, the sum.

        The memo bridges :meth:`stable_dt` and the first integrator
        stage: the integrator evaluates stage 1 on the state array itself
        (``ERKIntegrator.stepper`` takes its working copy after it), so a
        CFL-adaptive step, or the ``full``-mode CFL watchdog's look at
        the finished step, shares its evaluation with stage 1 — five
        property evaluations per adaptive ``ck45`` step, not six. That
        sharing is also what keeps the watchdog bitwise invisible,
        because a second warm Newton solve of the same state is not
        idempotent in the last bit. A fixed-``dt`` step has no estimate
        to share, and a Strang half-step in between bumps the version.
        """
        st = self.state
        u = np.asarray(u, dtype=float)
        fp = _fingerprint(u)
        cache = self._props_cache
        if (
            cache is not None
            and cache.u is u
            and cache.version == st.version
            and cache.fingerprint == fp
        ):
            self.telemetry.counter("rhs.props_cache_hits").inc()
            return cache
        ws = self.workspace
        with self.telemetry.span("THERMOPROPS"):
            rho, vel, T, p, Y, e0, wbar = st.primitives_ws(u, ws)
            props = None
            if self.transport is not None:
                props = self.transport.evaluate(T, p, Y, workspace=ws)
            h_i = None
            if (self.transport is not None or (self.reacting and self.mech.n_reactions)
                    or self._nscbc is not None and self._nscbc.n):
                h_i = self.mech.species_enthalpy_mass(T)
        pc = _EvalProps()
        pc.u, pc.version, pc.fingerprint = u, st.version, fp
        pc.rho, pc.vel, pc.T, pc.p, pc.Y, pc.e0, pc.wbar = rho, vel, T, p, Y, e0, wbar
        pc.props, pc.h_i = props, h_i
        self._props_cache = pc
        return pc

    # ------------------------------------------------------------------
    # one evaluation, three phases
    # ------------------------------------------------------------------
    # An evaluation has two points where a stencil reaches beyond the
    # block it runs on: the gradient sweeps read the primitive stack
    # :meth:`begin` fills, the divergence sweeps read the flux stacks
    # :meth:`fluxes` assembles. A serial evaluation runs the three phases
    # back to back and every sweep wraps periodically or closes one-sided;
    # a rank of a decomposed domain runs one phase per execution-plane
    # call and hands each sweep of a decomposed direction the ghost slabs
    # its neighbours produced in the phase before (``ghosts``: direction
    # -> ``(lo, hi)``). Only faces are ever exchanged (every stencil is
    # axis-aligned) and no ghost value is ever computed here. What needs
    # no ghost can run while the slabs travel: :meth:`sources` any time
    # after :meth:`begin`, :meth:`local_divergence` after :meth:`fluxes`;
    # :meth:`finish` runs whichever of the two nobody ran, and adds every
    # term in the one fixed order either way.
    def begin(self, t, u, out=None):
        """Phase A: pointwise properties and the primitive-gradient stack.

        Returns the ``(nfields,) + S`` stack the gradient sweeps of
        :meth:`fluxes` differentiate, or ``None`` when nothing needs a
        primitive gradient (periodic Euler).
        """
        ndim = self.ndim
        ws = self.workspace
        ws.begin_eval()
        u = np.asarray(u, dtype=float)
        if out is not None:
            if out.shape != u.shape:
                raise ValueError(f"out has shape {out.shape}, expected {u.shape}")
            if np.may_share_memory(out, u):
                raise ValueError("out must not alias the state array")
        ev = self._eval = _Eval()
        ev.t, ev.u, ev.out = t, u, out
        ev.dstacks, ev.sourced, ev.wdot = {}, False, None
        pc = ev.pc = self._eval_props(u)
        S = pc.rho.shape
        # -- primitive gradients: one stacked sweep per direction --------
        ev.gstack = None
        if self.transport is not None or self._needs_nscbc:
            ev.gstack = self._fill_stack(
                ws.array("rhs.gstack", (self._nf,) + S),
                ws.array("state.vel", (ndim,) + S), pc.T, pc.wbar, pc.Y, pc.rho, pc.p)
        return ev.gstack

    def _fill_stack(self, stack, vel, T, wbar, Y, rho, p):
        """The primitives to differentiate, in the stack layout."""
        iy = self._idx_y
        stack[0 : self.ndim] = vel
        stack[self._idx_t] = T
        if self._idx_w is not None:
            stack[self._idx_w] = wbar
        stack[iy : iy + self.mech.n_species] = Y
        if self._needs_nscbc:
            stack[-2] = rho
            stack[-1] = p
        return stack

    def fluxes(self, ghosts=None) -> dict:
        """Phase B: gradient sweeps, then stress, species-flux and
        heat-flux assembly.

        ``ghosts`` names the decomposed directions and carries the ghost
        slabs of the gradient stack along each (``None`` when
        :meth:`begin` had no stack). Returns the assembled flux stack of
        every direction in ``ghosts`` — its edge slabs are what the
        neighbours' divergence sweeps need; the other directions
        assemble theirs in :meth:`finish`, one at a time in one buffer.
        """
        ev = self._eval
        ghosts = ghosts or {}
        mech = self.mech
        ndim = self.ndim
        tel = self.telemetry
        ws = self.workspace
        pc = ev.pc
        rho, T, Y, wbar = pc.rho, pc.T, pc.Y, pc.wbar
        S = rho.shape
        ns = mech.n_species
        idx_t, idx_w, idx_y = self._idx_t, self._idx_w, self._idx_y
        grads = ev.grads = None
        if ev.gstack is not None:
            grads = ev.grads = ws.array("rhs.grads", (ndim,) + ev.gstack.shape)
            for b in range(ndim):
                self.ops[b].apply_stack(ev.gstack, axis=b, out=grads[b],
                                        ghosts=ghosts.get(b))

        tmp_s = ev.tmp_s = ws.array("rhs.tmp_s", S)
        if self.transport is not None:
            props = pc.props
            mu, lam, dcoef = props.viscosity, props.conductivity, props.diffusivities
            # divergence and stress tensor, eq. (14); tau is symmetric so
            # only the upper triangle is stored (shared views, no copies)
            div_u = ws.array("rhs.div_u", S)
            div_u[...] = grads[0, 0]
            for a in range(1, ndim):
                div_u += grads[a, a]
            tau_buf = ws.array("rhs.tau", (ndim * (ndim + 1) // 2,) + S)
            tau = ev.tau = [[None] * ndim for _ in range(ndim)]
            idx = 0
            for a in range(ndim):
                for b in range(a, ndim):
                    t_ab = tau_buf[idx]
                    idx += 1
                    # grad_vel[a][b] + grad_vel[b][a] with
                    # grad_vel[a][b] = d(vel_a)/dx_b = grads[b, a]
                    np.add(grads[b, a], grads[a, b], out=t_ab)
                    t_ab *= mu
                    if a == b:
                        np.multiply(mu, 2.0 / 3.0, out=tmp_s)
                        tmp_s *= div_u
                        t_ab -= tmp_s
                    tau[a][b] = t_ab
                    tau[b][a] = t_ab
            # species diffusive fluxes, eq. (19) + correction (eq. 15)
            with tel.span("COMPUTESPECIESDIFFFLUX"):
                flux_j = ev.flux_j = ws.array("rhs.flux_j", (ns, ndim) + S)
                tmp_ns = ws.array("rhs.tmp_ns", (ns,) + S)
                neg_rho_d = ws.array("rhs.neg_rho_d", (ns,) + S)
                np.negative(rho, out=tmp_s)
                np.multiply(tmp_s[None], dcoef, out=neg_rho_d)
                gw = ws.array("rhs.gw", S)
                soret = props.thermal_diffusion_ratios is not None
                if soret:
                    # prefactor chain (((-rho·D)·theta)·W_i/wbar), grouped
                    # exactly as the expression in :meth:`reference`
                    soret_pref = ws.array("rhs.soret_pref", (ns,) + S)
                    np.multiply(neg_rho_d, props.thermal_diffusion_ratios,
                                out=soret_pref)
                    np.divide(mech.weights.reshape((-1,) + (1,) * rho.ndim),
                              wbar[None], out=tmp_ns)
                    soret_pref *= tmp_ns
                    glnt = ws.array("rhs.glnt", S)
                for b in range(ndim):
                    np.divide(grads[b, idx_w], wbar, out=gw)
                    gy_b = grads[b, idx_y : idx_y + ns]
                    if soret:
                        np.divide(grads[b, idx_t], T, out=glnt)
                        species_diffusive_flux_dir(
                            Y, gy_b, neg_rho_d, gw, out=flux_j[:, b],
                            soret_pref=soret_pref, grad_lnT_dir=glnt,
                            tmp=tmp_ns,
                        )
                    else:
                        species_diffusive_flux_dir(
                            Y, gy_b, neg_rho_d, gw, out=flux_j[:, b],
                        )
                    np.sum(flux_j[:, b], axis=0, out=tmp_s)
                    np.multiply(Y, tmp_s[None], out=tmp_ns)
                    flux_j[:, b] -= tmp_ns
            # heat flux, eq. (20)
            with tel.span("COMPUTEHEATFLUX"):
                h_i = pc.h_i
                flux_q = ev.flux_q = ws.array("rhs.flux_q", (ndim,) + S)
                hq = ev.hq = ws.array("rhs.hq", S)
                neg_lam = ws.array("rhs.neg_lam", S)
                np.negative(lam, out=neg_lam)
                for b in range(ndim):
                    np.multiply(h_i, flux_j[:, b], out=tmp_ns)
                    axis0_sum(tmp_ns, out=hq)
                    np.multiply(neg_lam, grads[b, idx_t], out=flux_q[b])
                    flux_q[b] += hq
        ev.fstacks = {
            b: self._flux_stack(b, ws.array(f"rhs.fstack.{b}",
                                            (self.state.nvar,) + S))
            for b in ghosts
        }
        return ev.fstacks

    def reaction_inputs(self) -> tuple:
        """``(rho, T, Y)`` of the evaluation in progress (views, valid
        until the next one) — for a caller that built this RHS
        non-reacting because it owns the source terms (the chemistry
        load balancer ships them between ranks)."""
        pc = self._eval.pc
        return pc.rho, pc.T, pc.Y

    def sources(self) -> None:
        """Chemical source terms and heat release of this evaluation;
        :meth:`finish` adds them to ``du``."""
        ev = self._eval
        mech = self.mech
        pc = ev.pc
        ws = self.workspace
        ev.sourced = True
        if not (self.reacting and mech.n_reactions):
            self.last_heat_release = ws.zeros("rhs.heat_release", pc.rho.shape)
            return
        shape = (mech.n_species,) + pc.rho.shape
        with self.telemetry.span("REACTION_RATES"):
            ev.wdot = mech.production_rates(pc.rho, pc.T, pc.Y,
                                            out=ws.array("rhs.wdot", shape))
        hr = ws.array("rhs.heat_release", pc.rho.shape)
        tmp_ns = ws.array("rhs.tmp_ns", shape)
        np.multiply(pc.h_i, ev.wdot, out=tmp_ns)
        axis0_sum(tmp_ns, out=hr)
        np.negative(hr, out=hr)
        self.last_heat_release = hr

    def _divergence(self, b: int, ghosts, fstack, out):
        """Divergence sweep into ``out`` of direction ``b``'s flux stack
        (assembled in ``fstack`` unless :meth:`fluxes` kept it)."""
        fb = self._eval.fstacks.get(b)
        if fb is None:
            fb = self._flux_stack(b, fstack)
        self.ops[b].apply_stack(fb, axis=b, out=out, ghosts=ghosts)
        return out

    def local_divergence(self) -> None:
        """Sweep, each into a buffer of its own, the directions whose
        flux stack :meth:`fluxes` did not hand out: they need no ghosts."""
        ev, ws = self._eval, self.workspace
        shape = ev.u.shape
        for b in range(self.ndim):
            if b not in ev.fstacks:
                ev.dstacks[b] = self._divergence(
                    b, None, ws.array("rhs.fstack", shape),
                    ws.array(f"rhs.dstack.{b}", shape))

    def _flux_stack(self, b: int, fstack):
        """The convective + diffusive flux of every conserved variable
        in direction ``b``, assembled into ``fstack``."""
        with self.telemetry.span("FLUX_ASSEMBLY"):
            st = self.state
            ev = self._eval
            pc = ev.pc
            rho, vel, p, Y, e0 = pc.rho, pc.vel, pc.p, pc.Y, pc.e0
            viscous = self.transport is not None
            ub = vel[b]
            np.multiply(rho, ub, out=fstack[st.i_rho])
            for a in range(self.ndim):
                fa = fstack[st.i_mom(a)]
                np.multiply(rho, vel[a], out=fa)
                fa *= ub
                if a == b:
                    fa += p
                if viscous:
                    fa -= ev.tau[a][b]
            fe = fstack[st.i_energy]
            np.multiply(rho, e0, out=fe)
            fe += p
            fe *= ub
            if viscous:
                tmp_s = ev.tmp_s
                np.multiply(ev.tau[0][b], vel[0], out=tmp_s)
                for a in range(1, self.ndim):
                    np.multiply(ev.tau[a][b], vel[a], out=ev.hq)
                    tmp_s += ev.hq
                fe -= tmp_s
                fe += ev.flux_q[b]
            for k in range(st.n_transported):
                fy = fstack[st.i_species(k)]
                np.multiply(rho, Y[k], out=fy)
                fy *= ub
                if viscous:
                    fy += ev.flux_j[k, b]
        return fstack

    def finish(self, ghosts=None):
        """Phase C: flux divergence in direction order, chemical sources,
        characteristic boundaries; returns ``du``.

        ``ghosts`` carries the ghost slabs of the flux stacks
        :meth:`fluxes` returned, direction by direction.
        """
        ev = self._eval
        ghosts = ghosts or {}
        st = self.state
        ndim = self.ndim
        ws = self.workspace
        u = ev.u
        S = ev.pc.rho.shape
        nt = st.n_transported

        # -- flux divergence: one stacked sweep per direction ------------
        if ev.out is None:
            du = np.empty_like(u)
        else:
            du = ev.out
        du.fill(0.0)
        fstack = ws.array("rhs.fstack", (st.nvar,) + S)
        dstack = ws.array("rhs.dstack", (st.nvar,) + S)
        for b in range(ndim):
            swept = ev.dstacks.get(b)
            if swept is None:
                swept = self._divergence(b, ghosts.get(b), fstack, dstack)
            du -= swept

        # -- chemical sources --------------------------------------------
        if not ev.sourced:
            self.sources()
        if ev.wdot is not None:
            du[st.species_slice] += ev.wdot[:nt]

        # -- characteristic boundary handling -----------------------------
        if self._nscbc is not None:
            with self.telemetry.span("NSCBC"):
                self._nscbc.apply(ev.t, du, ev.gstack, ev.grads, ev.pc.h_i)
        ws.end_eval()
        return du

    # ------------------------------------------------------------------
    # the oracle — the original formulation, unbatched
    # ------------------------------------------------------------------
    def reference(self, t, u):
        """``du/dt`` by the original one-sweep-per-(variable, direction)
        formulation: the bitwise oracle of :meth:`__call__`
        (``tests/test_rhs_engine.py``), never a path a run takes."""
        st = self.state
        mech = self.mech
        ndim = self.ndim
        tel = self.telemetry
        with tel.span("THERMOPROPS"):
            rho, vel, T, p, Y, e0 = st.primitives(u)
            st._t_cache = T  # an RHS evaluation: warm-start the next one

        # -- primitive gradients ---------------------------------------
        grad_vel = [[self.ops[b].apply_naive(vel[a], axis=b) for b in range(ndim)] for a in range(ndim)]
        grad_T = [self.ops[b].apply_naive(T, axis=b) for b in range(ndim)]

        h_i = wbar = None
        viscous = self.transport is not None
        if viscous:
            with tel.span("THERMOPROPS"):
                props = self.transport.evaluate(T, p, Y)
                mu, lam, dcoef = props.viscosity, props.conductivity, props.diffusivities
                wbar = mech.mean_weight(Y)
            grad_w = [self.ops[b].apply_naive(wbar, axis=b) for b in range(ndim)]
            div_u = sum(grad_vel[a][a] for a in range(ndim))
            # stress tensor, eq. (14)
            tau = [[None] * ndim for _ in range(ndim)]
            for a in range(ndim):
                for b in range(a, ndim):
                    t_ab = mu * (grad_vel[a][b] + grad_vel[b][a])
                    if a == b:
                        t_ab = t_ab - (2.0 / 3.0) * mu * div_u
                    tau[a][b] = t_ab
                    tau[b][a] = t_ab
            # species diffusive fluxes, eq. (19) + correction (eq. 15);
            # the DERIVATIVES spans of the Y sweeps nest inside this span
            with tel.span("COMPUTESPECIESDIFFFLUX"):
                grad_y = np.empty((mech.n_species, ndim) + rho.shape)
                for i in range(mech.n_species):
                    for b in range(ndim):
                        grad_y[i, b] = self.ops[b].apply_naive(Y[i], axis=b)
                flux_j = np.empty_like(grad_y)
                for b in range(ndim):
                    gw = grad_w[b] / wbar
                    for i in range(mech.n_species):
                        flux_j[i, b] = -rho * dcoef[i] * (grad_y[i, b] + Y[i] * gw)
                    if props.thermal_diffusion_ratios is not None:
                        glnt = grad_T[b] / T
                        theta = props.thermal_diffusion_ratios
                        wr = mech.weights.reshape((-1,) + (1,) * rho.ndim) / wbar[None]
                        flux_j[:, b] += -rho[None] * dcoef * theta * wr * glnt[None]
                    correction = flux_j[:, b].sum(axis=0)
                    flux_j[:, b] -= Y * correction[None]
            # heat flux, eq. (20)
            with tel.span("COMPUTEHEATFLUX"):
                h_i = mech.species_enthalpy_mass(T)
                flux_q = [
                    -lam * grad_T[b] + (h_i * flux_j[:, b]).sum(axis=0)
                    for b in range(ndim)
                ]

        # -- flux divergence --------------------------------------------
        du = np.zeros_like(u)
        for b in range(ndim):
            ub = vel[b]
            conv_rho = rho * ub
            du[st.i_rho] -= self.ops[b].apply_naive(conv_rho, axis=b)
            for a in range(ndim):
                f = rho * vel[a] * ub
                if a == b:
                    f = f + p
                if viscous:
                    f = f - tau[a][b]
                du[st.i_mom(a)] -= self.ops[b].apply_naive(f, axis=b)
            f_e = (rho * e0 + p) * ub
            if viscous:
                f_e = f_e - sum(tau[a][b] * vel[a] for a in range(ndim)) + flux_q[b]
            du[st.i_energy] -= self.ops[b].apply_naive(f_e, axis=b)
            for k in range(st.n_transported):
                f_y = rho * Y[k] * ub
                if viscous:
                    f_y = f_y + flux_j[k, b]
                du[st.i_species(k)] -= self.ops[b].apply_naive(f_y, axis=b)

        # -- chemical sources --------------------------------------------
        if self.reacting and mech.n_reactions:
            with tel.span("REACTION_RATES"):
                wdot_mass = mech.production_rates(rho, T, Y)
            for k in range(st.n_transported):
                du[st.i_species(k)] += wdot_mass[k]
            if h_i is None:
                h_i = mech.species_enthalpy_mass(T)
            self.last_heat_release = -(h_i * wdot_mass).sum(axis=0)
        else:
            self.last_heat_release = np.zeros_like(rho)

        # -- characteristic boundary handling -----------------------------
        if self._nscbc is not None:
            stack = self._fill_stack(np.empty((self._nf,) + rho.shape),
                                     vel, T, wbar, Y, rho, p)
            grads = np.array([[self.ops[b].apply_naive(f, axis=b) for f in stack]
                              for b in range(ndim)])
            if h_i is None:
                h_i = mech.species_enthalpy_mass(T)
            self._nscbc.apply(t, du, stack, grads, h_i)
        return du

    # ------------------------------------------------------------------
    def stable_dt(self, cfl=0.8):
        """Acoustic + diffusive stable time step estimate of the state
        (diffusive limit: Fourier number :attr:`FOURIER`).

        Shares the memoized primitives/transport evaluation with an RHS
        evaluation on the same buffer: stage 1 of the step it sizes,
        whatever the scheme (see :meth:`_eval_props`).
        """
        pc = self._eval_props(self.state.u)
        props = pc.props
        fields = [pc.rho, pc.T, pc.Y, *pc.vel]
        if props is not None:
            fields += [props.viscosity, props.conductivity]
        # per tile: max(|u_b| + a) per axis b (then max nu, max alpha);
        # a max is exact, so the tiles' maxima are the field's
        peaks = []
        for rho, T, Y, *rest in tiles(pc.T.shape, *fields):
            # frozen sound speed sqrt(gamma R T), gamma = cp / (cp - R)
            cp = self.mech.cp_mass(T, Y)
            r = self.mech.gas_constant(Y)
            a = np.sqrt(cp / (cp - r) * r * T)
            peak = [(np.abs(v) + a).max() for v in rest[: self.ndim]]
            if props is not None:
                mu, lam = rest[self.ndim :]
                peak += [(mu / rho).max(), (lam / (rho * cp)).max()]
            peaks.append(peak)
        peaks = np.max(peaks, axis=0).tolist()
        dt = np.inf
        for axis in range(self.ndim):
            dx = 1.0 / np.abs(self.grid.inv_metric[axis]).max()
            dt = min(dt, cfl * dx / peaks[axis])
        if props is not None:
            nu, alpha = peaks[self.ndim :]
            dmax = max(nu, alpha, float(props.diffusivities.max()))
            dx = self.grid.min_spacing
            if dmax > 0:
                dt = min(dt, self.FOURIER * dx * dx / dmax)
        return dt
