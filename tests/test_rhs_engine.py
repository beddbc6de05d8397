"""The RHS program: bit-exactness vs its in-tree oracle
(``CompressibleRHS.reference``), workspace allocation behavior and
property memoization."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from repro.chemistry import ch4_twostep, h2_li2004
from repro.chemistry.mechanisms import air
from repro.core.config import BoundarySpec, SolverConfig, periodic_boundaries
from repro.core.grid import Grid
from repro.core.rhs import CompressibleRHS
from repro.core.solver import S3DSolver
from repro.core.state import State
from repro.core.workspace import Workspace
from repro.scenarios import lifted_jet
from repro.telemetry import Telemetry
from repro.transport import (
    ConstantLewisTransport,
    MixtureAveragedTransport,
)
from repro.util.constants import P_ATM
from tests.tolerances import STABLE_DT_ENGINES_RTOL


class ReferenceRHS(CompressibleRHS):
    """Drives a solver through the oracle."""

    supports_out = False

    def __call__(self, t, u):
        return self.reference(t, u)


def _make_state(mech, grid, seed=3):
    rng = np.random.default_rng(seed)
    S = grid.shape
    T = 1100.0 + 300.0 * rng.random(S)
    rho = 0.4 + 0.2 * rng.random(S)
    vel = [30.0 * (rng.random(S) - 0.5) for _ in range(grid.ndim)]
    Y = rng.random((mech.n_species,) + S) + 0.05
    Y /= Y.sum(axis=0)
    return State.from_primitive(mech, grid, rho, vel, T, Y)


def _engine_pair(mech, grid, transport, reacting, boundaries=None):
    """Two RHS objects on equal states: the first is only ever asked for
    its ``reference``, the second is called."""
    st_n = _make_state(mech, grid)
    st_b = State(mech, grid, st_n.u.copy())
    # same Newton warm start, else the two temperature solves converge
    # to last-bit-different roots before either path even runs
    if st_n._t_cache is not None:
        st_b._t_cache = st_n._t_cache.copy()
    rhs_n = CompressibleRHS(st_n, transport=transport, boundaries=boundaries,
                            reacting=reacting)
    rhs_b = CompressibleRHS(st_b, transport=transport, boundaries=boundaries,
                            reacting=reacting)
    return rhs_n, rhs_b, st_n, st_b


def _periodic(*shape_dx):
    shape, dx = zip(*shape_dx)
    return Grid(shape, dx, periodic=(True,) * len(shape))


G1 = _periodic((64, 0.01))
G2 = _periodic((16, 0.01), (12, 0.008))
G3 = _periodic((12, 0.01), (10, 0.01), (9, 0.01))


class TestEngineBitExactness:
    """``__call__`` must reproduce ``reference`` bit for bit."""

    @pytest.mark.parametrize("grid", [G1, G2, G3], ids=["1d", "2d", "3d"])
    def test_h2_mixture_reacting(self, grid):
        mech = h2_li2004()
        self._check(mech, grid, MixtureAveragedTransport(mech), True)

    @pytest.mark.parametrize("grid", [G1, G2, G3], ids=["1d", "2d", "3d"])
    def test_h2_euler(self, grid):
        self._check(h2_li2004(), grid, None, False)

    def test_h2_soret(self):
        mech = h2_li2004()
        self._check(mech, G2, MixtureAveragedTransport(mech, soret=True), True)

    def test_ch4_constant_lewis(self):
        mech = ch4_twostep()
        self._check(mech, G2, ConstantLewisTransport(mech, lewis={"CH4": 0.97}),
                    True)

    def test_ch4_mixture_3d(self):
        mech = ch4_twostep()
        self._check(mech, G3, MixtureAveragedTransport(mech), True)

    def test_air_power_law(self):
        self._check(air(), G2, PowerLawTransport(air()), False)

    def test_nscbc_1d(self):
        mech = h2_li2004()
        grid = Grid((48,), (0.01,), periodic=(False,))
        bcs = {(0, 0): BoundarySpec("nonreflecting_outflow", p_inf=P_ATM),
               (0, 1): BoundarySpec("nonreflecting_outflow", p_inf=P_ATM)}
        self._check(mech, grid, MixtureAveragedTransport(mech), True,
                    boundaries=bcs)

    def test_nscbc_2d_mixed_periodicity(self):
        mech = h2_li2004()
        grid = Grid((24, 10), (0.01, 0.008), periodic=(False, True))
        bcs = {(0, 0): BoundarySpec("nonreflecting_outflow", p_inf=P_ATM),
               (0, 1): BoundarySpec("nonreflecting_outflow", p_inf=P_ATM),
               (1, 0): BoundarySpec("periodic"),
               (1, 1): BoundarySpec("periodic")}
        self._check(mech, grid, MixtureAveragedTransport(mech), True,
                    boundaries=bcs)

    def _check(self, mech, grid, transport, reacting, boundaries=None):
        rhs_n, rhs_b, st_n, st_b = _engine_pair(
            mech, grid, transport, reacting, boundaries=boundaries
        )
        du_n = rhs_n.reference(0.0, st_n.u)
        du_b = rhs_b(0.0, st_b.u)
        assert np.array_equal(du_n, du_b)
        assert np.array_equal(rhs_n.last_heat_release, rhs_b.last_heat_release)
        # the out= path and a warm (arena reuse) re-evaluation stay exact
        out = np.empty_like(du_b)
        res = rhs_b(0.0, st_b.u, out=out)
        assert res is out
        assert np.array_equal(out, du_n)

    def test_stable_dt_agrees(self):
        mech = h2_li2004()
        rhs_n, rhs_b, _, _ = _engine_pair(
            mech, G2, MixtureAveragedTransport(mech), True
        )
        rhs_n.reference(0.0, rhs_n.state.u)
        rhs_b(0.0, rhs_b.state.u)
        dt_n = rhs_n.stable_dt()
        dt_b = rhs_b.stable_dt()
        # after the oracle, stable_dt re-runs the Newton solve from a
        # converged guess; after a call it is a memo hit — agreement is
        # to roundoff, not bits
        assert dt_b == pytest.approx(dt_n, rel=STABLE_DT_ENGINES_RTOL)

    @pytest.mark.parametrize("viscous", [True, False])
    def test_stable_dt_is_the_parent_expression(self, viscous):
        """``stable_dt`` forms the mixture cp once and derives gamma and
        alpha from it: the float is the one the three-evaluation
        expression gave (frozen here as it stood before PR 23)."""
        mech = h2_li2004()
        st = _make_state(mech, G2)
        rhs = CompressibleRHS(
            st, transport=MixtureAveragedTransport(mech) if viscous else None,
            reacting=True)

        def parent_stable_dt(cfl=0.8, fourier=0.4):
            pc = rhs._eval_props(st.u)
            rho, vel, T, Y = pc.rho, pc.vel, pc.T, pc.Y
            a = mech.sound_speed(T, Y)
            dt = np.inf
            for axis in range(rhs.ndim):
                dx = 1.0 / np.abs(rhs.grid.inv_metric[axis]).max()
                vmax = float((np.abs(vel[axis]) + a).max())
                dt = min(dt, cfl * dx / vmax)
            if rhs.transport is not None:
                props = pc.props
                nu = float((props.viscosity / rho).max())
                alpha = float(
                    (props.conductivity / (rho * mech.cp_mass(T, Y))).max()
                )
                dmax = max(nu, alpha, float(props.diffusivities.max()))
                dx = rhs.grid.min_spacing
                if dmax > 0:
                    dt = min(dt, fourier * dx * dx / dmax)
            return dt

        assert rhs.stable_dt() == parent_stable_dt()
        rhs.FOURIER = 0.1
        assert rhs.stable_dt(cfl=0.3) == parent_stable_dt(0.3, 0.1)


# ---------------------------------------------------------------------------
# the three-phase evaluation against the single function it was cut from
# ---------------------------------------------------------------------------
from tests import nscbc_oracle  # noqa: E402
from repro.core.kernels import species_diffusive_flux_dir  # noqa: E402
from tests.helpers import PowerLawTransport


def _parent_call_batched(self, t, u, out=None):
    """``CompressibleRHS._call_batched`` as it stood before it was split
    into ``begin`` / ``fluxes`` / ``finish`` (frozen verbatim; ``self`` is
    the evaluator): one function, one flux buffer, no ghosts."""
    st = self.state
    mech = self.mech
    ndim = self.ndim
    tel = self.telemetry
    ws = self.workspace
    ws.begin_eval()
    u = np.asarray(u, dtype=float)
    if out is not None:
        if out.shape != u.shape:
            raise ValueError(f"out has shape {out.shape}, expected {u.shape}")
        if np.may_share_memory(out, u):
            raise ValueError("out must not alias the state array")
    pc = self._eval_props(u)
    rho, vel, T, p, Y, e0, wbar = (
        pc.rho, pc.vel, pc.T, pc.p, pc.Y, pc.e0, pc.wbar
    )
    S = rho.shape
    ns = mech.n_species
    nt = st.n_transported
    viscous = self.transport is not None
    needs_nscbc = self._needs_nscbc

    # -- primitive gradients: one stacked sweep per direction --------
    # stack layout: [vel_0..vel_{ndim-1}, T] (+ [wbar, Y_0..Y_{ns-1}]
    # when viscous) (+ [rho, p] when characteristic boundaries need
    # them); pure-periodic Euler needs no primitive gradients at all
    grads = None
    idx_t = idx_w = idx_y = idx_rho = idx_p = None
    if viscous or needs_nscbc:
        nf = ndim + 1
        idx_t = ndim
        if viscous:
            idx_w = nf
            idx_y = nf + 1
            nf += 1 + ns
        if needs_nscbc:
            idx_rho = nf
            idx_p = nf + 1
            nf += 2
        gstack = ws.array("rhs.gstack", (nf,) + S)
        gstack[0:ndim] = ws.array("state.vel", (ndim,) + S)
        gstack[idx_t] = T
        if viscous:
            gstack[idx_w] = wbar
            gstack[idx_y : idx_y + ns] = Y
        if needs_nscbc:
            gstack[idx_rho] = rho
            gstack[idx_p] = p
        grads = ws.array("rhs.grads", (ndim, nf) + S)
        for b in range(ndim):
            self.ops[b].apply_stack(gstack, axis=b, out=grads[b])

    tmp_s = ws.array("rhs.tmp_s", S)
    if viscous:
        props = pc.props
        mu, lam, dcoef = props.viscosity, props.conductivity, props.diffusivities
        # divergence and stress tensor, eq. (14); tau is symmetric so
        # only the upper triangle is stored (shared views, no copies)
        div_u = ws.array("rhs.div_u", S)
        div_u[...] = grads[0, 0]
        for a in range(1, ndim):
            div_u += grads[a, a]
        tau_buf = ws.array("rhs.tau", (ndim * (ndim + 1) // 2,) + S)
        tau = [[None] * ndim for _ in range(ndim)]
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
            flux_j = ws.array("rhs.flux_j", (ns, ndim) + S)
            tmp_ns = ws.array("rhs.tmp_ns", (ns,) + S)
            neg_rho_d = ws.array("rhs.neg_rho_d", (ns,) + S)
            np.negative(rho, out=tmp_s)
            np.multiply(tmp_s[None], dcoef, out=neg_rho_d)
            gw = ws.array("rhs.gw", S)
            soret = props.thermal_diffusion_ratios is not None
            if soret:
                # prefactor chain (((-rho·D)·theta)·W_i/wbar), grouped
                # exactly as the oracle's expression
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
            flux_q = ws.array("rhs.flux_q", (ndim,) + S)
            hq = ws.array("rhs.hq", S)
            neg_lam = ws.array("rhs.neg_lam", S)
            np.negative(lam, out=neg_lam)
            for b in range(ndim):
                np.multiply(h_i, flux_j[:, b], out=tmp_ns)
                np.sum(tmp_ns, axis=0, out=hq)
                np.multiply(neg_lam, grads[b, idx_t], out=flux_q[b])
                flux_q[b] += hq

    # -- flux divergence: one stacked sweep per direction ------------
    if out is None:
        du = np.empty_like(u)
    else:
        du = out
    du.fill(0.0)
    fstack = ws.array("rhs.fstack", (st.nvar,) + S)
    dstack = ws.array("rhs.dstack", (st.nvar,) + S)
    ie = st.i_energy
    for b in range(ndim):
        ub = vel[b]
        np.multiply(rho, ub, out=fstack[st.i_rho])
        for a in range(ndim):
            fa = fstack[st.i_mom(a)]
            np.multiply(rho, vel[a], out=fa)
            fa *= ub
            if a == b:
                fa += p
            if viscous:
                fa -= tau[a][b]
        fe = fstack[ie]
        np.multiply(rho, e0, out=fe)
        fe += p
        fe *= ub
        if viscous:
            np.multiply(tau[0][b], vel[0], out=tmp_s)
            for a in range(1, ndim):
                np.multiply(tau[a][b], vel[a], out=hq)
                tmp_s += hq
            fe -= tmp_s
            fe += flux_q[b]
        for k in range(nt):
            fy = fstack[st.i_species(k)]
            np.multiply(rho, Y[k], out=fy)
            fy *= ub
            if viscous:
                fy += flux_j[k, b]
        self.ops[b].apply_stack(fstack, axis=b, out=dstack)
        du -= dstack

    # -- chemical sources --------------------------------------------
    if self.reacting and mech.n_reactions:
        with tel.span("REACTION_RATES"):
            wdot_mass = mech.production_rates(rho, T, Y)
        du[st.species_slice] += wdot_mass[:nt]
        hr = ws.array("rhs.heat_release", S)
        tmp_ns = ws.array("rhs.tmp_ns", (ns,) + S)
        np.multiply(pc.h_i, wdot_mass, out=tmp_ns)
        np.sum(tmp_ns, axis=0, out=hr)
        np.negative(hr, out=hr)
        self.last_heat_release = hr
    else:
        self.last_heat_release = ws.zeros("rhs.heat_release", S)

    # -- characteristic boundary handling -----------------------------
    if needs_nscbc:
        grad_vel = [[grads[b, a] for b in range(ndim)] for a in range(ndim)]
        grad_rho = [grads[b, idx_rho] for b in range(ndim)]
        grad_p = [grads[b, idx_p] for b in range(ndim)]
        gy = (
            np.moveaxis(grads[:, idx_y : idx_y + ns], 0, 1)
            if viscous else None
        )
        nscbc_oracle.apply_boundary_conditions(
            self, t, du,
            rho=rho, vel=vel, T=T, p=p, Y=Y,
            grad_rho=grad_rho, grad_p=grad_p,
            grad_vel=grad_vel, grad_y=gy,
        )
    ws.end_eval()
    return du


class TestThreePhasesAreTheOneFunction:
    """Serial ``__call__`` runs ``begin`` / ``fluxes`` / ``finish`` back
    to back: the same NumPy calls on the same buffers as the parent's
    single function, so the same bits — through the arena's warm path
    and the ``out=`` path too."""

    def _check(self, mech, grid, transport, reacting, boundaries=None):
        _, rhs, _, st = _engine_pair(mech, grid, transport, reacting,
                                     boundaries=boundaries)
        st_ref = State(mech, grid, st.u.copy())
        st_ref._t_cache = st._t_cache.copy()
        ref = CompressibleRHS(st_ref, transport=transport,
                              boundaries=boundaries, reacting=reacting)
        for k in range(3):  # cold arena, then warm arena and warm Newton
            want = _parent_call_batched(ref, 0.1 * k, st_ref.u).copy()
            out = np.empty_like(want) if k == 2 else None
            got = rhs(0.1 * k, st.u, out=out)
            assert np.array_equal(got, want)
            assert np.array_equal(rhs.last_heat_release, ref.last_heat_release)
            st.u[...] = st_ref.u[...] = _make_state(mech, grid, seed=4 + k).u

    @pytest.mark.parametrize("grid", [G1, G2, G3], ids=["1d", "2d", "3d"])
    def test_periodic_viscous_reacting(self, grid):
        mech = h2_li2004()
        self._check(mech, grid, MixtureAveragedTransport(mech), True)

    def test_periodic_euler_and_soret(self):
        mech = h2_li2004()
        self._check(mech, G2, None, False)
        self._check(mech, G2, MixtureAveragedTransport(mech, soret=True), True)

    def test_nscbc(self):
        mech = h2_li2004()
        grid = Grid((24, 10), (0.01, 0.008), periodic=(False, True))
        bcs = {(0, 0): BoundarySpec("nonreflecting_outflow", p_inf=P_ATM),
               (0, 1): BoundarySpec("nonreflecting_outflow", p_inf=P_ATM),
               (1, 0): BoundarySpec("periodic"),
               (1, 1): BoundarySpec("periodic")}
        self._check(mech, grid, MixtureAveragedTransport(mech), True,
                    boundaries=bcs)
        self._check(mech, grid, None, False, boundaries=bcs)


class TestWorkspaceBehavior:
    def test_zero_allocation_when_warm(self):
        """After warmup, an RHS evaluation allocates nothing large."""
        mech = h2_li2004()
        tel = Telemetry()
        st = _make_state(mech, G2)
        rhs = CompressibleRHS(st, transport=MixtureAveragedTransport(mech),
                              reacting=True, telemetry=tel)
        rhs(0.0, st.u)
        gauge = tel.gauge("rhs.bytes_allocated")
        assert gauge.value > 0  # cold evaluation built the arena
        st.u[st.i_rho] *= 1.0 + 1e-9
        st.mark_modified()
        rhs(0.0, st.u)
        assert gauge.value == 0.0  # warm evaluation: arena fully reused

    @pytest.mark.parametrize(
        "reacting,max_ratio,max_state_multiples",
        # viscous transport + fluxes are fully arena-backed. The kinetics
        # evaluator's per-call buffers are transient by design (one
        # (Nr,)+S result, the shared factors, Kc) and bounded by a tile
        # on larger fields; the production rates and their concentrations
        # share one arena slot, see docs/PERFORMANCE.md "Known remaining
        # allocation sources". Reacting read 0.40 / 7.20 before that
        # slot, 0.36 / 6.46 with it.
        # The ratios were 0.05 / 0.22 while the oracle's transport still
        # materialised its (Ns, Ns)+S pair arrays (oracle peak 6.8 MB
        # here); both paths now share the streamed kernel, the oracle's
        # peak is 2.2 MB and the program's peaks are what they were
        # (0.13 MB / 1.33 MB), so the program is also held to an
        # absolute bound in units of the conserved state.
        [(False, 0.08, 1.0), (True, 0.45, 7.0)],
        ids=["viscous", "reacting"],
    )
    def test_warm_eval_tracemalloc_far_below_naive(self, reacting, max_ratio,
                                                   max_state_multiples):
        mech = h2_li2004()
        tr = MixtureAveragedTransport(mech)
        # large enough that field-sized temporaries dominate the peak
        # (on tiny grids fixed-size bookkeeping drowns out the signal)
        grid = _periodic((48, 0.01), (40, 0.008))
        st_n = _make_state(mech, grid)
        st_b = State(mech, grid=grid, u=st_n.u.copy())
        rhs_n = CompressibleRHS(st_n, transport=tr, reacting=reacting)
        rhs_b = CompressibleRHS(st_b, transport=tr, reacting=reacting)
        out = np.empty_like(st_b.u)
        rhs_n.reference(0.0, st_n.u)
        rhs_b(0.0, st_b.u, out=out)

        def peak(fn):
            tracemalloc.start()
            fn()
            _, p = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            return p

        peak_b = peak(lambda: rhs_b(0.0, st_b.u, out=out))
        peak_n = peak(lambda: rhs_n.reference(0.0, st_n.u))
        # a warm call allocates no field-sized temporaries: its
        # transient peak must be a small fraction of the oracle's
        assert peak_b < max_ratio * peak_n
        assert peak_b < max_state_multiples * st_b.u.nbytes

    def test_workspace_reuses_and_rekeys(self):
        ws = Workspace()
        a = ws.array("x", (4, 5))
        assert ws.array("x", (4, 5)) is a
        b = ws.array("x", (6,))  # same name, new shape -> new buffer
        assert b.shape == (6,)
        assert ws.zeros("z", (3,)).sum() == 0.0
        assert len(ws) == 2
        assert ws.nbytes == b.nbytes + 24
        ws.clear()
        assert len(ws) == 0


class TestPropsMemo:
    def test_cache_hit_between_call_and_stable_dt(self):
        mech = h2_li2004()
        tel = Telemetry()
        st = _make_state(mech, G2)
        rhs = CompressibleRHS(st, transport=MixtureAveragedTransport(mech),
                              reacting=True, telemetry=tel)
        hits = tel.counter("rhs.props_cache_hits")
        rhs(0.0, st.u)
        assert hits.value == 0
        rhs.stable_dt()  # same state buffer, same version -> memo hit
        assert hits.value == 1

    @staticmethod
    def _jet_hits(steps, **config):
        """``rhs.props_cache_hits`` after ``steps`` self-timed steps of
        the small lifted jet under ``config`` overrides."""
        tel = Telemetry()
        jet, _ = lifted_jet(nx=24, ny=16)
        solver = S3DSolver(jet.state, dataclasses.replace(jet.config, **config),
                           transport=jet.rhs.transport, reacting=True,
                           telemetry=tel)
        for _ in range(steps):
            solver.step()
        return tel.counter("rhs.props_cache_hits").value

    def test_stable_dt_hands_stage_one_its_properties(self):
        """What happens in a science run: ``stable_dt`` evaluates the
        properties on ``state.u``, and ``ERKIntegrator.stepper``
        evaluates stage 1 on that very array before it takes its working copy — one hit per
        CFL-adaptive step, five property evaluations instead of six. A
        fixed ``dt`` has no estimate to share; under Strang splitting
        the first half-step rewrites the state (and bumps its version)
        between the estimate and stage 1."""
        assert self._jet_hits(2) == 2
        assert self._jet_hits(2, dt=2e-8) == 0
        assert self._jet_hits(2, chemistry_mode="strang") == 0

    def test_cache_invalidated_by_content_change(self):
        mech = h2_li2004()
        tel = Telemetry()
        st = _make_state(mech, G2)
        rhs = CompressibleRHS(st, transport=MixtureAveragedTransport(mech),
                              reacting=True, telemetry=tel)
        hits = tel.counter("rhs.props_cache_hits")
        du0 = rhs(0.0, st.u).copy()
        # in-place mutation without mark_modified: the content fingerprint
        # must still force a recompute (low-storage RK mutates in place)
        st.u[st.i_energy] *= 1.0 + 1e-6
        du1 = rhs(0.0, st.u)
        assert hits.value == 0
        assert not np.array_equal(du0, du1)


    def test_a_quiescent_far_field_does_not_fool_the_memo(self):
        """A hot spot in uniform flow: a conservative periodic stage
        update moves neither corner of the buffer nor, to rounding, its
        sum, and ``ck45`` updates the buffer in place — so the content
        fingerprint alone let stage 2 reuse stage 1's properties
        (program != oracle by 3e-8 after one step). The stage update
        declares itself now (``rhs.mark_modified()``)."""
        mech = h2_li2004()
        shape = (48, 24)
        grid = Grid(shape, (4e-3, 2e-3), periodic=(True, True))
        xx, yy = grid.meshgrid()
        T = 900.0 + 500.0 * np.exp(
            -((xx - 2e-3) ** 2 + (yy - 1e-3) ** 2) / (2 * (3e-4) ** 2))
        Y = np.zeros((mech.n_species,) + shape)
        names = list(mech.species_names)
        Y[names.index("H2")], Y[names.index("O2")] = 0.028, 0.226
        Y[names.index("N2")] = 1.0 - 0.028 - 0.226
        u0 = State.from_primitive(mech, grid, mech.density(P_ATM, T, Y),
                                  [1.0, 0.5], T, Y).u
        out = {}
        for rhs_class in (CompressibleRHS, ReferenceRHS):
            tel = Telemetry()
            cfg = SolverConfig(dt=2e-8, scheme="ck45",
                               boundaries=periodic_boundaries(2))
            solver = S3DSolver(State(mech, grid, u0.copy()), cfg,
                               transport=ConstantLewisTransport(mech),
                               reacting=True, telemetry=tel)
            solver.rhs = rhs_class(solver.state, solver.rhs.transport,
                                   cfg.boundaries, telemetry=tel)
            solver.step()
            assert tel.counter("rhs.props_cache_hits").value == 0
            out[rhs_class] = solver.state.u
        assert np.array_equal(out[CompressibleRHS], out[ReferenceRHS])


class TestOutArray:
    def test_out_aliasing_state_rejected(self):
        mech = h2_li2004()
        st = _make_state(mech, G1)
        rhs = CompressibleRHS(st, reacting=False)
        with pytest.raises(ValueError, match="alias"):
            rhs(0.0, st.u, out=st.u)


class TestPrimitivesWorkspace:
    def test_bitwise_vs_plain(self):
        mech = h2_li2004()
        st = _make_state(mech, G2)
        st2 = State(mech, grid=G2, u=st.u.copy())
        if st._t_cache is not None:  # same Newton warm start for both
            st2._t_cache = st._t_cache.copy()
        rho, vel, T, p, Y, e0 = st.primitives(st.u)
        ws = Workspace()
        rho2, vel2, T2, p2, Y2, e02, wbar = st2.primitives_ws(st2.u, ws)
        assert np.array_equal(rho, rho2)
        for a, b in zip(vel, vel2):
            assert np.array_equal(a, b)
        assert np.array_equal(T, T2)
        assert np.array_equal(p, p2)
        assert np.array_equal(Y, Y2)
        assert np.array_equal(e0, e02)
        assert np.array_equal(wbar, mech.mean_weight(Y))

    def test_warm_rerun_allocates_nothing(self):
        mech = h2_li2004()
        st = _make_state(mech, G2)
        ws = Workspace()
        st.primitives_ws(st.u, ws)
        n = len(ws)
        st.primitives_ws(st.u, ws)
        assert len(ws) == n
