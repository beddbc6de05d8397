"""Analytical source-term Jacobian: FD exactness and sparsity pins.

The battery the implicit integrator stands on: for every mechanism, on
the constant-volume closure, the analytical Jacobian of
:class:`repro.chemistry.jacobian.SourceTermJacobian` must match a
central finite difference of the source term to relative 1e-6 on random
states spanning both NASA-7 polynomial branches, and every numerically
nonzero entry must lie inside the declared CSR pattern (no silent dense
fill-in). A synthetic four-parameter Troe falloff reaction covers the
broadening-factor derivatives the built-in mechanisms (constant-Fcent
falloff) don't exercise.
"""

import hashlib

import numpy as np
import pytest

from repro.chemistry import Mechanism, SourceTermJacobian
from repro.chemistry.kinetics import Arrhenius, Falloff, Reaction, ThirdBody
from repro.chemistry.mechanisms.builders import make_species
from repro.util.constants import P_ATM
from tests.tolerances import FD_JACOBIAN_RTOL

pytestmark = pytest.mark.jacobian

#: relative central-difference step — large enough that the O(h^2)
#: truncation error and the O(eps/h) roundoff error are both well below
#: FD_JACOBIAN_RTOL for these well-scaled states (smaller steps go
#: roundoff-bound)
FD_REL_STEP = 1e-5


def random_states(mech, rng, n_cells, t_lo=320.0, t_hi=2800.0):
    """Strictly positive compositions, temperatures on both NASA branches.

    Half the cells land below every species' ``t_mid`` breakpoint and
    half above; none within 2 K of a breakpoint, where the two
    polynomial branches would straddle the FD stencil.
    """
    ns = mech.n_species
    mids = sorted({f.t_mid for f in (sp.thermo for sp in mech.species)})
    lo_cap = min(mids) - 2.0
    hi_floor = max(mids) + 2.0
    n_lo = n_cells // 2
    T = np.empty(n_cells)
    T[:n_lo] = rng.uniform(t_lo, lo_cap, n_lo)
    T[n_lo:] = rng.uniform(hi_floor, t_hi, n_cells - n_lo)
    Y = rng.uniform(0.05, 1.0, (ns, n_cells))
    Y /= Y.sum(axis=0)
    return T, Y


def fd_jacobian(stj, T, Y, rel=FD_REL_STEP, **kw):
    """Central-difference d(f)/d(Y, T), shape (N, n, n).

    Steps are made exactly representable (h = (z + h) - z) so the
    difference quotient divides by the perturbation actually applied.
    """
    ns, n = stj.ns, stj.n
    N = T.shape[0]
    z0 = np.concatenate([Y, T[None]], axis=0)
    floors = np.concatenate([np.full(ns, 1e-3), [1.0]])
    jac = np.empty((N, n, n))
    for j in range(n):
        h = rel * np.maximum(np.abs(z0[j]), floors[j])
        zp = z0.copy()
        zp[j] = z0[j] + h
        zm = z0.copy()
        zm[j] = z0[j] - h
        dz = zp[j] - zm[j]  # exactly representable spacing
        fp = stj.source(zp[ns], zp[:ns], **kw)
        fm = stj.source(zm[ns], zm[:ns], **kw)
        jac[:, :, j] = ((fp - fm) / dz[None]).T
    return jac


def max_rel_error(j_an, j_fd):
    """Per-cell matrix-relative FD mismatch, maxed over the batch."""
    scale = np.abs(j_an).reshape(j_an.shape[0], -1).max(axis=1)
    diff = np.abs(j_an - j_fd).reshape(j_an.shape[0], -1).max(axis=1)
    return float((diff / np.maximum(scale, 1.0)).max())


def closure_kwargs(mode, mech, T, Y, rng):
    return {"rho": np.asarray(mech.density(P_ATM, T, Y))}


@pytest.fixture(params=["constant-volume"])
def mode(request):
    return request.param


class TestFiniteDifferenceExactness:
    def test_h2(self, h2_mech, rng, mode):
        stj = SourceTermJacobian(h2_mech, mode=mode)
        T, Y = random_states(h2_mech, rng, 24)
        kw = closure_kwargs(mode, h2_mech, T, Y, rng)
        j_an = stj.jacobian(T, Y, **kw)
        j_fd = fd_jacobian(stj, T, Y, **kw)
        assert max_rel_error(j_an, j_fd) < FD_JACOBIAN_RTOL

    def test_ch4_twostep(self, ch4_mech, rng, mode):
        stj = SourceTermJacobian(ch4_mech, mode=mode)
        T, Y = random_states(ch4_mech, rng, 24)
        kw = closure_kwargs(mode, ch4_mech, T, Y, rng)
        j_an = stj.jacobian(T, Y, **kw)
        j_fd = fd_jacobian(stj, T, Y, **kw)
        assert max_rel_error(j_an, j_fd) < FD_JACOBIAN_RTOL

    def test_fused_source_matches_plain_source(self, h2_mech, rng, mode):
        # the fused path accumulates wdot per reaction (alongside its
        # derivatives) rather than through KineticsEvaluator, so the two
        # agree to rounding, not bit-for-bit
        stj = SourceTermJacobian(h2_mech, mode=mode)
        T, Y = random_states(h2_mech, rng, 12)
        kw = closure_kwargs(mode, h2_mech, T, Y, rng)
        f_fused, _ = stj.source_and_jacobian(T, Y, **kw)
        f_plain = stj.source(T, Y, **kw)
        scale = np.maximum(np.abs(f_plain).max(axis=1, keepdims=True), 1.0)
        assert np.abs(f_fused - f_plain).max() <= (1e-12 * scale).max()
        assert (np.abs(f_fused - f_plain) <= 1e-12 * scale).all()


class TestTroeFalloff:
    """Four-parameter Troe broadening, absent from the built-ins."""

    @pytest.fixture(scope="class")
    def troe_mech(self):
        names = ["H", "O2", "HO2", "H2O", "N2"]
        species = [make_species(n) for n in names]
        rxns = [
            Reaction(
                (("H", 1), ("O2", 1)),
                (("HO2", 1),),
                Arrhenius(A=1.475e6, n=0.60, Ea=0.0),
                third_body=ThirdBody((("H2O", 11.0), ("O2", 0.78))),
                falloff=Falloff(
                    low=Arrhenius(A=6.366e8, n=-1.72, Ea=2195.8),
                    troe=(0.5, 100.0, 2000.0, 5000.0),
                ),
            ),
            # a plain channel so HO2 consumption couples rows
            Reaction(
                (("HO2", 1), ("H", 1)),
                (("O2", 1), ("H2O", 1)),
                Arrhenius(A=1.0e7, n=0.0, Ea=3000.0),
            ),
        ]
        return Mechanism(species, rxns, name="troe-synthetic")

    def test_fd_exact(self, troe_mech, rng, mode):
        stj = SourceTermJacobian(troe_mech, mode=mode)
        T, Y = random_states(troe_mech, rng, 24)
        kw = closure_kwargs(mode, troe_mech, T, Y, rng)
        j_an = stj.jacobian(T, Y, **kw)
        j_fd = fd_jacobian(stj, T, Y, **kw)
        assert max_rel_error(j_an, j_fd) < FD_JACOBIAN_RTOL

    def test_fd_exact_across_pressure_range(self, troe_mech, rng):
        # sweep the falloff transition: Pr spans low to high pressure
        stj = SourceTermJacobian(troe_mech, mode="constant-volume")
        T, Y = random_states(troe_mech, rng, 16)
        p = np.exp(rng.uniform(np.log(1e3), np.log(1e7), T.shape))
        rho = troe_mech.density(p, T, Y)
        j_an = stj.jacobian(T, Y, rho=rho)
        j_fd = fd_jacobian(stj, T, Y, rho=rho)
        assert max_rel_error(j_an, j_fd) < FD_JACOBIAN_RTOL


class TestSparsityPattern:
    """The declared CSR pattern covers every numerical nonzero."""

    def test_no_fill_in_h2(self, h2_mech, rng, mode):
        stj = SourceTermJacobian(h2_mech, mode=mode)
        T, Y = random_states(h2_mech, rng, 32)
        kw = closure_kwargs(mode, h2_mech, T, Y, rng)
        jac = stj.jacobian(T, Y, **kw)
        assert not np.any(jac * ~stj.pattern.mask)  # no fill-in

    def test_no_fill_in_ch4(self, ch4_mech, rng, mode):
        stj = SourceTermJacobian(ch4_mech, mode=mode)
        T, Y = random_states(ch4_mech, rng, 32)
        kw = closure_kwargs(mode, ch4_mech, T, Y, rng)
        jac = stj.jacobian(T, Y, **kw)
        assert not np.any(jac * ~stj.pattern.mask)  # no fill-in

    def test_inert_species_row_exactly_zero(self, h2_mech, rng, mode):
        # N2 participates in no H2/O2 reaction: its rate row must be
        # structurally (and numerically, exactly) zero
        stj = SourceTermJacobian(h2_mech, mode=mode)
        i_n2 = h2_mech.index("N2")
        assert not stj.pattern.mask[i_n2].any()
        T, Y = random_states(h2_mech, rng, 8)
        kw = closure_kwargs(mode, h2_mech, T, Y, rng)
        jac = stj.jacobian(T, Y, **kw)
        np.testing.assert_array_equal(jac[:, i_n2, :], 0.0)

    def test_constant_volume_keeps_graph_sparsity(self, ch4_mech):
        # the species block inherits reaction-graph sparsity: reactive
        # rows are not dense in Y. (CH4 two-step has no third bodies, so
        # this is strict — in H2/air the default third-body efficiencies
        # already couple every reactive row to every concentration.)
        pat = SourceTermJacobian(ch4_mech, mode="constant-volume").pattern
        ns = ch4_mech.n_species
        reactive = pat.mask[:ns].any(axis=1)
        assert reactive.any() and not pat.mask[:ns, :ns][reactive].all()
        # and the CSR arrays are consistent with the mask
        assert pat.indices.size == int(pat.mask.sum())
        assert pat.indptr[-1] == pat.indices.size


class TestBatchShapeIndependence:
    def test_single_cell_extraction_bitwise(self, h2_mech, rng, mode):
        stj = SourceTermJacobian(h2_mech, mode=mode)
        T, Y = random_states(h2_mech, rng, 16)
        kw = closure_kwargs(mode, h2_mech, T, Y, rng)
        f_all, j_all = stj.source_and_jacobian(T, Y, **kw)
        for c in (0, 7, 15):
            sub = {k: v[c : c + 1] for k, v in kw.items()}
            f1, j1 = stj.source_and_jacobian(T[c : c + 1], Y[:, c : c + 1], **sub)
            np.testing.assert_array_equal(f1[:, 0], f_all[:, c])
            np.testing.assert_array_equal(j1[0], j_all[c])


# ----------------------------------------------------------------------
# bitwise pins against the commit before the shared-factor plan
# ----------------------------------------------------------------------

#: sha256 over ``J.tobytes() + source.tobytes()`` of the states below,
#: computed at the parent commit of PR 13 (before the Jacobian took its
#: Arrhenius factors, Ru T and [M] from the kinetics plan and ``source``
#: fused its thermo pass). Like the lifted-jet state hashes these depend
#: on the platform's libm only through exp/log/pow.
PARENT_DIGESTS = {
    ("h2", "constant-volume", 1): "7c340b88e0935b10ab5219343649679e51078965de65111b89ddb43c16786cf3",
    ("h2", "constant-volume", 2): "2a0b9e07d63fadd4dad3eb29bdff84e5f57a5f556379fd1c99316c4a6fc6bbb6",
    ("h2", "constant-volume", 68): "9707d4bc90e29dc76999723845d7d00c45b182b2576774d6b182368aa75d5ea3",
    ("ch4", "constant-volume", 1): "de72c8330392432b6273ba88c0692cb8534bbdf8e77ad43ef6f36a9dffe91a28",
    ("ch4", "constant-volume", 2): "3e3415b7ccec7572d9482fc13fb558398180a65b9f08d03385317f25565cc921",
    ("ch4", "constant-volume", 68): "ef240d941aceae01a27384714a5afb89bf222eb14f6e3ed717e98fe2720f8231",
}


def _pinned_states(mech, n_cells):
    rng = np.random.default_rng(13)
    T = rng.uniform(320.0, 2800.0, n_cells)
    Y = rng.uniform(0.0, 1.0, (mech.n_species, n_cells)) ** 2
    Y[1, ::4] = 0.0  # exact zeros: the clipped-power sub-gradients
    Y /= Y.sum(axis=0)
    return T, Y


class TestBitwiseAgainstParentCommit:
    @pytest.mark.parametrize("key", list(PARENT_DIGESTS), ids=lambda k: "-".join(map(str, k)))
    def test_jacobian_and_source(self, key, h2_mech, ch4_mech):
        name, mode, n_cells = key
        mech = {"h2": h2_mech, "ch4": ch4_mech}[name]
        stj = SourceTermJacobian(mech, mode=mode)
        T, Y = _pinned_states(mech, n_cells)
        kw = {"rho": mech.density(100.0 * P_ATM, T, Y)}
        f, J = stj.source_and_jacobian(T, Y, **kw)
        assert np.array_equal(J, stj.jacobian(T, Y, **kw))
        blob = J.tobytes() + stj.source(T, Y, **kw).tobytes()
        assert hashlib.sha256(blob).hexdigest() == PARENT_DIGESTS[key]

    def test_single_cells_match_the_batch(self, h2_mech):
        stj = SourceTermJacobian(h2_mech, mode="constant-volume")
        T, Y = _pinned_states(h2_mech, 68)
        rho = h2_mech.density(100.0 * P_ATM, T, Y)
        J = stj.jacobian(T, Y, rho=rho)
        for c in (0, 4, 67):  # 4: a zeroed species
            one = stj.jacobian(T[c:c + 1], Y[:, c:c + 1], rho=rho[c:c + 1])
            assert np.array_equal(one[0], J[c])
