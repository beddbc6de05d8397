"""The streamed, pair-symmetric transport kernel against the frozen
pair-array evaluator it replaced, and its batch-shape contract.

``PairArrayOracle`` is the evaluator of the parent commit, materialised
arrays and all: ``(Ns, Ns) + S`` Wilke and binary-diffusion matrices, one
``pow`` per pair for the Neufeld power term, ``np.sum`` / ``einsum``
reductions. The one deliberate difference is eq. (17): the parent summed
``X_j / D_ij`` over all ``j`` and subtracted the diagonal, which loses
digits for the dominant species (see ``TestEq17DominantSpecies``); the
oracle sums over ``j != i`` as the paper writes it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import repro.chemistry.thermo as thermo
import repro.transport.mixture as mixture
from repro.core.workspace import Workspace
from repro.transport import MixtureAveragedTransport
from repro.transport.collision import omega11, omega22
from repro.util.constants import P_ATM, RU
from tests.tolerances import TRANSPORT_KERNEL_RTOL
from tests.helpers import mole_fractions


class PairArrayOracle:
    """The pre-streaming evaluator, frozen."""

    def __init__(self, tr):
        self.tr = tr

    def evaluate(self, T, p, Y):
        tr = self.tr
        T = np.asarray(T, dtype=float)
        Y = np.asarray(Y, dtype=float)
        X = mole_fractions(tr.mech, Y)
        ns = X.shape[0]
        extra = (1,) * T.ndim
        # pure-species viscosities
        t_star = T[None] / tr.eps_over_k.reshape((-1,) + extra)
        mu = tr._mu_pref.reshape((-1,) + extra) * np.sqrt(T)[None] / omega22(t_star)
        # Wilke
        ratio = np.sqrt(mu[:, None] / mu[None, :])
        phi = (1.0 + ratio * tr._w_quarter.reshape((ns, ns) + extra)) ** 2
        phi = phi / tr._phi_denom.reshape((ns, ns) + extra)
        denom = np.einsum("j...,ij...->i...", X, phi)
        visc = (X * mu / denom).sum(axis=0)
        # Mathur-Tondon-Saxena over Eucken conductivities
        w = tr.weights.reshape((-1,) + extra)
        lam = mu * (tr.mech.thermo.cp_molar(T) / w + 1.25 * RU / w)
        cond = 0.5 * ((X * lam).sum(axis=0) + 1.0 / (X / lam).sum(axis=0))
        # binary diffusion matrix and eq. (17)
        t_star = T[None, None] / tr.eps_ij.reshape((ns, ns) + extra)
        d = (tr._d_pref.reshape((ns, ns) + extra) * T[None, None] ** 1.5
             / (np.broadcast_to(p, T.shape)[None, None] * omega11(t_star)))
        terms = X[None, :] / d
        terms[np.arange(ns), np.arange(ns)] = 0.0
        inv = terms.sum(axis=1)
        diff = (1.0 - Y) / np.maximum(inv, 1e-30) + 1e-30
        theta = tr.thermal_diffusion_ratios(T, X) if tr.soret else None
        return visc, cond, diff, theta


def _fields(props):
    out = [props.viscosity, props.conductivity, props.diffusivities]
    if props.thermal_diffusion_ratios is not None:
        out.append(props.thermal_diffusion_ratios)
    return out


def _bitwise(a, b):
    return all(np.array_equal(x, y) for x, y in zip(_fields(a), _fields(b), strict=True))


def _mixture(rng, mech, shape, kind):
    """Mass fractions of ``shape``: generic, with trace (exactly zero)
    species, or nearly pure in a random species per point."""
    ns = mech.n_species
    Y = rng.random((ns,) + shape) + 1e-3
    if kind == "trace":
        Y *= rng.random((ns,) + shape) > 0.4
        Y[rng.integers(ns)] += 1e-2  # never an all-zero point
    elif kind == "near-pure":
        Y *= 10.0 ** -rng.integers(4, 14, size=shape)
        dominant = rng.integers(ns, size=shape)
        np.put_along_axis(Y, dominant[None], 1.0, axis=0)
    return Y / Y.sum(axis=0)


@pytest.fixture(params=["h2", "ch4", "air"])
def mech(request, h2_mech, ch4_mech, air_mech):
    return {"h2": h2_mech, "ch4": ch4_mech, "air": air_mech}[request.param]


class TestAgainstThePairArrayOracle:
    """Within 1e-13 relative over the combustion range (measured: a few
    ulp — the kernel reassociates products, it approximates nothing)."""

    @pytest.mark.parametrize("soret", [False, True], ids=["plain", "soret"])
    @pytest.mark.parametrize("kind", ["generic", "trace", "near-pure"])
    @pytest.mark.parametrize("shape", [(), (7,), (5, 4), (3, 4, 5)],
                             ids=["0d", "1d", "2d", "3d"])
    def test_properties(self, rng, mech, shape, kind, soret):
        tr = MixtureAveragedTransport(mech, soret=soret)
        T = 250.0 + 3250.0 * rng.random(shape)
        p_field = P_ATM * 10.0 ** (np.log10(0.5) + np.log10(200.0) * rng.random(shape))
        Y = _mixture(rng, mech, shape, kind)
        for p in (p_field, 3.0 * P_ATM):  # field and scalar pressure
            got = _fields(tr.evaluate(T, p, Y))
            want = [x for x in PairArrayOracle(tr).evaluate(T, p, Y) if x is not None]
            assert len(got) == len(want)
            for g, w_ in zip(got, want):
                assert g.shape == w_.shape
                np.testing.assert_allclose(g, w_, rtol=TRANSPORT_KERNEL_RTOL,
                                           atol=0.0)

    def test_reference_formulas_agree_with_the_kernel(self, rng, mech):
        # the readable per-property methods are a second, independent
        # statement of the same physics
        tr = MixtureAveragedTransport(mech)
        T = 300.0 + 2500.0 * rng.random(6)
        Y = _mixture(rng, mech, (6,), "generic")
        X = mole_fractions(mech, Y)
        props = tr.evaluate(T, P_ATM, Y)
        np.testing.assert_allclose(props.viscosity, tr.mixture_viscosity(T, X),
                                   rtol=TRANSPORT_KERNEL_RTOL)
        np.testing.assert_allclose(props.conductivity, tr.mixture_conductivity(T, X),
                                   rtol=TRANSPORT_KERNEL_RTOL)
        np.testing.assert_allclose(
            props.diffusivities, tr.mixture_diffusivities(T, P_ATM, X, Y=Y),
            rtol=TRANSPORT_KERNEL_RTOL)


class TestOneKernelForEveryCaller:
    @pytest.mark.parametrize("soret", [False, True])
    def test_plain_and_workspace_calls_are_the_same_bits(self, rng, h2_mech, soret,
                                                         monkeypatch):
        monkeypatch.setattr(thermo, "TILE_CELLS", 16)  # 60 points: four tiles
        tr = MixtureAveragedTransport(h2_mech, soret=soret)
        T = 300.0 + 2000.0 * rng.random((6, 10))
        p = P_ATM * (0.5 + rng.random((6, 10)))
        Y = _mixture(rng, h2_mech, (6, 10), "trace")
        ws = Workspace()
        plain, pooled = tr.evaluate(T, p, Y), tr.evaluate(T, p, Y, workspace=ws)
        assert _bitwise(plain, pooled)
        # plain results are the caller's; pooled ones live in the arena
        again = tr.evaluate(T + 1.0, p, Y, workspace=ws)
        assert again.viscosity is pooled.viscosity
        assert not _bitwise(plain, again)

    def test_non_contiguous_inputs(self, rng, h2_mech):
        tr = MixtureAveragedTransport(h2_mech)
        T = 300.0 + 2000.0 * rng.random((8, 6))
        Y = _mixture(rng, h2_mech, (8, 6), "generic")
        want = tr.evaluate(T, P_ATM, Y)
        got = tr.evaluate(np.asfortranarray(T), P_ATM, np.asfortranarray(Y))
        assert _bitwise(got, want)
        got = tr.evaluate(T.T, P_ATM, np.swapaxes(Y, 1, 2))
        assert all(np.array_equal(g, np.swapaxes(w_, -1, -2))
                   for g, w_ in zip(_fields(got), _fields(want)))

    def test_omega11_is_evaluated_once_per_unordered_pair(self, rng, mech, monkeypatch):
        """exp() rows per tile: 2 (T^p) + 2 Ns (Omega22) + 3 Ns(Ns-1)/2."""
        rows = []

        class CountingNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            @staticmethod
            def exp(a, out=None):
                rows.append(1 if a.ndim == 1 else a.shape[0])
                return np.exp(a, out=out)

        monkeypatch.setattr(mixture, "np", CountingNumpy())
        tr = MixtureAveragedTransport(mech)
        ns = mech.n_species
        tr.evaluate(300.0 + 1000.0 * rng.random(5), P_ATM, _mixture(rng, mech, (5,), "generic"))
        pairs, rem = divmod(sum(rows) - 2 - 2 * ns, 3)
        assert (pairs, rem) == (ns * (ns - 1) // 2, 0)


class TestBatchShapeIndependence:
    """A point's properties are a pure function of the point: what keeps
    ``parallel == serial`` bitwise and the load balancer invisible."""

    @settings(max_examples=25, deadline=None)
    @given(data=hst.data())
    def test_sub_batches_and_permutations(self, data, h2_mech):
        n = data.draw(hst.integers(2, 40), label="points")
        seed = data.draw(hst.integers(0, 2**31 - 1), label="seed")
        rng = np.random.default_rng(seed)
        tr = MixtureAveragedTransport(h2_mech, soret=True)
        T = 250.0 + 3000.0 * rng.random(n)
        p = P_ATM * (0.5 + 50.0 * rng.random(n))
        Y = _mixture(rng, h2_mech, (n,), data.draw(
            hst.sampled_from(["generic", "trace", "near-pure"]), label="mixture"))
        whole = _fields(tr.evaluate(T, p, Y))
        perm = rng.permutation(n)
        cut = data.draw(hst.integers(1, n - 1), label="cut")
        permuted = _fields(tr.evaluate(T[perm], p[perm], Y[:, perm]))
        parts = [_fields(tr.evaluate(T[s], p[s], Y[:, s]))
                 for s in (slice(0, cut), slice(cut, n))]
        one = _fields(tr.evaluate(T[cut], p[cut], Y[:, cut]))  # 0-d
        for k, ref in enumerate(whole):
            assert np.array_equal(permuted[k], ref[..., perm])
            assert np.array_equal(np.concatenate([q[k] for q in parts], axis=-1), ref)
            assert np.array_equal(one[k], ref[..., cut])

    def test_field_shape_does_not_matter(self, rng, h2_mech):
        tr = MixtureAveragedTransport(h2_mech)
        T = 300.0 + 2000.0 * rng.random(60)
        Y = _mixture(rng, h2_mech, (60,), "generic")
        flat = tr.evaluate(T, P_ATM, Y)
        cube = tr.evaluate(T.reshape(3, 4, 5), P_ATM, Y.reshape(-1, 3, 4, 5))
        assert all(np.array_equal(c.reshape(f.shape), f)
                   for c, f in zip(_fields(cube), _fields(flat)))


class TestEq17DominantSpecies:
    """``sum_j X_j / D_ij - X_i / D_ii`` cancels as ``X_i -> 1``: the
    parent commit's D_N2^mix was wrong by 3e-13 / 1e-8 / 5e-6 / 8e-5 at
    ``1 - X_N2`` = 1e-4 / 1e-8 / 1e-11 / 1e-13 (H2 mechanism, 1200 K)."""

    @staticmethod
    def _longdouble_dmix(tr, T, p, Y):
        ld = np.longdouble
        Y = Y.astype(ld)
        w = tr.weights.astype(ld)
        X = Y / w / (Y / w).sum()
        t_star = ld(T) / tr.eps_ij.astype(ld)
        om = (ld(1.06036) * t_star ** ld(-0.15610)
              + ld(0.19300) * np.exp(ld(-0.47635) * t_star)
              + ld(1.03587) * np.exp(ld(-1.52996) * t_star)
              + ld(1.76474) * np.exp(ld(-3.89411) * t_star))
        d = tr._d_pref.astype(ld) * ld(T) ** ld(1.5) / (ld(p) * om)
        terms = X[None, :] / d
        np.fill_diagonal(terms, 0)
        return (1 - Y) / terms.sum(axis=1)

    @pytest.mark.parametrize("deficit", [1e-4, 1e-8, 1e-11, 1e-13])
    def test_every_species_as_the_dominant_one(self, h2_mech, deficit):
        tr = MixtureAveragedTransport(h2_mech)
        ns = h2_mech.n_species
        T = 1200.0
        for dominant in range(ns):
            X = np.full(ns, deficit / (ns - 1))
            X[dominant] = 1.0 - deficit
            Y = h2_mech.mole_to_mass(X)
            want = self._longdouble_dmix(tr, T, P_ATM, Y)
            kernel = tr.evaluate(np.array(T), P_ATM, Y).diffusivities
            formula = tr.mixture_diffusivities(np.array(T), P_ATM, mole_fractions(h2_mech, Y), Y=Y)
            for got in (kernel, formula):
                err = np.abs(got - want) / want
                assert float(err.max()) < 5e-15, (dominant, err)

    def test_pure_species_limit_is_the_finite_regularised_value(self, h2_mech):
        tr = MixtureAveragedTransport(h2_mech)
        ns = h2_mech.n_species
        for dominant in range(ns):
            Y = np.zeros(ns)
            Y[dominant] = 1.0
            for d in (tr.evaluate(np.array(900.0), P_ATM, Y).diffusivities,
                      tr.mixture_diffusivities(np.array(900.0), P_ATM, Y.copy(), Y=Y)):
                assert np.isfinite(d).all()
                assert d[dominant] == 1e-30
                others = np.delete(d, dominant)
                assert ((others > 1e-7) & (others < 1e-1)).all()
