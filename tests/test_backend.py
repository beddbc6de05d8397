"""Array-backend layer: registry and selection plumbing, importability
gating, workspace arena tagging, pack builders, and the tolerance
battery for the non-reference backend (skip-with-reason where the
optional package is absent)."""

import numpy as np
import pytest

import repro.backend as B
from repro.backend import (
    ArrayBackend,
    BackendUnavailable,
    backend_skip_reason,
    resolve_backend,
)
from repro.backend import packs as P
from repro.chemistry import ch4_twostep, h2_li2004
from repro.chemistry.mechanisms import ch4_jl4
from repro.core.config import KNOBS, SolverConfig, periodic_boundaries, resolve
from repro.core.derivatives import DerivativeOperator
from repro.core.filters import FilterOperator
from repro.core.grid import Grid
from repro.core.rhs import CompressibleRHS
from repro.core.state import State
from repro.core.workspace import Workspace
from repro.transport import MixtureAveragedTransport

OPTIONAL_BACKENDS = ("numba",)


class _TaggedBackend(ArrayBackend):
    """Host-reference behavior under a different registry name; used to
    exercise the naive-engine guard without needing numba installed."""

    name = "tagged-test"
    is_reference = False


def _make_state(mech, grid, seed=3):
    rng = np.random.default_rng(seed)
    S = grid.shape
    T = 1100.0 + 300.0 * rng.random(S)
    rho = 0.4 + 0.2 * rng.random(S)
    vel = [30.0 * (rng.random(S) - 0.5) for _ in range(grid.ndim)]
    Y = rng.random((mech.n_species,) + S) + 0.05
    Y /= Y.sum(axis=0)
    return State.from_primitive(mech, grid, rho, vel, T, Y)


def _periodic(*shape_dx):
    shape, dx = zip(*shape_dx)
    return Grid(shape, dx, periodic=(True,) * len(shape))


class TestRegistryAndSelection:
    def test_all_backends_registered(self):
        assert B.BACKEND_NAMES == KNOBS["rhs_backend"].choices
        assert B.BACKEND_NAMES == ("numpy", "numba")

    def test_default_is_numpy_reference(self, monkeypatch):
        monkeypatch.delenv("REPRO_RHS_BACKEND", raising=False)
        be = resolve_backend()
        assert be.name == "numpy"
        assert be.is_reference

    def test_env_selects_backend(self, monkeypatch):
        monkeypatch.setenv("REPRO_RHS_BACKEND", "numpy")
        assert resolve_backend().name == "numpy"

    def test_explicit_name_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_RHS_BACKEND", "not-a-backend")
        assert resolve_backend("numpy").name == "numpy"

    def test_explicit_instance_beats_everything(self, monkeypatch):
        monkeypatch.setenv("REPRO_RHS_BACKEND", "not-a-backend")
        inst = _TaggedBackend()
        assert resolve_backend(inst) is inst

    def test_instances_are_cached_per_name(self):
        assert resolve_backend("numpy") is resolve_backend("numpy")

    def test_unknown_backend_error_lists_registered(self):
        with pytest.raises(ValueError) as exc:
            resolve("rhs_backend", "not-a-backend")
        msg = str(exc.value)
        for name in ("numpy", "numba"):
            assert name in msg

    def test_deleted_torch_backend_is_unknown(self):
        with pytest.raises(ValueError, match="'numpy', 'numba'"):
            resolve_backend("torch")

    def test_env_unknown_backend_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_RHS_BACKEND", "not-a-backend")
        with pytest.raises(ValueError):
            resolve_backend()

    @pytest.mark.parametrize("name", OPTIONAL_BACKENDS)
    def test_optional_backend_gating(self, name):
        """Unavailable optional backends raise naming the missing
        package; available ones resolve to a working instance."""
        reason = backend_skip_reason(name)
        if reason is None:
            assert resolve_backend(name).name == name
        else:
            assert name in reason  # names the missing package
            with pytest.raises(BackendUnavailable) as exc:
                resolve_backend(name)
            assert exc.value.backend == name
            assert exc.value.missing == name
            assert name in str(exc.value)

    @pytest.mark.parametrize("name", OPTIONAL_BACKENDS)
    def test_config_validates_name_without_package(self, name):
        """Config validation must pass on machines without the package."""
        grid = _periodic((16, 0.01))
        cfg = SolverConfig(boundaries=periodic_boundaries(1), rhs_backend=name)
        cfg.validate(grid)

    def test_config_rejects_unknown_backend(self):
        grid = _periodic((16, 0.01))
        cfg = SolverConfig(boundaries=periodic_boundaries(1),
                           rhs_backend="not-a-backend")
        with pytest.raises(ValueError, match="rhs_backend"):
            cfg.validate(grid)

    def test_naive_engine_rejects_non_reference_backend(self):
        mech = h2_li2004()
        st = _make_state(mech, _periodic((16, 0.01)))
        with pytest.raises(ValueError, match="requires rhs_backend='numpy'"):
            CompressibleRHS(st, reacting=True, engine="naive",
                            backend=_TaggedBackend())

    def test_rhs_publishes_backend_gauge(self):
        from repro.telemetry import Telemetry

        mech = h2_li2004()
        st = _make_state(mech, _periodic((16, 0.01)))
        tel = Telemetry()
        rhs = CompressibleRHS(st, reacting=True, telemetry=tel,
                              backend="numpy")
        assert rhs.backend.name == "numpy"
        assert tel.gauge("rhs.backend.numpy").value == 1.0


class TestWorkspaceTagging:
    """Arena keys carry a dtype tag: switching dtypes can never hand
    out an aliased buffer."""

    def test_dtype_tag_keeps_both_buffers(self):
        ws = Workspace()
        a64 = ws.array("slot", (6,), dtype=np.float64)
        a32 = ws.array("slot", (6,), dtype=np.float32)
        assert a64.dtype == np.float64 and a32.dtype == np.float32
        assert not np.may_share_memory(a64, a32)
        # re-requesting either dtype returns its own slot (no rekey churn)
        assert ws.array("slot", (6,), dtype=np.float64) is a64
        assert ws.array("slot", (6,), dtype=np.float32) is a32

    def test_nbytes_counts_all_tagged_slots(self):
        ws = Workspace()
        ws.array("slot", (10,))
        ws.array("slot", (10,), dtype=np.float32)
        assert ws.nbytes == 10 * 8 + 10 * 4
        ws.clear()
        assert ws.nbytes == 0 and len(ws) == 0


class TestNumpyBackendBitwise:
    """Explicitly selecting the numpy backend changes no bits vs the
    default construction path."""

    @pytest.mark.parametrize("reacting", [True, False])
    def test_rhs_bit_identical(self, monkeypatch, reacting):
        monkeypatch.delenv("REPRO_RHS_BACKEND", raising=False)
        mech = h2_li2004()
        grid = _periodic((12, 0.01), (10, 0.008))
        st_a = _make_state(mech, grid)
        st_b = State(mech, grid, st_a.u.copy())
        if st_a._t_cache is not None:
            st_b._t_cache = st_a._t_cache.copy()
        tr_a = MixtureAveragedTransport(mech)
        tr_b = MixtureAveragedTransport(mech)
        rhs_a = CompressibleRHS(st_a, transport=tr_a, reacting=reacting)
        rhs_b = CompressibleRHS(st_b, transport=tr_b, reacting=reacting,
                                backend="numpy")
        assert np.array_equal(rhs_a(0.0, st_a.u), rhs_b(0.0, st_b.u))

    def test_operators_reference_path_with_numpy_backend(self):
        rng = np.random.default_rng(5)
        f = rng.standard_normal((24, 7))
        be = resolve_backend("numpy")
        for periodic in (True, False):
            d_ref = DerivativeOperator(24, 0.01, periodic=periodic).apply(f)
            d_be = DerivativeOperator(24, 0.01, periodic=periodic,
                                      backend=be).apply(f)
            assert np.array_equal(d_ref, d_be)
            g_ref = FilterOperator(24, periodic=periodic, alpha=0.5).apply(f)
            g_be = FilterOperator(24, periodic=periodic, alpha=0.5,
                                  backend=be).apply(f)
            assert np.array_equal(g_ref, g_be)


class TestPacks:
    """The flattened mechanism packs mirror the evaluator's internals."""

    MECHS = [("h2", h2_li2004), ("ch4_jl4", ch4_jl4), ("ch4_2s", ch4_twostep)]

    @pytest.mark.parametrize("name,builder", MECHS, ids=[m[0] for m in MECHS])
    def test_kinetics_pack_mirrors_mechanism(self, name, builder):
        mech = builder()
        pack = P.KineticsPack.from_mechanism(mech)
        kin = mech.kinetics
        assert pack.ns == mech.n_species
        assert pack.nr == mech.n_reactions
        np.testing.assert_array_equal(pack.weights, mech.weights)
        np.testing.assert_array_equal(pack.delta_nu, kin._delta_nu)
        for j, rxn in enumerate(kin.reactions):
            assert pack.A[j] == rxn.rate.A
            assert pack.b[j] == rxn.rate.n
            assert pack.Ea[j] == rxn.rate.Ea
            assert bool(pack.reversible[j]) == bool(rxn.reversible)


# ----------------------------------------------------------------------
# tolerance conformance battery for the optional accelerated backends
# ----------------------------------------------------------------------

RTOL = 1e-12


def _skip_unless_available(name):
    reason = backend_skip_reason(name)
    if reason is not None:
        pytest.skip(reason)
    return resolve_backend(name)


def _assert_close(ref, got, rtol=RTOL):
    """Relative tolerance scaled per leading field (du rows span ~10
    orders of magnitude between density and energy)."""
    ref = np.asarray(ref)
    got = np.asarray(got)
    assert ref.shape == got.shape
    r2 = ref.reshape(len(ref), -1) if ref.ndim > 1 else ref.reshape(1, -1)
    g2 = got.reshape(len(got), -1) if got.ndim > 1 else got.reshape(1, -1)
    for k in range(len(r2)):
        scale = np.max(np.abs(r2[k]))
        if scale == 0.0:
            assert np.all(g2[k] == 0.0)
        else:
            assert np.max(np.abs(g2[k] - r2[k])) <= rtol * scale


@pytest.mark.parametrize("name", OPTIONAL_BACKENDS)
class TestAcceleratedConformance:
    def test_derivative_sweeps(self, name):
        be = _skip_unless_available(name)
        rng = np.random.default_rng(23)
        metric = 1.0 / (0.01 * (1.0 + 0.3 * rng.random(32)))
        for periodic in (True, False):
            for spacing in (0.01, metric):
                ref_op = DerivativeOperator(32, spacing, periodic=periodic)
                be_op = DerivativeOperator(32, spacing, periodic=periodic,
                                           backend=be)
                f = rng.standard_normal((5, 32, 6))
                ref = ref_op.apply(f, axis=1)
                got = be_op.apply(f, axis=1)
                _assert_close(ref, got)

    def test_filter_sweeps(self, name):
        be = _skip_unless_available(name)
        rng = np.random.default_rng(29)
        for periodic in (True, False):
            ref_op = FilterOperator(24, periodic=periodic, alpha=0.7)
            be_op = FilterOperator(24, periodic=periodic, alpha=0.7,
                                   backend=be)
            f = rng.standard_normal((24, 9))
            _assert_close(ref_op.apply(f), be_op.apply(f))
            # documented in-place (out aliases f) usage
            a_ref, a_be = f.copy(), f.copy()
            ref_op.apply(a_ref, out=a_ref)
            be_op.apply(a_be, out=a_be)
            _assert_close(a_ref, a_be)

    def test_newton_hook(self, name):
        be = _skip_unless_available(name)
        mech = h2_li2004()
        rng = np.random.default_rng(31)
        S = (11, 5)
        T_true = rng.uniform(400.0, 2600.0, S)
        Y = rng.random((mech.n_species,) + S) + 0.02
        Y /= Y.sum(axis=0)
        e = mech.int_energy_mass(T_true, Y)
        ref = mech.temperature_from_energy(e, Y)
        got = be.temperature_from_energy(mech, e, Y)
        _assert_close(ref, got)

    @pytest.mark.parametrize("builder", [h2_li2004, ch4_jl4])
    def test_production_rates_hook(self, name, builder):
        be = _skip_unless_available(name)
        mech = builder()
        rng = np.random.default_rng(37)
        S = (8, 6)
        T = rng.uniform(500.0, 2700.0, S)
        Y = rng.random((mech.n_species,) + S) + 0.02
        Y /= Y.sum(axis=0)
        rho = rng.uniform(0.2, 1.5, S)
        ref = mech.production_rates(rho, T, Y)
        got = be.production_rates(mech, rho, T, Y)
        _assert_close(ref, got, rtol=1e-11)

    def test_full_rhs_vs_reference(self, name):
        be = _skip_unless_available(name)
        mech = h2_li2004()
        grid = _periodic((12, 0.01), (10, 0.008), (8, 0.01))
        st_ref = _make_state(mech, grid)
        st_be = State(mech, grid, st_ref.u.copy())
        if st_ref._t_cache is not None:
            st_be._t_cache = st_ref._t_cache.copy()
        rhs_ref = CompressibleRHS(st_ref, transport=MixtureAveragedTransport(mech),
                                  reacting=True, backend="numpy")
        rhs_be = CompressibleRHS(st_be, transport=MixtureAveragedTransport(mech),
                                 reacting=True, backend=be)
        du_ref = rhs_ref(0.0, st_ref.u)
        du_be = rhs_be(0.0, st_be.u)
        _assert_close(du_ref, du_be, rtol=1e-10)
        # warm re-evaluation through the arena stays within tolerance
        out = np.empty_like(du_be)
        rhs_be(0.0, st_be.u, out=out)
        _assert_close(du_ref, out, rtol=1e-10)

    def test_compile_telemetry_counters(self, name):
        be = _skip_unless_available(name)
        mech = h2_li2004()
        st = _make_state(mech, _periodic((16, 0.01)))
        rhs = CompressibleRHS(st, reacting=True, backend=be)
        rhs(0.0, st.u)
        assert be.compile_count >= 0
        assert be.compile_seconds >= 0.0
