"""Native-layout grouped stencil sweeps: bitwise against the per-field
reference formulations, whatever the axis, layout, aliasing or group size.

The derivative's oracle is :meth:`DerivativeOperator.apply_naive` (the
``np.roll`` / one-field-at-a-time original kept in the source); the
filter never had one, so its pre-grouping sweep is frozen here.
"""

import numpy as np
import pytest

import repro.core.stencil as stencil
from repro.core.derivatives import DerivativeOperator, gradient_operators
from repro.core.filters import FILTER_HALF_WIDTH, FilterOperator, filter_operators
from repro.core.grid import Grid

N = 16  # points along the swept axis


def filter_naive(filt, f, axis):
    """The sweep-axis-leading filter (the parent commit's ``_apply_axis0``),
    fresh temporaries, one term at a time."""
    f = np.moveaxis(np.asarray(f, dtype=float), axis, 0)
    n, w = filt.n, FILTER_HALF_WIDTH
    corr = np.zeros_like(f)
    if filt.periodic:
        pad = np.concatenate([f[n - w:], f, f[:w]])
        corr = pad[0:n] * filt.weights[0]
        for k in range(-w + 1, w + 1):
            corr = corr + pad[w + k : w + n + k] * filt.weights[k + w]
    else:
        ci = f[0 : n - 2 * w] * filt.weights[0]
        for k in range(-w + 1, w + 1):
            ci = ci + f[w + k : n - w + k] * filt.weights[k + w]
        corr[w : n - w] = ci
        for j in range(1, w):
            bw = filt._boundary_weights[j - 1]
            for k in range(-j, j + 1):
                corr[j] += f[j + k] * bw[k + j]
                corr[n - 1 - j] += f[n - 1 - j + k] * bw[k + j]
    return np.moveaxis(f - corr, 0, axis)


def _layout(rng, shape, layout):
    f = rng.standard_normal(shape)
    if layout == "fortran":
        return np.asfortranarray(f)
    if layout == "strided":
        big = rng.standard_normal(tuple(2 * s for s in shape))
        return big[tuple(slice(None, None, 2) for _ in shape)]
    return f


#: (stack shape, swept axes): 1-D, 2-D and 3-D stacks, every axis of length N
SHAPES = [
    ((N,), (0,)),
    ((5, N), (1,)),
    ((N, 7), (0,)),
    ((4, N, 6), (1,)),
    ((3, 6, N), (2,)),
    ((3, N, 5, 6), (1,)),
    ((3, 5, N, 6), (2,)),
    ((3, 5, 6, N), (3, -1)),
]
#: group budget forcing one field per group, a few, and the whole stack
BUDGETS = [1, 3 * 5 * N * 8 * 2, 1 << 30]


@pytest.fixture(params=BUDGETS, ids=["1-field", "several", "whole"])
def budget(request, monkeypatch):
    monkeypatch.setattr(stencil, "GROUP_BYTES", request.param)
    return request.param


@pytest.mark.parametrize("layout", ["c", "fortran", "strided"])
@pytest.mark.parametrize("periodic", [True, False], ids=["periodic", "boundaries"])
@pytest.mark.parametrize("shape,axes", SHAPES, ids=[str(s) for s, _ in SHAPES])
class TestSweepsAreBitwiseTheReference:
    def test_derivative(self, rng, budget, shape, axes, periodic, layout):
        metric = 1.0 / (0.5 + rng.random(N))  # stretched grid
        op = DerivativeOperator(N, metric, periodic=periodic)
        f = _layout(rng, shape, layout)
        for axis in axes:
            expected = op.apply_naive(f, axis=axis)
            assert np.array_equal(op.apply(f, axis=axis), expected)
            out = np.full(shape, np.nan)
            assert op.apply(f, axis=axis, out=out) is out
            assert np.array_equal(out, expected)
            g = f.copy(order="K")
            op.apply(g, axis=axis, out=g)  # in place
            assert np.array_equal(g, expected)

    def test_filter(self, rng, budget, shape, axes, periodic, layout):
        filt = FilterOperator(N, periodic=periodic, alpha=0.7)
        f = _layout(rng, shape, layout)
        for axis in axes:
            expected = filter_naive(filt, f, axis)
            assert np.array_equal(filt.apply(f, axis=axis), expected)
            g = f.copy(order="K")
            assert filt.apply(g, axis=axis, out=g) is g  # out is f
            assert np.array_equal(g, expected)
            out = np.asfortranarray(np.full(shape, np.nan))
            filt.apply(f, axis=axis, out=out)
            assert np.array_equal(out, expected)


class TestSweepCorners:
    @pytest.mark.parametrize("periodic", [True, False])
    def test_narrow_boundary_closure_rows(self, rng, budget, periodic):
        # boundary_width < HALF_WIDTH leaves zero-derivative rows between
        # the closures and the first full interior stencil
        op = DerivativeOperator(N, -0.3, periodic=periodic, boundary_width=2)
        f = rng.standard_normal((3, 5, N))
        assert np.array_equal(op.apply(f, axis=2), op.apply_naive(f, axis=2))

    @pytest.mark.parametrize("make", [
        lambda: DerivativeOperator(N, 0.1, periodic=False),
        lambda: FilterOperator(N, periodic=False),
    ], ids=["derivative", "filter"])
    def test_partially_overlapping_out_is_safe(self, rng, budget, make):
        # out overlapping f at an offset: one group's result must not
        # clobber the next group's input
        op = make()
        buf = rng.standard_normal((7, N, 4))
        f, out = buf[:6], buf[1:]
        expected = op.apply(f.copy(), axis=1)
        op.apply(f, axis=1, out=out)
        assert np.array_equal(out, expected)

    def test_nonfinite_input_stays_where_the_stencil_puts_it(self, budget):
        # the flat passes combine neighbouring rows at positions nobody
        # reads; a NaN must not leak from one field into another
        op = DerivativeOperator(N, 0.1, periodic=True)
        f = np.ones((3, 4, N))
        f[1, 2, 5] = np.nan
        with np.errstate(invalid="ignore"):
            d = op.apply(f, axis=2)
        assert np.isnan(d[1, 2]).any()
        d[1, 2] = 0.0
        assert np.isfinite(d).all()


class TestSweepScratch:
    def test_ten_stack_shapes_hold_scratch_for_one(self, rng):
        op = DerivativeOperator(32, 0.1, periodic=True)
        filt = FilterOperator(32, periodic=False)
        sizes = []
        for nfields in range(1, 11):
            stack = rng.standard_normal((nfields, 32, 32, 8))
            op.apply_stack(stack, axis=0)
            filt.apply(stack, axis=1, out=stack)
            sizes.append((op._scratch.nbytes, filt._scratch.nbytes))
        field = 32 * 32 * 8 * 8
        group = max(stencil.GROUP_BYTES, field)
        # ghost pad + accumulator + term temporary, each at most one
        # ghost-grown group, plus the few boundary rows
        for nbytes in sizes[-1]:
            assert nbytes <= 3 * group * (32 + 2 * FILTER_HALF_WIDTH) / 32 + field
        # ... reached as soon as one full group has been swept
        full = stencil.GROUP_BYTES // field
        assert sizes[-1] == sizes[full]

    def test_alternating_stack_shapes_do_not_reallocate(self, rng):
        # the RHS sweeps a gradient stack and a flux stack in turn
        op = DerivativeOperator(24, 0.1, periodic=False)
        a, b = rng.standard_normal((6, 24, 10)), rng.standard_normal((5, 24, 10))
        op.apply_stack(a, axis=0)
        bufs = {k: id(v) for k, v in op._scratch._flat.items()}
        for stack in (b, a, b):
            op.apply_stack(stack, axis=0)
        assert {k: id(v) for k, v in op._scratch._flat.items()} == bufs

    def test_a_grids_operators_share_one_scratch(self):
        grid = Grid((16, 18, 20), (1.0, 1.0, 1.0), periodic=(True, False, True))
        ops, filters = gradient_operators(grid), filter_operators(grid)
        assert all(op._scratch is ops[0]._scratch for op in ops)
        assert all(f._scratch is filters[0]._scratch for f in filters)
        assert DerivativeOperator(16, 0.1)._scratch is not ops[0]._scratch


class TestBackendKernelStaging:
    """The compiled-kernel path (numba, CI ``backend`` lane only) stages
    through contiguous ``(n, m)`` views; a NumPy stand-in with the
    kernels' signatures checks the staging here."""

    @pytest.mark.parametrize("periodic", [True, False])
    def test_derivative_and_filter(self, rng, periodic):
        ref_d = DerivativeOperator(N, 0.1, periodic=periodic)
        ref_f = FilterOperator(N, periodic=periodic, alpha=0.6)
        op = DerivativeOperator(N, 0.1, periodic=periodic)
        filt = FilterOperator(N, periodic=periodic, alpha=0.6)
        seen = []

        def deriv_kernel(f2, *consts_and_out):
            *consts, d2 = consts_and_out
            assert len(consts) == (2 if periodic else 4)
            assert f2.flags.c_contiguous and d2.flags.c_contiguous and f2.ndim == 2
            seen.append("d")
            d2[...] = ref_d.apply_naive(f2, axis=0)

        def filter_kernel(f2, *consts_and_out):
            *consts, d2 = consts_and_out
            assert len(consts) == (1 if periodic else 2)
            assert f2.flags.c_contiguous and d2.flags.c_contiguous
            seen.append("f")
            d2[...] = filter_naive(ref_f, f2, 0)

        op._kernel, filt._kernel = deriv_kernel, filter_kernel
        f = rng.standard_normal((3, N, 5))
        assert np.array_equal(op.apply(f, axis=1), ref_d.apply_naive(f, axis=1))
        g = f.copy()
        filt.apply(g, axis=1, out=g)  # aliased and strided: staged both ways
        assert np.array_equal(g, filter_naive(ref_f, f, 1))
        h = rng.standard_normal((N, 4))
        assert np.array_equal(op.apply(h, axis=0), ref_d.apply_naive(h, axis=0))
        assert seen == ["d", "f", "d"]
