"""Native-layout grouped stencil sweeps: bitwise against the per-field
reference formulations, whatever the axis, layout, aliasing or group size.

The derivative's oracle is :meth:`DerivativeOperator.apply_naive` (the
``np.roll`` / one-field-at-a-time original kept in the source); the
filter never had one, so its pre-grouping sweep is frozen here.
"""

import itertools

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
        # reads, and the closures compute every boundary row per term: a
        # NaN must reach exactly the rows whose stencil reads it, in its
        # own field line, and nothing else
        for deriv, periodic, (shape, axis) in itertools.product(
                (True, False), (True, False), (((3, 4, N), 2), ((3, N, 4), 1))):
            op = (DerivativeOperator(N, 0.1, periodic=periodic) if deriv
                  else FilterOperator(N, periodic=periodic))
            w = 4 if deriv else FILTER_HALF_WIDTH
            line = (1, 2, slice(None)) if axis == 2 else (1, slice(None), 2)

            def reads(i, p):
                if periodic or w <= i < N - w:
                    dist = min(abs(i - p), N - abs(i - p)) if periodic else abs(i - p)
                    return 1 <= dist <= w if deriv else dist <= w
                if deriv:  # one-sided closures read the 5 end points
                    return p <= 4 if i < w else p >= N - 5
                return abs(i - p) <= min(i, N - 1 - i)  # reduced-order rows

            for p in range(N):
                f = np.ones(shape)
                f[line[:axis] + (p,) + line[axis + 1:]] = np.nan
                with np.errstate(invalid="ignore"):
                    d = op.apply(f, axis=axis)
                nan = np.isnan(d[line])
                assert nan.tolist() == [reads(i, p) for i in range(N)], (deriv, periodic, axis, p)
                d[line] = 0.0
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


# ---------------------------------------------------------------------------
# ghost-filled sweeps: one block of a decomposed periodic axis
# ---------------------------------------------------------------------------
from hypothesis import given, settings, strategies as st  # noqa: E402


@st.composite
def _decomposed_sweeps(draw):
    """A global stack, a swept axis, and cut points splitting that axis
    into blocks of at least 5 points (even and uneven, some narrower
    than the 9- and 11-point stencils)."""
    ndim = draw(st.integers(1, 4))
    axis = draw(st.integers(0, ndim - 1))
    shape = [draw(st.integers(1, 5)) for _ in range(ndim)]
    nblocks = draw(st.integers(1, 4))
    widths = [draw(st.integers(5, 12)) for _ in range(nblocks)]
    if draw(st.booleans()):
        widths = [widths[0]] * nblocks  # the even split
    shape[axis] = max(sum(widths), 2 * FILTER_HALF_WIDTH + 1)
    widths[-1] += shape[axis] - sum(widths)
    cuts = np.concatenate([[0], np.cumsum(widths)])
    return (tuple(shape), axis, cuts,
            draw(st.sampled_from(["c", "strided", "inplace"])),
            draw(st.sampled_from([1, 4096, 1 << 30])),
            draw(st.integers(0, 2**32 - 1)))


class TestGhostFilledSweeps:
    """A block swept with its neighbours' rows as ghost slabs gets the
    rows the global periodic operator gives it — the same IEEE
    operations on the same inputs: bitwise."""

    @settings(max_examples=60, deadline=None)
    @given(_decomposed_sweeps(), st.sampled_from(["derivative", "filter"]))
    def test_block_is_the_slice_of_the_global_sweep(self, case, kind):
        shape, axis, cuts, layout, group_bytes, seed = case
        rng = np.random.default_rng(seed)
        n = shape[axis]
        f = rng.standard_normal(shape)
        metric = 1.0 / (0.5 + rng.random(n))  # a stretched metric, sliced
        if kind == "derivative":
            w = 4

            def make(lo, hi):
                return DerivativeOperator(hi - lo, metric[lo:hi], periodic=True)
            ref = DerivativeOperator(n, metric, periodic=True).apply(f, axis=axis)
        else:
            w = FILTER_HALF_WIDTH

            def make(lo, hi):
                return FilterOperator(hi - lo, periodic=True, alpha=0.3)
            ref = FilterOperator(n, periodic=True, alpha=0.3).apply(f, axis=axis)
        saved = stencil.GROUP_BYTES
        stencil.GROUP_BYTES = group_bytes
        try:
            for lo, hi in zip(cuts[:-1], cuts[1:]):
                rows = np.arange(lo - w, hi + w) % n
                padded = _relayout(np.take(f, rows, axis=axis), layout)
                block = padded[stencil.along(axis, w, w + hi - lo)]
                ghosts = (padded[stencil.along(axis, 0, w)],
                          padded[stencil.along(axis, w + hi - lo, None)])
                out = block if (layout, kind) == ("inplace", "filter") else None
                got = make(lo, hi).apply(block, axis=axis, out=out, ghosts=ghosts)
                want = np.take(ref, np.arange(lo, hi), axis=axis)
                assert np.array_equal(got, want)
        finally:
            stencil.GROUP_BYTES = saved

    def test_ghosts_need_a_periodic_operator_and_a_wrap_needs_the_stencil(self):
        f = np.zeros(12)
        with pytest.raises(ValueError, match="periodic operator"):
            DerivativeOperator(12, 0.1).apply(f, ghosts=(f[:4], f[:4]))
        with pytest.raises(ValueError, match="periodic operator"):
            FilterOperator(12).apply(f, ghosts=(f[:5], f[:5]))
        # a block narrower than the stencil can be built, and swept with
        # ghosts; wrapping it onto itself is what the size floor forbids
        with pytest.raises(ValueError, match="at least 9"):
            DerivativeOperator(6, 0.1, periodic=True).apply(f[:6])
        with pytest.raises(ValueError, match="at least 11"):
            FilterOperator(6, periodic=True).apply(f[:6])


def _relayout(a, layout):
    """``a`` as a fresh C array, or as a view of every second element of
    a larger one (``inplace`` keeps the C layout: the filter then writes
    into its own input)."""
    if layout != "strided":
        return np.ascontiguousarray(a)
    big = np.zeros(tuple(2 * s for s in a.shape))
    view = big[tuple(slice(None, None, 2) for _ in a.shape)]
    view[...] = a
    return view
