"""Tests for the LoopTool study: IR, transforms, cache sim, kernels."""

import numpy as np
import pytest

from repro.loopopt import (
    ArrayRef,
    Assign,
    CacheSim,
    Guard,
    Loop,
    Program,
    diffflux_program,
    interpret,
    naive_diffusive_flux,
    optimized_diffusive_flux,
    simulate_trace,
    trace_accesses,
    unswitch,
)
from repro.loopopt.transforms import (
    fuse_adjacent_loops,
    fuse_program,
    looptool_pipeline,
    unroll_and_jam,
)


def _stores_equal(a: dict, b: dict) -> bool:
    return all(np.allclose(a[k], b[k], rtol=1e-12) for k in a)


def _timed(fn, args, time):
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


def _simple_program(flag=True):
    i = ("i", 0)
    return Program(
        arrays={"a": (16,), "b": (16,), "c": (16,)},
        flags={"f": flag},
        body=[
            Loop("i", 16, [Assign(ArrayRef("a", (i,)), (ArrayRef("b", (i,)),))]),
            Guard("f", [
                Loop("i", 16, [
                    Assign(ArrayRef("c", (i,)),
                           (ArrayRef("a", (i,)), ArrayRef("b", (i,))))
                ]),
            ]),
        ],
    )


class TestInterpreter:
    def test_sum_semantics(self):
        prog = _simple_program()
        out = interpret(prog, inputs={"b": np.arange(16.0)})
        np.testing.assert_allclose(out["a"], np.arange(16.0))
        np.testing.assert_allclose(out["c"], 2 * np.arange(16.0))

    def test_guard_false_skips(self):
        prog = _simple_program(flag=False)
        ref = interpret(prog, inputs={"b": np.ones(16)})
        # c keeps its pseudo-random initial content: it must NOT be 2*b
        assert not np.allclose(ref["c"], 2.0)

    def test_accumulate(self):
        i = ("i", 0)
        prog = Program(
            arrays={"a": (4,), "b": (4,)},
            flags={},
            body=[
                Loop("i", 4, [
                    Assign(ArrayRef("a", (i,)), (ArrayRef("b", (i,)),)),
                    Assign(ArrayRef("a", (i,)), (ArrayRef("b", (i,)),),
                           accumulate=True),
                ]),
            ],
        )
        out = interpret(prog, inputs={"b": np.ones(4)})
        np.testing.assert_allclose(out["a"], 2.0)

    def test_bad_input_shape(self):
        with pytest.raises(ValueError):
            interpret(_simple_program(), inputs={"b": np.ones(5)})

    def test_trace_covers_reads_and_writes(self):
        prog = _simple_program()
        trace = trace_accesses(prog)
        reads = sum(1 for _, w in trace if not w)
        writes = sum(1 for _, w in trace if w)
        # loop 1: 16 reads + 16 writes; loop 2: 32 reads + 16 writes
        assert writes == 32
        assert reads == 48


class TestTransforms:
    def test_unswitch_preserves_semantics(self):
        for flag in (True, False):
            prog = _simple_program(flag)
            assert _stores_equal(interpret(prog), interpret(unswitch(prog)))

    def test_unswitch_hoists_guards_to_top(self):
        p = unswitch(_simple_program())
        assert all(isinstance(n, Guard) for n in p.body)

    def test_fusion_preserves_semantics(self):
        prog = _simple_program()
        fused = fuse_program(unswitch(prog))
        assert _stores_equal(interpret(prog), interpret(fused))

    def test_fusion_merges_loops(self):
        p = fuse_program(unswitch(_simple_program(True)))
        # inside the taken guard there should be ONE fused loop
        taken = next(n for n in p.body if isinstance(n, Guard) and not n.negate)
        loops = [n for n in taken.body if isinstance(n, Loop)]
        assert len(loops) == 1
        assert len(loops[0].body) == 2

    def test_fusion_blocked_by_carried_dependence(self):
        i = ("i", 0)
        a = Loop("i", 8, [Assign(ArrayRef("a", (i,)), (ArrayRef("b", (i,)),))])
        # reads a[i+1]: fusing would read not-yet-written values
        b = Loop("i", 8, [Assign(ArrayRef("c", (i,)), (ArrayRef("a", (("i", 1),)),))])
        fused = fuse_adjacent_loops([a, b])
        assert len(fused) == 2  # not fused

    def test_unroll_and_jam_semantics(self):
        i = ("i", 0)
        body = [Assign(ArrayRef("a", (("n", 0), i)), (ArrayRef("b", (("n", 0), i)),))]
        inner = Loop("i", 6, body)
        loop = Loop("n", 5, [inner])
        prog1 = Program({"a": (5, 6), "b": (5, 6)}, {}, [loop])
        prog2 = Program({"a": (5, 6), "b": (5, 6)}, {}, unroll_and_jam(loop, 2))
        assert _stores_equal(interpret(prog1), interpret(prog2))

    def test_unroll_factor_one_identity(self):
        loop = Loop("n", 3, [])
        assert unroll_and_jam(loop, 1) == (loop,)

    def test_full_pipeline_semantics(self):
        for thermdiff in (True, False):
            prog = diffflux_program(n_species=5, n_cells=30,
                                    thermdiff=thermdiff)
            ref = interpret(prog)
            out = interpret(looptool_pipeline(prog))
            assert _stores_equal(ref, out)


class TestCacheSim:
    def test_cold_misses(self):
        sim = CacheSim(size_bytes=1 << 12, line_bytes=64, associativity=4)
        for addr in range(0, 640, 8):
            sim.access(addr)
        assert sim.stats.misses == 10  # 640 B / 64 B lines
        assert sim.stats.hits == 70

    def test_lru_eviction(self):
        # 2 sets x 2 ways x 64 B = 256 B cache
        sim = CacheSim(size_bytes=256, line_bytes=64, associativity=2)
        sim.access(0)      # set 0
        sim.access(128)    # set 0
        sim.access(0)      # hit, 0 becomes MRU
        sim.access(256)    # set 0: evicts 128 (LRU)
        assert sim.access(0) is True
        assert sim.access(128) is False  # was evicted

    def test_size_validation(self):
        with pytest.raises(ValueError):
            CacheSim(size_bytes=1000, line_bytes=64, associativity=4)

    def test_reset(self):
        sim = CacheSim()
        sim.access(0)
        sim.reset()
        assert sim.stats.accesses == 0

    @pytest.mark.slow
    def test_transforms_reduce_misses(self):
        """The Fig 5 payoff: the pipeline cuts cache misses substantially
        when field slices exceed the cache."""
        prog = diffflux_program(n_species=9, n_cells=12000, thermdiff=True)
        kw = dict(size_bytes=1 << 16)
        before = simulate_trace(trace_accesses(prog), **kw)
        after = simulate_trace(trace_accesses(looptool_pipeline(prog)), **kw)
        assert after.misses < 0.65 * before.misses


class TestDiffFluxKernels:
    @pytest.fixture(scope="class")
    def data(self):
        ns, S = 7, (16, 16, 16)
        rng = np.random.default_rng(3)
        return dict(
            Ys=rng.random((ns,) + S),
            grad_Ys=rng.random((ns, 3) + S),
            Ds=rng.random((ns,) + S),
            grad_mixMW=rng.random((3,) + S),
            grad_T=rng.random((3,) + S),
            T=1.0 + rng.random(S),
            theta=rng.random((ns,) + S),
        )

    def test_kernels_agree_plain(self, data):
        f1 = naive_diffusive_flux(data["Ys"], data["grad_Ys"], data["Ds"],
                                  data["grad_mixMW"])
        f2 = optimized_diffusive_flux(data["Ys"], data["grad_Ys"], data["Ds"],
                                      data["grad_mixMW"])
        np.testing.assert_allclose(f1, f2, rtol=1e-12, atol=1e-14)

    def test_kernels_agree_thermdiff(self, data):
        kw = dict(grad_T=data["grad_T"], T=data["T"], theta=data["theta"],
                  thermdiff=True)
        f1 = naive_diffusive_flux(data["Ys"], data["grad_Ys"], data["Ds"],
                                  data["grad_mixMW"], **kw)
        f2 = optimized_diffusive_flux(data["Ys"], data["grad_Ys"], data["Ds"],
                                      data["grad_mixMW"], **kw)
        np.testing.assert_allclose(f1, f2, rtol=1e-12, atol=1e-14)

    def test_mass_conservation(self, data):
        """Last-species flux closes the sum: total diffusive flux = 0."""
        f = optimized_diffusive_flux(data["Ys"], data["grad_Ys"], data["Ds"],
                                     data["grad_mixMW"])
        total = f.sum(axis=0)
        assert np.abs(total).max() < 1e-12 * np.abs(f).max()

    def test_optimized_not_slower(self):
        """On benchmark-sized fields the restructured kernel wins; tiny
        fields are excluded (fixed call overheads dominate there).
        Repeats 5x and compares best-of to damp scheduler noise."""
        import time

        ns, S = 9, (40, 40, 40)
        rng = np.random.default_rng(11)
        args = (rng.random((ns,) + S), rng.random((ns, 3) + S),
                rng.random((ns,) + S), rng.random((3,) + S))
        t_naive = min(
            _timed(naive_diffusive_flux, args, time) for _ in range(5)
        )
        t_opt = min(
            _timed(optimized_diffusive_flux, args, time) for _ in range(5)
        )
        assert t_opt < 1.2 * t_naive
