"""Tests for the §3-§4 performance model: the Figs 1-3 observables."""

import numpy as np
import pytest

from repro.perfmodel import (
    XT3,
    XT4,
    HybridSystem,
    hybrid_weak_scaling,
    kernel_time,
    profile_hybrid_run,
    s3d_kernel_inventory,
    weak_scaling_curve,
)
from repro.perfmodel.loadbalance import balance_curve, predicted_jaguar_cost, rebalanced_cost
from repro.perfmodel.profiler import class_means
from repro.perfmodel.roofline import achieved_flops_fraction, total_time


class TestNodeModels:
    def test_bandwidths(self):
        assert XT3.mem_bandwidth == 6.4e9
        assert XT4.mem_bandwidth == 10.6e9

    def test_peak_flops(self):
        # 2.6 GHz dual-core, 2 flops/cycle
        assert XT3.peak_flops == pytest.approx(10.4e9)

    def test_xt4_better_balance(self):
        assert XT4.balance > XT3.balance

    def test_hybrid_allocation_prefers_xt4(self):
        sys_ = HybridSystem()
        xt4, xt3 = sys_.allocation(4096)
        assert xt4 == 4096 and xt3 == 0
        xt4, xt3 = sys_.allocation(12000)
        assert xt4 == 2 * 5294
        assert xt3 == 12000 - 2 * 5294

    def test_allocation_overflow(self):
        with pytest.raises(ValueError):
            HybridSystem().allocation(10**6)

    def test_xt4_fraction(self):
        assert HybridSystem().xt4_fraction == pytest.approx(0.46, abs=0.01)


class TestRoofline:
    def test_reproduces_paper_node_times(self):
        """Fig 1's levels: ~68 us on XT3, ~55 us on XT4 per point/step."""
        inv = s3d_kernel_inventory()
        assert total_time(inv, XT3) * 1e6 == pytest.approx(68.0, rel=0.02)
        assert total_time(inv, XT4) * 1e6 == pytest.approx(55.0, rel=0.02)

    def test_xt3_penalty_about_24_percent(self):
        inv = s3d_kernel_inventory()
        ratio = total_time(inv, XT3) / total_time(inv, XT4)
        assert ratio == pytest.approx(1.24, abs=0.02)

    def test_compute_kernels_identical_across_nodes(self):
        """Fig 2: REACTION_RATES takes nearly identical time on both."""
        inv = s3d_kernel_inventory()
        rr = next(k for k in inv if k.name == "REACTION_RATES")
        assert kernel_time(rr, XT3) == pytest.approx(kernel_time(rr, XT4))

    def test_memory_kernels_slower_on_xt3(self):
        inv = s3d_kernel_inventory()
        diff = next(k for k in inv if k.name == "COMPUTESPECIESDIFFFLUX")
        assert kernel_time(diff, XT3) > kernel_time(diff, XT4)

    def test_diffflux_is_costliest_memory_kernel(self):
        """§4.1: the diffusive-flux nest is the most costly loop nest."""
        inv = s3d_kernel_inventory()
        mem = [k for k in inv if k.category == "memory"]
        times = {k.name: kernel_time(k, XT3) for k in mem}
        assert max(times, key=times.get) == "COMPUTESPECIESDIFFFLUX"

    def test_fifteen_percent_of_peak(self):
        """§4.1: S3D achieves 0.305 flops/cycle = 15 % of peak."""
        inv = s3d_kernel_inventory()
        frac = achieved_flops_fraction(inv, XT3)
        assert frac == pytest.approx(0.15, abs=0.01)


class TestWeakScaling:
    def test_flat_weak_scaling(self):
        """Fig 1: cost per point per step is flat from 2 to 8192 cores."""
        cores = [2, 64, 1024, 8192]
        t = weak_scaling_curve(XT4, cores)
        spread = (max(t) - min(t)) / min(t)
        assert spread < 0.05

    def test_hybrid_pinned_to_xt3_beyond_partition(self):
        """Fig 1's green curve: >8192 cores runs at the XT3 rate."""
        inv = s3d_kernel_inventory()
        t = hybrid_weak_scaling([4096, 12000, 22800])
        assert t[0] * 1e6 == pytest.approx(total_time(inv, XT4) * 1e6, rel=0.05)
        for big in t[1:]:
            assert big * 1e6 == pytest.approx(total_time(inv, XT3) * 1e6, rel=0.05)

    def test_monotone_ordering(self):
        cores = [64, 8192]
        t3 = weak_scaling_curve(XT3, cores)
        t4 = weak_scaling_curve(XT4, cores)
        assert all(a > b for a, b in zip(t3, t4))


class TestLoadBalance:
    def test_endpoints(self):
        """Fig 3: 68 us at f=0 down to ~55 us at f=1."""
        inv = s3d_kernel_inventory()
        assert rebalanced_cost(0.0) * 1e6 == pytest.approx(
            total_time(inv, XT3) * 1e6, rel=1e-6
        )
        assert rebalanced_cost(1.0) * 1e6 == pytest.approx(
            total_time(inv, XT4) * 1e6, rel=0.02
        )

    def test_jaguar_prediction(self):
        """§4: 'a predicted performance of 61 us ... at 46 % XT4'."""
        assert predicted_jaguar_cost() * 1e6 == pytest.approx(61.0, rel=0.03)

    def test_monotone_decreasing(self):
        f, cost = balance_curve()
        assert np.all(np.diff(cost[1:]) < 0)

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            rebalanced_cost(1.5)


class TestProfiler:
    def test_two_classes(self):
        profs = profile_hybrid_run(12800, sample_ranks=8)
        classes = {p.node_type for p in profs}
        assert classes == {"XT3", "XT4"}

    def test_xt4_waits_xt3_computes(self):
        """Fig 2: XT4 ranks spend substantially longer in MPI_Wait."""
        profs = profile_hybrid_run(12800, sample_ranks=8)
        cm = class_means(profs)
        assert cm["XT4"]["MPI_WAIT"] > 5 * cm["XT3"]["MPI_WAIT"]

    def test_totals_balanced(self):
        """Bulk-synchronous execution: both classes' totals match."""
        profs = profile_hybrid_run(12800, sample_ranks=8)
        cm = class_means(profs)
        t3 = sum(cm["XT3"].values())
        t4 = sum(cm["XT4"].values())
        assert t4 == pytest.approx(t3, rel=0.05)

    def test_reaction_rates_class_independent(self):
        profs = profile_hybrid_run(12800, sample_ranks=8)
        cm = class_means(profs)
        assert cm["XT3"]["REACTION_RATES"] == pytest.approx(
            cm["XT4"]["REACTION_RATES"], rel=0.05
        )

    def test_pure_allocation_rejected(self):
        with pytest.raises(ValueError):
            profile_hybrid_run(64)
