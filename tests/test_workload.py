import math
import random
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bitfit import POLICY_KINDS, run_list_lifecycle, run_random_churn
from bitfit.workload import lifecycle_free_order, measure
from oracles import lifecycle_free_order_reference


class TestSequentialFraction:
    def test_perfectly_packed(self):
        assert measure([0, 32, 64], 32).sequential_fraction == 1.0

    def test_out_of_order(self):
        assert measure([0, 64, 32], 32).sequential_fraction == 0.0

    def test_partial(self):
        assert measure([0, 32, 96, 128], 32).sequential_fraction == \
            pytest.approx(2 / 3)

    def test_short_lists_default_to_one(self):
        assert measure([], 32).sequential_fraction == 1.0
        assert measure([128], 32).sequential_fraction == 1.0


class TestDistinctLines:
    def test_all_in_one_line(self):
        assert measure([0, 8, 16, 56], 32, 64).distinct_lines == 1

    def test_one_line_each(self):
        assert measure([0, 64, 128], 32, 64).distinct_lines == 3

    def test_packed_vs_spread(self):
        packed = [s * 32 for s in range(8)]
        assert measure(packed, 32, 64).distinct_lines == 4
        spread = [s * 128 for s in range(8)]  # same 8 nodes over a 1024-byte pool
        assert measure(spread, 32, 64).distinct_lines == 8

    def test_line_size_validated(self):
        with pytest.raises(ValueError):
            measure([0], 32, 0)


class TestMeanAbsGap:
    def test_uniform_stride(self):
        assert measure([0, 32, 64], 32).mean_abs_gap == 32

    def test_backward_jump(self):
        assert measure([64, 0], 32).mean_abs_gap == 64

    def test_mixed(self):
        assert measure([0, 96, 32], 32).mean_abs_gap == 80

    def test_short_lists(self):
        assert measure([], 32).mean_abs_gap == 0
        assert measure([7], 32).mean_abs_gap == 0


class TestLifecycle:
    def test_single_node_is_sequential_by_convention(self):
        report = run_list_lifecycle("bitmap", 1, 32, 0)
        assert report.first_traversal.sequential_fraction == 1.0
        assert report.second_traversal.sequential_fraction == 1.0

    def test_deterministic_for_fixed_inputs(self):
        a = run_list_lifecycle("freelist_lifo", 500, 32, 42)
        b = run_list_lifecycle("freelist_lifo", 500, 32, 42)
        assert a == b
        assert a.generator == "mt19937"

    @pytest.mark.parametrize("kind", POLICY_KINDS)
    def test_first_use_is_in_address_order(self, kind):
        report = run_list_lifecycle(kind, 300, 32, 5)
        assert report.first_traversal.sequential_fraction == 1.0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bitmap_recovers_address_order(self, seed):
        report = run_list_lifecycle("bitmap", 2000, 32, seed)
        assert report.second_traversal.sequential_fraction == 1.0

    def test_lifo_rebuild_is_scrambled(self):
        report = run_list_lifecycle("freelist_lifo", 10_000, 32, 3)
        assert report.second_traversal.sequential_fraction < 0.05

    def test_metric_sanity_when_fully_sequential(self):
        report = run_list_lifecycle("bitmap", 512, 32, 9, line_size=64)
        second = report.second_traversal
        assert second.sequential_fraction == 1.0
        assert second.mean_abs_gap == 32
        assert second.distinct_lines == math.ceil(512 * 32 / 64)

    def test_node_count_validated(self):
        with pytest.raises(ValueError):
            run_list_lifecycle("bitmap", 0, 32, 0)


class TestLifecycleFreeOrder:
    @given(node_count=st.one_of(st.integers(1, 600), st.just(4096)),
           seed=st.integers(0, 2 ** 32))
    @example(node_count=4096, seed=0)
    @example(node_count=1, seed=2 ** 32)
    @settings(max_examples=300, deadline=None)
    def test_matches_randint_and_stable_sort(self, node_count, seed):
        assert (list(lifecycle_free_order(node_count, seed))
                == lifecycle_free_order_reference(node_count, seed))

    def test_node_count_validated(self):
        with pytest.raises(ValueError, match="node_count must be >= 1"):
            lifecycle_free_order(0, 0)


class TestChurn:
    def test_ops_zero_reports_initial_fill(self):
        report = run_random_churn("bitmap", 100, 0.5, 0, 1)
        assert report.traversal_len == 50
        assert report.sequential_fraction == 1.0

    def test_drained_pool_batch_is_sequential(self):
        # fill 0 limit: after churn around zero, the batch sees an empty tree
        report = run_random_churn("bitmap", 64, 0.0, 50, 2)
        assert report.sequential_fraction == 1.0

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_bitmap_batch_no_looser_than_lifo(self, seed):
        # never looser; today the two batches are the same (see below)
        bitmap = run_random_churn("bitmap", 512, 0.7, 3000, seed)
        lifo = run_random_churn("freelist_lifo", 512, 0.7, 3000, seed)
        assert bitmap.mean_abs_gap <= lifo.mean_abs_gap

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 5: once the fill is reached every free is followed by "
        "an allocation, so every allocator prints the same batch"))
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_bitmap_batch_strictly_tighter_than_lifo(self, seed):
        bitmap = run_random_churn("bitmap", 512, 0.7, 3000, seed)
        lifo = run_random_churn("freelist_lifo", 512, 0.7, 3000, seed)
        assert bitmap.mean_abs_gap < lifo.mean_abs_gap

    def test_fill_validated(self):
        with pytest.raises(ValueError):
            run_random_churn("bitmap", 64, 1.0, 10, 0)
        with pytest.raises(ValueError, match="capacity must be >= 1"):
            run_random_churn("bitmap", 0, 0.5, 10, 0)
        with pytest.raises(ValueError, match="ops must be >= 0"):
            run_random_churn("bitmap", 16, 0.5, -1, 1)

    def test_memory_does_not_grow_with_ops(self):
        # only the live ids keep their offsets; a list of every id ever
        # allocated took the peak from 0.26 to 2.0 MiB
        peaks = []
        for ops in (10**4, 10**5):
            tracemalloc.start()
            try:
                run_random_churn("freelist_lifo", 1024, 0.7, ops, 1)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.5 * peaks[0]

    def test_deterministic(self):
        a = run_random_churn("freelist_fifo", 128, 0.6, 500, 11)
        b = run_random_churn("freelist_fifo", 128, 0.6, 500, 11)
        assert a == b
