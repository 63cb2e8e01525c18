import pytest
from hypothesis import given
from hypothesis import strategies as st

from bitfit import (
    DoubleFree,
    FreeListPolicy,
    LinearBitmapPolicy,
    OutOfRange,
    PoolExhausted,
)


class TestFreeList:
    def test_fresh_pool_bumps_in_address_order(self):
        for order in ("lifo", "fifo"):
            p = FreeListPolicy(8, order)
            assert [p.allocate() for _ in range(3)] == [0, 1, 2]

    def test_unknown_order_rejected(self):
        with pytest.raises(ValueError, match="unknown order 'lilo'"):
            FreeListPolicy(8, "lilo")

    def test_capacity_is_checked_before_order(self):
        with pytest.raises(ValueError, match="^capacity must be >= 1$"):
            FreeListPolicy(0, "lilo")

    def test_fifo_returns_first_freed_first(self):
        p = FreeListPolicy(8, "fifo")
        for _ in range(3):
            p.allocate()
        p.release(1)
        p.release(2)
        assert p.allocate() == 1

    def test_exhaustion_after_list_and_fresh_slots(self):
        p = FreeListPolicy(2, "lifo")
        p.allocate()
        p.allocate()
        p.release(0)
        assert p.allocate() == 0
        with pytest.raises(PoolExhausted):
            p.allocate()

    def test_double_free_in_list(self):
        p = FreeListPolicy(4, "lifo")
        p.allocate()
        p.release(0)
        with pytest.raises(DoubleFree):
            p.release(0)

    def test_free_of_never_allocated_slot(self):
        p = FreeListPolicy(4, "fifo")
        p.allocate()
        with pytest.raises(DoubleFree):
            p.release(3)

    def test_out_of_range(self):
        p = FreeListPolicy(4, "lifo")
        with pytest.raises(OutOfRange):
            p.release(4)

    @given(frees=st.permutations(list(range(6))))
    def test_lifo_allocation_is_reverse_of_free_order(self, frees):
        p = FreeListPolicy(6, "lifo")
        for _ in range(6):
            p.allocate()
        for slot in frees:
            p.release(slot)
        assert [p.allocate() for _ in range(6)] == list(reversed(frees))


class TestLinearBitmap:
    def test_fresh_pool_counts_up(self):
        p = LinearBitmapPolicy(8)
        assert [p.allocate() for _ in range(3)] == [0, 1, 2]

    def test_first_zero_bit_wins(self):
        # slots 0, 1 and 4 used, the map 1 1 0 0 1 0 0 0
        p = LinearBitmapPolicy(8)
        for _ in range(5):
            p.allocate()
        for slot in (2, 3):
            p.release(slot)
        assert p.allocate() == 2

    def test_double_free(self):
        p = LinearBitmapPolicy(4)
        p.allocate()
        p.release(0)
        with pytest.raises(DoubleFree):
            p.release(0)

    def test_exhaustion(self):
        p = LinearBitmapPolicy(2)
        p.allocate()
        p.allocate()
        with pytest.raises(PoolExhausted):
            p.allocate()

    def test_release_then_reuse_lowest(self):
        p = LinearBitmapPolicy(4)
        slots = [p.allocate() for _ in range(4)]
        p.release(2)
        p.release(1)
        assert p.allocate() == 1
        assert slots == [0, 1, 2, 3]

