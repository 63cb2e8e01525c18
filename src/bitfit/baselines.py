"""Baseline allocator policies: LIFO/FIFO free lists and a linear-scan bitmap.

The free lists model the bucketed-arena behavior that randomizes addresses
over time; the linear bitmap is the brute-force first-fit scan that the
tree allocator is measured against.  ``tests/oracles.py`` holds each to
its definition.
"""

from collections import deque

from .errors import already_free, exhausted, out_of_range


class _HintIgnoringPolicy:
    """Shared by the baselines, which have no locality structure to steer
    by: a hint is range-checked and then ignored."""

    def allocate_with_hint(self, hint: int) -> int:
        if not 0 <= hint < self.capacity:
            raise out_of_range("hint", hint, self.capacity)
        return self.allocate()


class FreeListPolicy(_HintIgnoringPolicy):
    """Fixed-size free-list allocator, LIFO or FIFO reuse order.

    Fresh pools allocate by bumping ``next_fresh`` so first use hands out
    slots in address order; once slots have been returned, the free list
    takes priority and reuse order depends only on free order.  One
    occupancy byte per slot, made up front, tells a live slot from a free
    or never-used one.
    """

    def __init__(self, capacity: int, order: str = "lifo"):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if order not in ("lifo", "fifo"):
            raise ValueError(f"unknown order {order!r}")
        self.capacity = capacity
        self.free_sequence = deque()
        # the end of the free list that reuse takes from
        self._take = (self.free_sequence.pop if order == "lifo"
                      else self.free_sequence.popleft)
        self._used = bytearray(capacity)
        self.next_fresh = 0

    @property
    def free_count(self) -> int:
        return self.capacity - self.next_fresh + len(self.free_sequence)

    def allocate(self) -> int:
        if self.free_sequence:
            slot = self._take()
        elif self.next_fresh < self.capacity:
            slot = self.next_fresh
            self.next_fresh += 1
        else:
            raise exhausted()
        self._used[slot] = 1
        return slot

    def release(self, slot: int) -> None:
        if not 0 <= slot < self.capacity:
            raise out_of_range("slot", slot, self.capacity)
        if not self._used[slot]:
            raise already_free(slot)
        self._used[slot] = 0
        self.free_sequence.append(slot)


class LinearBitmapPolicy(_HintIgnoringPolicy):
    """First-fit over a flat occupancy byte array, scanned left to right.

    Worst-case linear per allocation; the tests hold it to first fit with
    ``tests/oracles.FirstFitReference``.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.leaf_bits = bytearray(capacity)
        self.free_count = capacity

    def allocate(self) -> int:
        slot = self.leaf_bits.find(0)
        if slot < 0:
            raise exhausted()
        self.leaf_bits[slot] = 1
        self.free_count -= 1
        return slot

    def release(self, slot: int) -> None:
        if not 0 <= slot < self.capacity:
            raise out_of_range("slot", slot, self.capacity)
        if self.leaf_bits[slot] == 0:
            raise already_free(slot)
        self.leaf_bits[slot] = 0
        self.free_count += 1
