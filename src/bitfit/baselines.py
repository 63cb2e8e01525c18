"""Baseline allocator policies: LIFO/FIFO free lists and a linear-scan bitmap.

The free lists model the bucketed-arena behavior that randomizes addresses
over time; the linear bitmap is the brute-force first-fit scan that the
tree allocator is measured against.  ``tests/oracles.py`` holds each to
its definition.  One base owns their occupancy map, a byte per slot made
up front, with its checks and ``release``.  Each kind shows only the
policy contract: ``capacity``, ``allocate``, ``allocate_with_hint`` and
``release``.  ``bench/`` drives them through that contract alone, and pins
slots in any kind by calling ``allocate``.
"""

from collections import deque

from .errors import already_free, exhausted, out_of_range


class _FlatPolicy:
    """What the flat policies share; ``release`` hands each freed slot to
    ``_put``, which keeps nothing unless a subclass has a free list.  With
    no structure to steer by, a hint is only range-checked."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._used = bytearray(capacity)

    def allocate_with_hint(self, hint: int) -> int:
        if not 0 <= hint < self.capacity:
            raise out_of_range("hint", hint, self.capacity)
        return self.allocate()

    def release(self, slot: int) -> None:
        if not 0 <= slot < self.capacity:
            raise out_of_range("slot", slot, self.capacity)
        if not self._used[slot]:
            raise already_free(slot)
        self._used[slot] = 0
        self._put(slot)

    def _put(self, slot: int) -> None:
        pass


class FreeListPolicy(_FlatPolicy):
    """Fixed-size free-list allocator, LIFO or FIFO reuse order.

    Fresh pools allocate by bumping ``_next_fresh`` so first use hands out
    slots in address order; once slots have been returned, the free list
    takes priority and reuse order depends only on free order.
    """

    def __init__(self, capacity: int, order: str):
        super().__init__(capacity)
        if order not in ("lifo", "fifo"):
            raise ValueError(f"unknown order {order!r}")
        free = self._free_sequence = deque()
        self._put = free.append
        # the end of the free list that reuse takes from
        self._take = free.pop if order == "lifo" else free.popleft
        self._next_fresh = 0

    def allocate(self) -> int:
        if self._free_sequence:
            slot = self._take()
        elif self._next_fresh < self.capacity:
            slot = self._next_fresh
            self._next_fresh += 1
        else:
            raise exhausted()
        self._used[slot] = 1
        return slot


class LinearBitmapPolicy(_FlatPolicy):
    """First-fit over a flat occupancy byte array, scanned left to right.

    Worst-case linear per allocation; the tests hold it to first fit with
    ``tests/oracles.FirstFitReference``.
    """

    def allocate(self) -> int:
        slot = self._used.find(0)
        if slot < 0:
            raise exhausted()
        self._used[slot] = 1
        return slot
