"""Byte-offset view over any allocator policy.

The pool models a contiguous region of ``capacity * slot_size`` bytes and
translates between slot indices and byte offsets.  It never touches real
memory: locality metrics depend only on address geometry, so offsets from
a zero base are the public currency.
"""

from functools import partial
from operator import index

from .baselines import FreeListPolicy, LinearBitmapPolicy
from .bittree import BitTree
from .errors import bad_offset

# one constructor per policy kind, called with the capacity; a policy has
# capacity, allocate(), allocate_with_hint(slot) and release(slot).
# The flat kinds share one base's occupancy map, checks and release; only the
# scan shows the map, as leaf_bits, the name bench/child.py pins it by
POLICIES = {
    "bitmap": BitTree,
    "freelist_lifo": partial(FreeListPolicy, order="lifo"),
    "freelist_fifo": partial(FreeListPolicy, order="fifo"),
    "linear_bitmap": LinearBitmapPolicy,
}
POLICY_KINDS = tuple(POLICIES)


def make_policy(kind: str, capacity: int):
    constructor = POLICIES.get(kind)
    if constructor is None:
        raise ValueError(f"unknown policy kind {kind!r}")
    # an int-like size, never a float, so that every slot is an int
    capacity = index(capacity)
    try:
        # every policy makes its O(capacity) storage here, so this is the
        # one place a pool too large for memory, or past the index range,
        # is refused
        return constructor(capacity)
    except (MemoryError, OverflowError) as exc:
        raise ValueError(
            f"a pool of {capacity} slots does not fit in memory") from exc


class Pool:
    def __init__(self, slot_size: int, capacity: int, policy_kind: str = "bitmap"):
        slot_size = index(slot_size)
        if slot_size < 1:
            raise ValueError("slot_size must be >= 1")
        self.slot_size = slot_size
        self.policy = make_policy(policy_kind, capacity)
        self.capacity = self.policy.capacity

    def acquire(self) -> int:
        return self.policy.allocate() * self.slot_size

    def _slot(self, offset: int) -> int:
        """Map byte ``offset`` to its slot, raising Misaligned or OutOfRange."""
        slot, rem = divmod(offset, self.slot_size)
        if rem or not 0 <= slot < self.capacity:
            raise bad_offset(offset, self.slot_size, self.capacity)
        return slot

    def acquire_near(self, hint: int) -> int:
        """Allocate near the slot at byte offset ``hint``.

        Only the bitmap policy honors the hint; the other policies fall
        back to their plain allocation order.
        """
        return self.policy.allocate_with_hint(self._slot(hint)) * self.slot_size

    def release(self, offset: int) -> None:
        self.policy.release(self._slot(offset))
