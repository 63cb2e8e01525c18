"""Byte-offset view over any allocator policy.

The pool models a contiguous region of ``capacity * slot_size`` bytes and
translates between slot indices and byte offsets.  It never touches real
memory: locality metrics depend only on address geometry, so offsets from
a zero base are the public currency.
"""

from .baselines import FreeListPolicy, LinearBitmapPolicy
from .bittree import BitTree
from .errors import Misaligned, OutOfRange

POLICY_KINDS = ("bitmap", "freelist_lifo", "freelist_fifo", "linear_bitmap")


def make_policy(kind: str, capacity: int):
    try:
        if kind == "bitmap":
            return BitTree(capacity)
        if kind == "freelist_lifo":
            return FreeListPolicy(capacity, order="lifo")
        if kind == "freelist_fifo":
            return FreeListPolicy(capacity, order="fifo")
        if kind == "linear_bitmap":
            return LinearBitmapPolicy(capacity)
    except (MemoryError, OverflowError) as exc:
        # the bitmap policies allocate their bit array up front; a size
        # past the index range overflows instead of running out of memory
        raise ValueError(
            f"a pool of {capacity} slots does not fit in memory") from exc
    raise ValueError(f"unknown policy kind {kind!r}")


class Pool:
    def __init__(self, slot_size: int, capacity: int, policy_kind: str = "bitmap"):
        if slot_size < 1:
            raise ValueError("slot_size must be >= 1")
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.slot_size = slot_size
        self.capacity = capacity
        self.policy_kind = policy_kind
        self.policy = make_policy(policy_kind, capacity)

    @property
    def size_bytes(self) -> int:
        return self.capacity * self.slot_size

    @property
    def free_count(self) -> int:
        return self.policy.free_count

    def offset_of(self, slot: int) -> int:
        return slot * self.slot_size

    def slot_of(self, offset: int) -> int:
        if offset % self.slot_size != 0:
            raise Misaligned(f"offset {offset} is not a multiple of {self.slot_size}")
        slot = offset // self.slot_size
        if not 0 <= slot < self.capacity:
            raise OutOfRange(f"offset {offset} outside pool of {self.size_bytes} bytes")
        return slot

    def acquire(self) -> int:
        return self.policy.allocate() * self.slot_size

    def acquire_near(self, hint: int) -> int:
        """Allocate near the slot at byte offset ``hint``.

        Only the bitmap policy honors the hint; the other policies fall
        back to their plain allocation order.
        """
        return self.policy.allocate_with_hint(self.slot_of(hint)) * self.slot_size

    def release(self, offset: int) -> None:
        self.policy.release(self.slot_of(offset))
