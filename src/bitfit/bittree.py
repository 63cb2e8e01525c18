"""Hierarchical occupancy bitmap with logarithmic allocate, free, and
hint-directed allocate.

The structure is a complete binary tree packed level-order into a flat
array of bits.  Leaves carry one occupancy bit per slot (0 free, 1 used);
every internal bit is the logical AND of its two children, so a subtree
whose root bit is 0 is guaranteed to contain at least one free slot, and
the root bit alone answers "is the pool full?" in O(1).  Children of node
``i`` live at ``2*i + 1`` and ``2*i + 2``.

First fit keeps a floor, ``low``, below which no slot is free.  When the
floor's own leaf is free it is the lowest free slot, and allocation takes
it without descending from the root; only when that leaf is used does
first fit walk down the tree.  A fill, or a refill after a drain, thus
costs a root read, a leaf read and the climb per slot.

A tree of fewer than 2^17 nodes (at most 65 536 slots) keeps its bits in
a ``list`` of 0/1 ints, a larger one in a ``bytearray``.  CPython
specializes ``list[int]`` subscripts, not ``bytearray`` ones, so the same
reads and writes cost less in a list; but a list costs 8 B per node
against 1 B, and big pools keep the bytearray's memory.  The container is
the only difference: the layout, the operations and what ``op_steps``
counts are the same for both.
"""

from .errors import already_free, exhausted, out_of_range


def _next_pow2(n: int) -> int:
    return 1 << (n - 1).bit_length()


class BitTree:
    """Occupancy tree over ``capacity`` slots.

    Capacities that are not powers of two are padded with phantom leaves
    that are permanently marked used, so the complete-tree index
    arithmetic never needs a bounds branch.  An internal node is a
    phantom when its whole subtree is; the levels above the first one
    with no phantom node hold none either, so building a tree over a
    power-of-two capacity writes no bit.

    ``bits`` is a ``list`` below 2^17 nodes and a ``bytearray`` from
    there on (see the module docstring); both hold the same 0/1 values in
    the same level order.

    ``low`` is first fit's floor: no slot below it is free, so the first
    fit is ``low`` itself when that slot is free.  First fit sets it one
    past the slot it returns, ``release`` lowers it to the freed slot when
    that lies below, and a hinted allocation leaves it, since marking a
    slot used keeps every slot below the floor used.  It never exceeds
    ``capacity``.

    ``op_steps`` counts tree steps: one step is one read or one write of
    an element of ``bits``, whichever container holds them.  ``allocate``
    (hinted or not) and ``release`` count every such access they make,
    including the root or leaf read that ends in ``PoolExhausted`` or
    ``DoubleFree``; tests use the per-operation delta to verify the
    logarithmic step bound.  First fit's read of the floor's leaf counts
    like any other access, so a hit costs fewer steps than a descent and
    a miss one more.  Range checks touch no bit and count nothing,
    and neither does the read-only observer ``check_integrity``.
    """

    __slots__ = ("capacity", "n_leaves", "bits", "low", "op_steps")

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.n_leaves = _next_pow2(capacity)
        nodes = 2 * self.n_leaves - 1
        # list subscripts are faster but cost 8 B/node: lists up to 1 MiB only
        self.bits = bits = [0] * nodes if nodes < 1 << 17 else bytearray(nodes)
        self.low = 0
        self.op_steps = 0
        # On a fresh tree a node is 1 exactly when its whole subtree is
        # phantom padding; on each level those nodes form a suffix.  Once
        # a level has no phantom node, no level above it has one, so a
        # power-of-two capacity writes no bit.
        width, first_full = self.n_leaves, capacity
        while first_full < width:
            bits[width - 1 + first_full:2 * width - 1] = b"\x01" * (width - first_full)
            width >>= 1
            first_full = (first_full + 1) >> 1

    # -- operations ----------------------------------------------------
    #
    # The operations index ``bits`` directly and tally their steps in a
    # local, added to ``op_steps`` once per call.  Allocation is one
    # routine: the hint's range check, one read of the root, the choice of
    # a free leaf, then one shared tail that sets the leaf and climbs.
    # Each path counts its own steps before the climb.  First fit reads
    # the leaf of its floor ``low`` and, when it is free, takes it for 3:
    # root read, leaf read, leaf write.  A free root guarantees a free
    # slot at or above ``low``, so that leaf is real.  When it is used,
    # first fit descends from the root, one read per level, for
    # ``3 + depth``; a hinted allocation always descends, the hint only
    # steering, for ``2 + depth``.  Every node the descent passes through
    # was 0, so after the leaf is set an ancestor turns 1 exactly while
    # the sibling below it is 1: the climb reads one sibling per level
    # and stops at the first free one.
    # ``((i - 1) ^ 1) + 1`` is the sibling of node ``i``.
    #
    # A hinted descent walks the hint leaf's ancestors.  Numbered from 1
    # as a heap (node ``k`` at ``bits[k - 1]``, children ``2k`` and
    # ``2k + 1``), the hint leaf is ``leaf = n_leaves + hint`` and its
    # ancestor ``level`` levels up is ``leaf >> level``, so the walk needs
    # no per-level test of the hint's bits.  It stops at the first full
    # ancestor, an odd number when that ancestor is a right child, and
    # moves to its free sibling.  Below it the descent steers toward the
    # hint: into the right child when the hint lies to the right, and the
    # left one when that child is free, which is the first-fit step.

    def allocate(self, hint: int | None = None) -> int:
        """Mark a free slot used and return it.

        A hint out of range is refused first, before any bit is read; then
        one read of the root raises ``PoolExhausted`` on a full tree; then
        the slot is picked.  Without a hint this is the lowest-index free
        slot: the floor ``low`` when its leaf is free, else the end of a
        leftmost descent from the root; either way ``low`` then moves one
        past the slot.  With a hint, the descent follows the hint leaf's
        ancestors down from the root while they have a free slot; at the
        first full one it takes the free sibling and then steers toward
        the hint at every remaining level (the rightmost free leaf when the
        hint lies to the right, else the leftmost).  The result is the hint
        itself when free, and otherwise always falls inside the smallest
        free subtree on the root-to-hint path.  Greedy, not globally
        nearest.
        """
        if hint is not None and not 0 <= hint < self.capacity:
            raise out_of_range("hint", hint, self.capacity)
        bits = self.bits
        if bits[0]:
            self.op_steps += 1
            raise exhausted()
        base = self.n_leaves - 1
        if hint is None:
            idx = base + self.low
            if bits[idx]:  # used: descend from the root
                idx = 0
                steps = 3 + base.bit_length()  # as a hit, plus the descent
            else:  # free, so it is the first fit: no descent
                steps = 3  # root read, leaf read, leaf write
        else:
            leaf = base + 1 + hint
            idx = leaf - 1  # where the walk ends when the hint itself is free
            level = base.bit_length()  # the depth of the hint leaf
            steps = 2 + level  # root read, one read per level, leaf write
            while level:
                level -= 1
                node = leaf >> level
                if bits[node - 1]:
                    idx = (node ^ 1) - 1  # the free sibling
                    if node & 1:  # the hint lies to the right: steer right
                        while idx < base:
                            idx = 2 * idx + 2
                            # a full right child means the left one is free
                            idx -= bits[idx]
                    break
        # first fit, and the leftward steer below a hinted detour
        while idx < base:
            idx = 2 * idx + 1
            # parent bit is 0, so if the left child is full (1) the right is free
            idx += bits[idx]
        bits[idx] = 1
        slot = idx - base
        if hint is None:
            self.low = slot + 1
        while idx:
            if not bits[((idx - 1) ^ 1) + 1]:
                steps += 1
                break
            idx = (idx - 1) >> 1
            bits[idx] = 1
            steps += 2
        self.op_steps += steps
        return slot

    # the policy contract's name for a hinted allocation
    allocate_with_hint = allocate

    def release(self, slot: int) -> None:
        """Mark ``slot`` free and clear ancestor bits until one is already 0;
        lower the floor ``low`` to ``slot`` when it lies below."""
        if not 0 <= slot < self.capacity:
            raise out_of_range("slot", slot, self.capacity)
        bits = self.bits
        idx = self.n_leaves - 1 + slot
        if not bits[idx]:
            self.op_steps += 1
            raise already_free(slot)
        bits[idx] = 0
        if slot < self.low:
            self.low = slot
        steps = 2
        while idx:
            idx = (idx - 1) >> 1
            if not bits[idx]:
                steps += 1
                break
            bits[idx] = 0
            steps += 2
        self.op_steps += steps

    def check_integrity(self) -> bool:
        """Verify the AND invariant, phantom padding and that no slot below
        ``low`` is free; the tests hold it to
        ``tests/oracles.rebuild_internal``."""
        bits, capacity = self.bits, self.capacity
        base = self.n_leaves - 1
        # whole rows, compared in C: the internal row ``bits[:base]`` against
        # the AND of its child rows, read as big-endian integers
        children = int.from_bytes(bits[1::2], "big") & int.from_bytes(bits[2::2], "big")
        # counted over slices, since ``list.count`` takes no bounds
        return (int.from_bytes(bits[:base], "big") == children
                and bits[base + capacity:].count(1) == self.n_leaves - capacity
                and 0 not in bits[base:base + self.low])
