"""Independent reference implementations used to check the tree allocator,
every policy kind, the trace parser and the lifecycle's free order, and
the two trace writers, ``lifecycle_trace`` and ``churn_trace``, that write
a workload's schedule as the text ``bitfit replay`` reads.

The tree references work on a plain leaf-occupancy list (index = slot in
[0, n_leaves), value 0/1 with phantom padding included) and never touch
the packed tree, so agreement between the two is meaningful.
"""

import random
import re
from collections import deque


def leaves_of(tree):
    """Leaf occupancy vector of a BitTree, phantoms included."""
    return list(tree.bits[tree.n_leaves - 1:])


def next_pow2_by_doubling(n):
    """The leaf count of a tree over ``n`` slots: the least power of two
    that is at least ``n``."""
    p = 1
    while p < n:
        p <<= 1
    return p


def rebuild_internal(leaves):
    """Bottom-up AND rebuild; returns the full level-order bit list."""
    n = len(leaves)
    bits = [0] * (n - 1) + list(leaves)
    for i in range(n - 2, -1, -1):
        bits[i] = bits[2 * i + 1] & bits[2 * i + 2]
    return bits


def leftmost_free(leaves):
    """First-fit scan; None when full."""
    for slot, bit in enumerate(leaves):
        if bit == 0:
            return slot
    return None


def greedy_hint_reference(leaves, hint):
    """Step the hint descent over subtree ranges instead of tree bits.

    Follows the hint's child while that half has a free leaf; on the first
    forced detour it steers back toward the hint at every later level.
    Returns the chosen slot; None when full.
    """
    n = len(leaves)
    if all(leaves):
        return None
    lo, hi = 0, n
    on_path = True
    prefer_right = False
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if on_path:
            toward = (lo, mid) if hint < mid else (mid, hi)
            other = (mid, hi) if hint < mid else (lo, mid)
            if not all(leaves[toward[0]:toward[1]]):
                lo, hi = toward
            else:
                prefer_right = hint >= mid
                on_path = False
                lo, hi = other
        else:
            first = (mid, hi) if prefer_right else (lo, mid)
            second = (lo, mid) if prefer_right else (mid, hi)
            if not all(leaves[first[0]:first[1]]):
                lo, hi = first
            else:
                lo, hi = second
    return lo


def _check_hint(hint, capacity):
    if hint is not None and not 0 <= hint < capacity:
        raise ValueError(f"hint {hint} not in [0, {capacity})")


class FirstFitReference:
    """A bitmap policy by its definition, over a leaf-occupancy list padded
    with used phantom leaves to a power of two.  ``allocate`` takes the
    leftmost free slot; a hint steers it as ``greedy_hint_reference`` does
    when ``hinted``, and is otherwise range-checked and then ignored."""

    def __init__(self, capacity, hinted):
        self.capacity, self.hinted = capacity, hinted
        padding = (1 << (capacity - 1).bit_length()) - capacity
        self.leaves = [0] * capacity + [1] * padding

    def allocate(self, hint=None):
        """The slot taken; None when full."""
        _check_hint(hint, self.capacity)
        if hint is not None and self.hinted:
            slot = greedy_hint_reference(self.leaves, hint)
        else:
            slot = leftmost_free(self.leaves)
        if slot is not None:
            self.leaves[slot] = 1
        return slot

    def release(self, slot):
        self.leaves[slot] = 0


class FreeListReference:
    """A free list by its definition: slots never used go out in address
    order until freed ones wait in a deque, which hands out the newest
    first (``"lifo"``) or the oldest (``"fifo"``).  A hint is range-checked
    and then ignored."""

    def __init__(self, capacity, order):
        self.capacity, self.order = capacity, order
        self.fresh = 0
        self.freed = deque()

    def allocate(self, hint=None):
        """The slot taken; None when full."""
        _check_hint(hint, self.capacity)
        if self.freed:
            return self.freed.pop() if self.order == "lifo" else self.freed.popleft()
        if self.fresh == self.capacity:
            return None
        self.fresh += 1
        return self.fresh - 1

    def release(self, slot):
        self.freed.append(slot)


# the oracle of each policy kind, called with the capacity
REFERENCE_POLICIES = {
    "bitmap": lambda capacity: FirstFitReference(capacity, hinted=True),
    "linear_bitmap": lambda capacity: FirstFitReference(capacity, hinted=False),
    "freelist_lifo": lambda capacity: FreeListReference(capacity, "lifo"),
    "freelist_fifo": lambda capacity: FreeListReference(capacity, "fifo"),
}


def smallest_free_subtree_on_path(leaves, hint):
    """Deepest subtree on the root-to-hint path that still has a free leaf.

    Returns its slot range (lo, hi); None when the whole tree is full.
    """
    lo, hi = 0, len(leaves)
    best = None
    while True:
        if not all(leaves[lo:hi]):
            best = (lo, hi)
        if hi - lo == 1:
            break
        mid = (lo + hi) // 2
        if hint < mid:
            hi = mid
        else:
            lo = mid
    return best


_ID_RE = re.compile(r"[A-Za-z0-9_]+\Z")


def parse_trace_reference(text):
    """The token-by-token trace parser: strip, skip blanks and comments,
    split on whitespace, check the op and its arity, then every id."""
    # imported here: bench/test_bench.py imports this module without bitfit
    from bitfit import TraceEvent, TraceSyntaxError

    events = []
    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        op = tokens[0]
        if op == "alloc" and len(tokens) == 2:
            event = TraceEvent("alloc", tokens[1], None, line_no)
        elif op == "free" and len(tokens) == 2:
            event = TraceEvent("free", tokens[1], None, line_no)
        elif op == "alloc_hint" and len(tokens) == 3:
            event = TraceEvent("alloc_hint", tokens[1], tokens[2], line_no)
        else:
            raise TraceSyntaxError(line_no, f"cannot parse {raw!r}")
        for token in tokens[1:]:
            if not _ID_RE.match(token):
                raise TraceSyntaxError(line_no, f"bad id {token!r}")
        events.append(event)
    return events


def lifecycle_free_order_reference(node_count, seed):
    """The lifecycle's free order by its definition: one ``randint(0, 100)``
    per node from ``random.Random(seed)``, then a stable sort by value."""
    rng = random.Random(seed)
    values = [rng.randint(0, 100) for _ in range(node_count)]
    return sorted(range(node_count), key=values.__getitem__)


def replay_csv_reference(data, slots, slot_size, allocator="bitmap"):
    """``bitfit replay --format csv`` of trace bytes the whole-file way:
    decode all of it, parse all of it, then replay the events before the
    earliest line that fails to decode or parse, so that a replay error
    there is reported first.  Returns (exit code, stdout, stderr)."""
    from bitfit import Pool, TraceError, TraceSyntaxError, replay

    first_error = None
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the bad byte ends a partial line: a sentinel stands in for it
        head = data[:exc.start].decode("utf-8") + "x"
        first_error = TraceSyntaxError(
            len(head.splitlines()),
            f"invalid UTF-8 byte 0x{data[exc.start]:02x}")
        text = head[:-1]
    lines = text.splitlines(True)
    if first_error is not None:
        lines = lines[:first_error.line_no - 1]
    try:
        events = parse_trace_reference("".join(lines))
    except TraceSyntaxError as exc:
        first_error = exc
        events = parse_trace_reference("".join(lines[:exc.line_no - 1]))
    try:
        records = replay(events, Pool(slot_size, slots, allocator), {})
    except TraceError as exc:
        return 1, "", f"error: {exc}\n"
    if first_error is not None:
        return 1, "", f"error: {first_error}\n"
    rows = [f"{ev.line_no},{ev.op},{ev.id},{slot},{offset}\n"
            for ev, slot, offset in records]
    return 0, "line,op,id,slot,offset\n" + "".join(rows), ""


def lifecycle_trace(node_count, seed):
    """Event stream of the list lifecycle: fill, free in value-sorted order, refill."""
    # imported here: bench/test_bench.py imports this module without bitfit
    from bitfit.workload import lifecycle_free_order

    order = lifecycle_free_order(node_count, seed)
    lines = [f"alloc n{i}" for i in range(node_count)]
    lines.extend(f"free n{i}" for i in order)
    lines.extend(f"alloc m{i}" for i in range(node_count))
    return "\n".join(lines) + "\n"


def churn_trace(capacity, target_fill, ops, seed):
    """Random alloc/free stream holding the live count near the target fill."""
    from bitfit.workload import churn_steps

    return "".join(f"{op} c{k}\n"
                   for op, k in churn_steps(capacity, target_fill, ops, seed))
