"""Independent reference results for the benchmark's streams.

Nothing here imports bitfit.  Free slots live in a sorted Python list, and
the two allocation rules are computed from it directly:

* a plain allocation takes the lowest free slot (first fit);
* a hinted allocation returns the hint when it is free.  Otherwise it
  finds B, the smallest aligned power-of-two block around the hint that
  holds a free slot, and returns the free slot in B nearest the hint.  This
  is the closed form of the greedy descent that ``BitTree.allocate_with_hint``
  documents and ``tests/oracles.greedy_hint_reference`` steps through.
"""

from array import array
from bisect import bisect_left, insort

from streams import ALLOC, FREE, OP_NAMES


class FreeSlots:
    """Free slots of a pool whose slots below ``used_below`` are all in use.

    The list holds negated slot numbers in ascending order, so the lowest
    free slot sits at the end and first fit is an O(1) ``pop``.
    """

    def __init__(self, capacity, used_below=0):
        self.neg = list(range(1 - capacity, 1 - used_below))

    def alloc(self):
        return -self.neg.pop()

    def free(self, slot):
        insort(self.neg, -slot)

    def alloc_hint(self, hint):
        neg = self.neg
        i = bisect_left(neg, -hint)
        if i < len(neg) and neg[i] == -hint:
            del neg[i]
            return hint
        # neg[i] is the nearest free slot below the hint, neg[i-1] above it;
        # the one sharing the longer address prefix with the hint lies in B
        below = (-neg[i] ^ hint).bit_length() if i < len(neg) else 64
        above = (-neg[i - 1] ^ hint).bit_length() if i > 0 else 64
        if below == above == 64:
            raise IndexError("pool is full")
        j = i if below < above else i - 1
        return -neg.pop(j)


def expected_offsets(stream, capacity, used_below, slot_size):
    """Offset each allocation event must return; -1 for every free."""
    slots = FreeSlots(capacity, used_below)
    live = {}
    out = array("q")
    for op, ident, hint in zip(stream.ops, stream.ids, stream.hints):
        if op == FREE:
            slots.free(live.pop(ident))
            out.append(-1)
            continue
        slot = slots.alloc() if op == ALLOC else slots.alloc_hint(live[hint])
        live[ident] = slot
        out.append(slot * slot_size)
    return out


def replay_csv(stream, offsets, slot_size):
    """The ``bitfit replay --format csv`` table for a trace of this stream."""
    lines = ["line,op,id,slot,offset"]
    for line_no, (op, ident, off) in enumerate(
            zip(stream.ops, stream.ids, offsets), 1):
        if op != FREE:
            lines.append(f"{line_no},{OP_NAMES[op]},c{ident},"
                         f"{off // slot_size},{off}")
    return lines


def locality(offsets, slot_size, line_size=64):
    """The four locality numbers bitfit reports for one traversal."""
    gaps = [b - a for a, b in zip(offsets, offsets[1:])]
    return {
        "sequential_fraction":
            gaps.count(slot_size) / len(gaps) if gaps else 1.0,
        "distinct_lines": len({off // line_size for off in offsets}),
        "mean_abs_gap": sum(map(abs, gaps)) / len(gaps) if gaps else 0.0,
        "traversal_len": len(offsets),
    }


def lifecycle_report(stream, offsets, slot_size):
    """Expected first and second traversal of a lifecycle stream."""
    allocs = [off for op, off in zip(stream.ops, offsets) if op == ALLOC]
    nodes = len(allocs) // 2
    return {
        "first_traversal": locality(allocs[:nodes], slot_size),
        "second_traversal": locality(allocs[nodes:], slot_size),
    }

