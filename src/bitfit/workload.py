"""The lifecycle and churn workloads plus address-geometry metrics.

Each workload's seeded decisions are defined once here, as a schedule
(``lifecycle_free_order``, ``churn_steps``) that names its ids and is
read once: the runners drive a ``Pool`` with it, and the trace writers
in ``tests/oracles.py`` write it out as text.

The lifecycle run allocates a list of random-valued nodes, frees every
node in value order, and allocates the list again.  A list traversed from
its head visits its nodes in allocation order, so each traversal is the
sequence of acquired offsets.  Under a free-list allocator the rebuild
inherits the scrambled free order; under the bitmap tree it comes back in
address order.  Locality is measured on the traversal offset sequence
with three proxies: the fraction of steps that advance by exactly one
slot, the number of distinct cache lines touched, and the mean absolute
gap.

Reports are named tuples, as trace events are, so they compare equal to
plain tuples of their fields, and no module of the package imports
``dataclasses`` and its ``inspect``/``ast`` import chain.
"""

import random
from itertools import chain, islice
from operator import sub
from typing import Iterator, NamedTuple, Sequence, Tuple

from .pool import Pool
from .trace import ALLOC, FREE

GENERATOR_NAME = "mt19937"  # random.Random; identity recorded in reports

DEFAULT_LINE_SIZE = 64


class LocalityReport(NamedTuple):
    sequential_fraction: float
    distinct_lines: int
    mean_abs_gap: float
    traversal_len: int


class LifecycleReport(NamedTuple):
    policy_kind: str
    node_count: int
    seed: int
    generator: str
    first_traversal: LocalityReport
    second_traversal: LocalityReport


def measure(offsets: Sequence[int], slot_size: int,
            line_size: int = DEFAULT_LINE_SIZE) -> LocalityReport:
    """The locality of one traversal, the offsets in the order visited.

    - ``sequential_fraction``: the share of consecutive pairs whose gap
      (next minus previous offset) is exactly ``slot_size``;
    - ``distinct_lines``: the number of ``line_size``-byte cache lines
      that the offsets fall into;
    - ``mean_abs_gap``: the mean absolute byte gap between consecutive
      offsets;
    - ``traversal_len``: the number of offsets.

    With fewer than two offsets there is no pair: the sequential fraction
    is 1.0 and the mean gap 0.0.
    """
    if line_size < 1:
        raise ValueError("line_size must be >= 1")
    lines = len({off // line_size for off in offsets})
    gaps = list(map(sub, offsets[1:], offsets))
    if not gaps:
        return LocalityReport(1.0, lines, 0.0, len(offsets))
    return LocalityReport(
        sequential_fraction=gaps.count(slot_size) / len(gaps),
        distinct_lines=lines,
        mean_abs_gap=sum(map(abs, gaps)) / len(gaps),
        traversal_len=len(offsets),
    )


def lifecycle_free_order(node_count: int, seed: int) -> Iterator[int]:
    """Node indices in the lifecycle's free order, as a one-pass iterator.

    Node ``i`` gets the ``i``-th value drawn with ``randint(0, 100)`` from
    ``random.Random(seed)``, and the nodes are freed in value order, equal
    values in allocation order (a stable sort), so the order is fully
    deterministic.

    The draw is spelled out rather than called: CPython's ``randint(0,
    100)`` takes ``getrandbits(7)`` and draws again while the value is
    above 100, and doing that here saves four Python frames per node;
    with ``randint`` the lifecycle CLI call took 7.7 % longer.  Filing
    each node under its value in one of 101 lists, in draw order, and
    concatenating the lists is the stable sort without a sort; with
    ``sorted`` that call took 4.2 % longer.  The tests compare this with
    ``randint`` and ``sorted``, which would catch a Python whose
    ``randint`` draws differently.

    Every value is drawn in the call; read to its end, the iterator
    holds none of the indices.
    """
    if node_count < 1:
        raise ValueError("node_count must be >= 1")
    getrandbits = random.Random(seed).getrandbits
    by_value = [[] for _ in range(101)]
    for i in range(node_count):
        value = getrandbits(7)
        while value > 100:
            value = getrandbits(7)
        by_value[value].append(i)
    return chain.from_iterable(by_value)


def churn_steps(capacity: int, target_fill: float, ops: int,
                seed: int) -> Iterator[Tuple[str, int]]:
    """The churn workload's schedule, one step per allocation or free.

    A step is ``(trace.ALLOC, k)`` or ``(trace.FREE, k)``: the schedule
    names every id, numbering the allocations 0, 1, 2, ... in order.  It
    first fills to round(capacity * target_fill), then takes ``ops`` steps:
    below target allocate, at or above target free a uniformly random
    live id.  The arguments are checked before the first step is taken.
    """
    if not 0.0 <= target_fill < 1.0:
        raise ValueError("target_fill must be in [0, 1)")
    if capacity < 1:
        raise ValueError("capacity must be >= 1")
    if ops < 0:
        raise ValueError("ops must be >= 0")
    return _churn_schedule(_churn_fill(capacity, target_fill), ops,
                           random.Random(seed))


def _churn_fill(capacity: int, target_fill: float) -> int:
    """The live-id count the churn schedule fills to and churns around."""
    return round(capacity * target_fill)


def _churn_schedule(target: int, ops: int,
                    rng: random.Random) -> Iterator[Tuple[str, int]]:
    for k in range(target):
        yield ALLOC, k
    live = list(range(target))
    fresh = target
    for _ in range(ops):
        if len(live) < target or not live:
            live.append(fresh)
            yield ALLOC, fresh
            fresh += 1
        else:
            # swap the victim to the end so the pop is O(1)
            victim = rng.randrange(len(live))
            live[victim], live[-1] = live[-1], live[victim]
            yield FREE, live.pop()


def run_list_lifecycle(policy_kind: str, node_count: int, slot_size: int,
                       seed: int, line_size: int = DEFAULT_LINE_SIZE) -> LifecycleReport:
    """Fill / free in value order / refill, measuring both fills.

    The pool and both lists of offsets are made before the first draw and
    the first acquire, so a run too large for memory fails before any
    work, whether the pool or the lists do not fit.
    """
    pool = Pool(slot_size, node_count, policy_kind)
    first = [0] * node_count
    second = [0] * node_count
    free_order = lifecycle_free_order(node_count, seed)
    for i in range(node_count):
        first[i] = pool.acquire()
    for i in free_order:
        pool.release(first[i])
    for i in range(node_count):
        second[i] = pool.acquire()
    return LifecycleReport(
        policy_kind=policy_kind,
        node_count=node_count,
        seed=seed,
        generator=GENERATOR_NAME,
        first_traversal=measure(first, slot_size, line_size),
        second_traversal=measure(second, slot_size, line_size),
    )


def run_random_churn(policy_kind: str, capacity: int, target_fill: float,
                     ops: int, seed: int, slot_size: int = 32,
                     line_size: int = DEFAULT_LINE_SIZE) -> LocalityReport:
    """Churn the pool around ``target_fill`` and report on a refill batch.

    Runs ``churn_steps``, then a final batch acquires all remaining free
    slots; the report covers the batch's offsets.  With ops == 0 it
    covers the initial fill instead.

    The pool and the fill's list of offsets are made before the first
    acquire, so a run too large for memory fails before any work.  Only
    live ids keep their offsets, so memory grows with the fill, not ``ops``.
    """
    steps = churn_steps(capacity, target_fill, ops, seed)
    pool = Pool(slot_size, capacity, policy_kind)
    fill = [0] * _churn_fill(capacity, target_fill)  # by id
    for _, k in islice(steps, len(fill)):
        fill[k] = pool.acquire()
    if ops == 0:
        return measure(fill, slot_size, line_size)
    live = dict(enumerate(fill))  # the offset of each live id
    for op, k in steps:
        if op == ALLOC:
            live[k] = pool.acquire()
        else:
            pool.release(live.pop(k))
    batch = [pool.acquire() for _ in range(capacity - len(live))]
    return measure(batch, slot_size, line_size)
