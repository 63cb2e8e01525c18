import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bitfit import BitTree, DoubleFree, OutOfRange, PoolExhausted
from bitfit.bittree import _next_pow2

from oracles import (
    greedy_hint_reference,
    leaves_of,
    leftmost_free,
    next_pow2_by_doubling,
    rebuild_internal,
    smallest_free_subtree_on_path,
)


def step_bound(n_leaves):
    return 6 * max(1, n_leaves - 1).bit_length() + 4 if n_leaves > 1 else 4


# every small capacity, plus each side of every power of two up to 2^16
PADDED_CAPACITIES = sorted(
    set(range(1, 71)) | {2 ** k + d for k in range(1, 17) for d in (-1, 0, 1)})


# the two containers ``BitTree`` keeps ``bits`` in, picked by its size
STORAGES = (list, bytearray)


class TestNew:
    def test_eight_slots_is_fifteen_bits_all_zero(self):
        tree = BitTree(8)
        assert len(tree.bits) == 15
        assert all(bit == 0 for bit in tree.bits)
        assert leaves_of(tree).count(0) == 8

    def test_single_slot_tree_is_one_bit(self):
        tree = BitTree(1)
        assert len(tree.bits) == 1
        assert tree.bits[0] == 0
        assert leaves_of(tree).count(0) == 1

    @pytest.mark.parametrize("capacity", PADDED_CAPACITIES)
    def test_capacity_pads_with_phantom_leaves(self, capacity):
        tree = BitTree(capacity)
        base = tree.n_leaves - 1
        assert capacity <= tree.n_leaves < 2 * capacity
        assert list(tree.bits[base:base + capacity]) == [0] * capacity
        assert list(tree.bits[base + capacity:]) == [1] * (tree.n_leaves - capacity)
        assert tree.bits[0] == 0
        assert leaves_of(tree).count(0) == capacity
        assert list(tree.bits) == rebuild_internal(leaves_of(tree))

    def test_storage_follows_the_size(self):
        # a list below 2^17 nodes; above, 1 B/node, which the 2^24-slot
        # CI step and the 2^20-slot benchmark's peak memory rely on
        small = BitTree(65536)
        assert type(small.bits) is list and len(small.bits) == 131_071
        for capacity in (65537, 1 << 20):
            tree = BitTree(capacity)
            assert type(tree.bits) is bytearray
            assert len(tree.bits) == 2 * tree.n_leaves - 1

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            BitTree(0)

    def test_next_pow2_matches_doubling(self):
        # each side of every power of two up to 2^64, with no tree built
        for n in sorted({2 ** k + d for k in range(65) for d in (-1, 0, 1)} - {0}):
            assert _next_pow2(n) == next_pow2_by_doubling(n), n


class TestAllocate:
    def test_fresh_tree_returns_slot_zero_via_leaf_bit_seven(self):
        tree = BitTree(8)
        assert tree.allocate() == 0
        assert tree.bits[7] == 1
        assert leaves_of(tree).count(0) == 7

    def test_second_allocate_matches_leftmost_scan(self):
        tree = BitTree(8)
        tree.allocate()
        expected = leftmost_free(leaves_of(tree))
        assert tree.allocate() == expected == 1

    def test_full_tree_raises(self):
        tree = BitTree(8)
        for _ in range(8):
            tree.allocate()
        assert tree.bits[0] == 1
        with pytest.raises(PoolExhausted):
            tree.allocate()

    def test_single_slot_lifecycle(self):
        tree = BitTree(1)
        assert tree.allocate() == 0
        with pytest.raises(PoolExhausted):
            tree.allocate()
        tree.release(0)
        assert tree.allocate() == 0


class TestRelease:
    def test_paper_scenario_clears_leaf_12_with_early_stop(self):
        tree = BitTree(8)
        for _ in range(6):
            tree.allocate()
        assert tree.bits[12] == 1 and tree.bits[5] == 1
        before = list(tree.bits)
        tree.release(5)
        # leaf 12 and its parent 5 cleared; bit 2 was already 0 (early stop)
        after = before[:]
        after[12] = 0
        after[5] = 0
        assert list(tree.bits) == after
        assert leaves_of(tree).count(0) == 3

    def test_allocate_release_allocate_round_trip(self):
        tree = BitTree(8)
        tree.allocate()
        tree.allocate()
        snapshot = bytes(tree.bits)
        slot = tree.allocate()
        tree.release(slot)
        assert bytes(tree.bits) == snapshot
        assert tree.allocate() == slot

    def test_double_free_raises(self):
        tree = BitTree(8)
        slot = tree.allocate()
        tree.release(slot)
        with pytest.raises(DoubleFree):
            tree.release(slot)

    def test_out_of_range_slot(self):
        tree = BitTree(5)
        with pytest.raises(OutOfRange):
            tree.release(5)


class TestAllocateWithHint:
    def make_right_half_full(self):
        tree = BitTree(8)
        for _ in range(8):
            tree.allocate()
        for s in range(4):
            tree.release(s)
        return tree

    def test_paper_scenario_returns_slot_three(self):
        tree = self.make_right_half_full()
        assert tree.bits[2] == 1
        assert tree.allocate_with_hint(4) == 3
        assert tree.bits[10] == 1

    def test_free_hint_is_returned(self):
        tree = BitTree(8)
        assert tree.allocate_with_hint(5) == 5

    def test_greedy_stays_in_hint_half(self):
        # only slots 0 and 4 free; greedy from hint 3 keeps to the left half
        tree = BitTree(8)
        for _ in range(8):
            tree.allocate()
        tree.release(0)
        tree.release(4)
        assert greedy_hint_reference(leaves_of(tree), 3) == 0
        assert tree.allocate_with_hint(3) == 0

    def test_full_tree_raises(self):
        tree = BitTree(2)
        tree.allocate()
        tree.allocate()
        with pytest.raises(PoolExhausted):
            tree.allocate_with_hint(0)

    @pytest.mark.parametrize(
        "capacity, used", [(5, 0), (5, 5), (65537, 0), (65537, 65537)],
        ids=["empty", "full", "empty-65537", "full-65537"])
    def test_hint_out_of_range(self, capacity, used):
        # the range check comes before the root read, even on a full tree,
        # with ``bits`` in a list (5 slots) and in a bytearray (65 537)
        tree = BitTree(capacity)
        for _ in range(used):
            tree.allocate()
        before = tree.op_steps
        with pytest.raises(OutOfRange):
            tree.allocate_with_hint(capacity + 2)
        assert tree.op_steps == before


class TestObservers:
    def test_integrity_on_fresh_tree(self):
        assert BitTree(8).check_integrity()

    def test_flipped_internal_bit_detected(self):
        for storage in STORAGES:
            tree = BitTree(8)
            tree.bits = storage(tree.bits)
            tree.bits[3] = 1
            assert not tree.check_integrity()

    @pytest.mark.parametrize("capacity", [8, 65537], ids=["list", "bytearray"])
    def test_floor_past_a_free_slot_detected(self, capacity):
        # slots 0 and 1 used, 2 free: ``low`` may be 2, not 3
        tree = BitTree(capacity)
        tree.allocate()
        tree.allocate()
        assert tree.low == 2 and tree.check_integrity()
        tree.low = 3
        assert not tree.check_integrity()

    @given(capacity=st.integers(1, 70), seed=st.integers(0, 2 ** 32),
           n_ops=st.integers(0, 150), pick=st.integers(0, 2 ** 30),
           row=st.sampled_from(["internal", "real", "phantom", "floor", None]),
           value=st.sampled_from([0, 1, 2, 255]), storage=st.sampled_from(STORAGES))
    @settings(max_examples=300, deadline=None)
    def test_integrity_is_the_invariant(self, capacity, seed, n_ops, pick, row, value,
                                        storage):
        tree = BitTree(capacity)
        tree.bits = storage(tree.bits)
        for _ in run_ops(tree, random.Random(seed), n_ops, use_hints=True):
            pass
        # set one byte of a row to ``value`` (a row the tree lacks stays
        # intact), or move the floor ``low`` anywhere in [0, capacity]; no
        # row means no mutation
        base = tree.n_leaves - 1
        rows = {"internal": range(base), "real": range(base, base + capacity),
                "phantom": range(base + capacity, len(tree.bits)), "floor": (),
                None: ()}
        if rows[row]:
            tree.bits[rows[row][pick % len(rows[row])]] = value
        elif row == "floor":
            tree.low = pick % (capacity + 1)
        leaves = leaves_of(tree)
        assert tree.check_integrity() == (
            list(tree.bits) == rebuild_internal(leaves)
            and leaves[capacity:] == [1] * (tree.n_leaves - capacity)
            and 0 not in leaves[:tree.low])


def run_ops(tree, rng, n_ops, use_hints=False):
    """Random alloc/free mix; yields after every operation."""
    live = []
    for _ in range(n_ops):
        if live and (rng.random() < 0.5 or leaves_of(tree).count(0) == 0):
            victim = live.pop(rng.randrange(len(live)))
            tree.release(victim)
        else:
            if leaves_of(tree).count(0) == 0:
                continue
            if use_hints and live and rng.random() < 0.5:
                live.append(tree.allocate_with_hint(rng.choice(live)))
            else:
                live.append(tree.allocate())
        yield


def test_integrity_preserved_over_random_ops():
    tree = BitTree(1024)
    rng = random.Random(7)
    for _ in run_ops(tree, rng, 10_000, use_hints=True):
        assert tree.check_integrity()


ops_strategy = st.lists(st.integers(0, 2 ** 30), min_size=0, max_size=120)


@given(capacity=st.integers(1, 70), choices=ops_strategy)
@settings(max_examples=150, deadline=None)
def test_oracle_equivalence_and_invariants(capacity, choices):
    tree = BitTree(capacity)
    live = []
    for choice in choices:
        leaves = leaves_of(tree)
        if live and choice % 2:
            victim = live.pop(choice % len(live))
            tree.release(victim)
        else:
            expected = leftmost_free(leaves)
            if expected is None:
                with pytest.raises(PoolExhausted):
                    tree.allocate()
            else:
                assert tree.allocate() == expected
                live.append(expected)
        assert tree.check_integrity()


@given(capacity=st.integers(1, 64), choices=ops_strategy,
       hint_pick=st.integers(0, 2 ** 30))
@settings(max_examples=150, deadline=None)
def test_hint_locality_and_determinism(capacity, choices, hint_pick):
    tree = BitTree(capacity)
    live = []
    for choice in choices:
        if live and choice % 2:
            tree.release(live.pop(choice % len(live)))
        elif leaves_of(tree).count(0):
            live.append(tree.allocate())
    hint = hint_pick % capacity
    leaves = leaves_of(tree)
    if all(leaves[:capacity]):
        with pytest.raises(PoolExhausted):
            tree.allocate_with_hint(hint)
        return

    def twin():
        copy = BitTree(capacity)
        copy.bits[:] = tree.bits
        return copy

    # hint 0 steers left at every level, which is the first-fit descent.
    # A twin's ``low`` is 0: when slot 0 is free, first fit reads it and
    # skips the ``depth`` reads of the descent; when it is used, first fit
    # pays that read and then descends as hint 0 does.
    first_fit, hint_zero, same_hint = twin(), twin(), twin()
    assert first_fit.allocate() == hint_zero.allocate_with_hint(0)
    assert first_fit.bits == hint_zero.bits
    depth = (first_fit.n_leaves - 1).bit_length()
    saved = depth - 1 if leaves[0] == 0 else -1
    assert hint_zero.op_steps - first_fit.op_steps == saved
    got = tree.allocate_with_hint(hint)
    assert got == same_hint.allocate_with_hint(hint)  # pure function of state
    assert got == greedy_hint_reference(leaves, hint)
    lo, hi = smallest_free_subtree_on_path(leaves, hint)
    assert lo <= got < hi
    if leaves[hint] == 0:
        assert got == hint
    assert tree.check_integrity()


def tree_with_leaves(capacity, runs):
    """A tree whose slots are ``runs`` of used or free slots, laid end to
    end and repeated to fill ``capacity``; runs of 2^k slots make full and
    free subtrees at every depth."""
    tree = BitTree(capacity)
    pattern = [int(used) for used, log_len, extra in runs
               for _ in range((1 << log_len) + extra)]
    leaves = [pattern[s % len(pattern)] for s in range(capacity)]
    leaves += [1] * (tree.n_leaves - capacity)
    tree.bits[:] = bytes(rebuild_internal(leaves))
    return tree


runs_strategy = st.lists(
    st.tuples(st.booleans(), st.integers(0, 12), st.integers(0, 3)),
    min_size=1, max_size=12)


@given(capacity=st.integers(1, 2 ** 14), runs=runs_strategy,
       hint_picks=st.lists(st.integers(0, 2 ** 30), min_size=1, max_size=6))
@settings(max_examples=100, deadline=None)
def test_deep_hint_matches_greedy_reference(capacity, runs, hint_picks):
    tree = tree_with_leaves(capacity, runs)
    assert tree.check_integrity()
    for pick in hint_picks:
        leaves = leaves_of(tree)
        used = [s for s in range(capacity) if leaves[s]]
        # even picks aim at a used slot, where the walk must detour
        hint = used[pick % len(used)] if used and pick % 2 == 0 else pick % capacity
        expected = greedy_hint_reference(leaves, hint)
        if expected is None:
            with pytest.raises(PoolExhausted):
                tree.allocate_with_hint(hint)
            break
        assert tree.allocate_with_hint(hint) == expected
    assert tree.check_integrity()


@pytest.mark.parametrize("capacity", [1, 2, 5, 16, 1024])
def test_step_bound(capacity):
    tree = BitTree(capacity)
    rng = random.Random(13)
    bound = step_bound(tree.n_leaves)
    before = tree.op_steps
    for _ in run_ops(tree, rng, 2000, use_hints=True):
        assert tree.op_steps - before <= bound
        before = tree.op_steps


def test_full_then_drain_restores_fresh_state():
    tree = BitTree(13)
    fresh = bytes(tree.bits)
    slots = [tree.allocate() for _ in range(13)]
    assert slots == list(range(13))
    assert tree.bits[0] == 1
    for s in slots:
        tree.release(s)
    assert bytes(tree.bits) == fresh
    assert leaves_of(tree).count(0) == 13


class CountingBits(bytearray):
    """Tree bits that count every element read and write."""

    accesses = 0

    def __getitem__(self, key):
        self.accesses += 1
        return super().__getitem__(key)

    def __setitem__(self, key, value):
        self.accesses += 1
        super().__setitem__(key, value)


@pytest.mark.parametrize("capacity", [1, 2, 5, 16, 100, 4097])
def test_op_steps_equals_bit_accesses(capacity):
    tree = BitTree(capacity)
    tree.bits = CountingBits(tree.bits)
    rng = random.Random(capacity)
    live, freed = [], []
    exits = {PoolExhausted: 0, DoubleFree: 0}

    def counted(op, *args):
        steps, accesses = tree.op_steps, tree.bits.accesses
        try:
            return op(*args)
        except (PoolExhausted, DoubleFree) as exc:
            exits[type(exc)] += 1
            return None
        finally:
            assert tree.op_steps - steps == tree.bits.accesses - accesses

    # enough operations to fill the tree, so that allocations run out
    for _ in range(max(3000, 6 * capacity)):
        roll = rng.random()
        if roll < 0.3:
            slot = counted(tree.allocate)
        elif roll < 0.6:
            slot = counted(tree.allocate_with_hint, rng.randrange(capacity))
        elif roll < 0.95 or not freed:
            if live:
                slot = live.pop(rng.randrange(len(live)))
                counted(tree.release, slot)
                freed.append(slot)
            continue
        else:
            slot = rng.choice(freed)
            if tree.bits[tree.n_leaves - 1 + slot]:  # in use
                continue
            counted(tree.release, slot)  # double free
            continue
        if slot is None:
            assert leaves_of(tree).count(0) == 0
        else:
            live.append(slot)
            if slot in freed:
                freed.remove(slot)
    assert exits[PoolExhausted] and exits[DoubleFree]
    tree.bits = bytearray(tree.bits)
    assert tree.check_integrity()


def test_worked_example_step_counts():
    # root read, read of leaf 7 (``low`` is 0, and it is free), write of
    # leaf 7, read of sibling 8 (free)
    tree = BitTree(8)
    tree.allocate()
    assert tree.op_steps == 4

    # a hint took slot 0, ``low``'s slot, so first fit misses: root read,
    # read of leaf 7 (used), reads of bits 1, 3, 7, write of leaf 8, read
    # of sibling 7 (used), write of bit 3, read of sibling 4 (free)
    tree = BitTree(8)
    assert tree.allocate_with_hint(0) == 0
    before = tree.op_steps
    assert tree.allocate() == 1
    assert tree.op_steps - before == 9

    # read and write leaf 12, read and clear bit 5, read bit 2 (already 0)
    tree = BitTree(8)
    for _ in range(6):
        tree.allocate()
    before = tree.op_steps
    tree.release(5)
    assert tree.op_steps - before == 5

    # root read, read bit 2 (full), reads of bits 4 and 10, write of leaf 10,
    # read of sibling 9 (free)
    tree = BitTree(8)
    for _ in range(8):
        tree.allocate()
    for s in range(4):
        tree.release(s)
    before = tree.op_steps
    assert tree.allocate_with_hint(4) == 3
    assert tree.op_steps - before == 6


@pytest.mark.parametrize("capacity", [1, 5, 65536, 65537])
class TestFirstFitFloor:
    """Every way ``low`` moves, on both sides of the storage cut: first
    fit stays the leftmost free slot and ``low`` its lower bound."""

    def first_fit(self, tree):
        expected = leftmost_free(leaves_of(tree))
        assert tree.allocate() == expected
        assert tree.low == expected + 1 and tree.check_integrity()
        return expected

    def test_hint_takes_the_floor(self, capacity):
        tree = BitTree(capacity)
        half = capacity // 2
        for _ in range(half):
            tree.allocate()
        assert tree.low == half
        assert tree.allocate_with_hint(half) == half  # hints leave ``low``
        assert tree.low == half and tree.check_integrity()
        if half + 1 == capacity:
            with pytest.raises(PoolExhausted):
                tree.allocate()
        else:
            assert self.first_fit(tree) == half + 1  # a miss

    def test_releases_below_and_above_the_floor(self, capacity):
        tree = BitTree(capacity)
        for _ in range(capacity):
            tree.allocate()
        mid, top = capacity // 2, capacity - 1
        tree.release(mid)
        assert tree.low == mid
        if top > mid:
            tree.release(top)  # above ``low``: it stays
            assert tree.low == mid
        if mid > 0:
            tree.release(0)  # below ``low``: it drops
            assert tree.low == 0
        free = leaves_of(tree).count(0)
        assert [self.first_fit(tree) for _ in range(free)] == sorted({0, mid, top})

    def test_run_to_exhaustion(self, capacity):
        tree = BitTree(capacity)
        assert [tree.allocate() for _ in range(capacity)] == list(range(capacity))
        assert tree.low == capacity and tree.check_integrity()
        before = tree.op_steps
        with pytest.raises(PoolExhausted):
            tree.allocate()
        assert tree.op_steps - before == 1  # the root read, before ``low``'s leaf
        assert tree.low == capacity

    def test_drain_and_refill(self, capacity):
        tree = BitTree(capacity)
        fresh = list(tree.bits)
        for _ in range(capacity):
            tree.allocate()
        order = list(range(capacity))
        random.Random(capacity).shuffle(order)
        for slot in order:
            tree.release(slot)
        assert list(tree.bits) == fresh and tree.low == 0
        head = [self.first_fit(tree) for _ in range(min(3, capacity))]
        rest = [tree.allocate() for _ in range(capacity - len(head))]
        assert head + rest == list(range(capacity))
        assert tree.check_integrity()


def test_sequential_fill_skips_the_descent():
    # about 6 steps per slot: root read, ``low``'s leaf read and write, and
    # the climb (2 per level it rises, plus 1); descending from the root
    # instead would cost 16 more per slot, 1 441 843 in all
    tree = BitTree(65537)
    for _ in range(65537):
        tree.allocate()
    assert tree.op_steps == 393_251


@pytest.mark.parametrize("capacity", [1, 5, 100, 4097, 65536, 65537])
def test_list_and_bytearray_storage_agree(capacity):
    tree = BitTree(capacity)
    twin = BitTree(capacity)
    twin.bits = bytearray(twin.bits) if type(twin.bits) is list else list(twin.bits)
    rng = random.Random(capacity)
    live, freed = [], []  # freed: released and not handed out since
    faults = {PoolExhausted: 0, DoubleFree: 0}

    def both(op, *args):
        outcomes = []
        for t in (tree, twin):
            try:
                outcomes.append(getattr(t, op)(*args))
            except (PoolExhausted, DoubleFree) as exc:
                outcomes.append(type(exc))
        assert outcomes[0] == outcomes[1]
        assert tree.op_steps == twin.op_steps
        if outcomes[0] in faults:
            faults[outcomes[0]] += 1
        elif op != "release":
            live.append(outcomes[0])
            if outcomes[0] in freed:
                freed.remove(outcomes[0])

    # first fit up to 32 slots short of full, then a mix that runs out
    for _ in range(capacity - 32):
        both("allocate")
    for _ in range(3000):
        roll = rng.random()
        if roll < 0.25:
            both("allocate")
        elif roll < 0.4 and live:
            both("allocate_with_hint", rng.choice(live))  # a used slot
        elif roll < 0.55 and freed:
            both("allocate_with_hint", rng.choice(freed))  # a free slot
        elif roll < 0.9 and live:
            slot = live.pop(rng.randrange(len(live)))
            both("release", slot)
            freed.append(slot)
        elif roll >= 0.9 and freed:
            both("release", rng.choice(freed))  # a double free
        else:
            both("allocate")
    assert faults[PoolExhausted] and faults[DoubleFree]
    assert type(tree.bits) is not type(twin.bits)
    assert list(tree.bits) == list(twin.bits)
    assert tree.check_integrity() and twin.check_integrity()
