"""Acceptance suite: one test per criterion, printing a PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import random
import statistics
import time

from bitfit import BitTree, LinearBitmapPolicy, PoolExhausted, run_list_lifecycle
from bitfit.cli import main as cli_main
from bitfit.trace import format_trace, parse_trace

from oracles import (
    churn_trace,
    leaves_of,
    lifecycle_trace,
    smallest_free_subtree_on_path,
)


def bits_of(tree):
    return list(tree.bits)


# -- 1. worked examples on the 8-slot tree ------------------------------

def test_criterion_1_worked_examples():
    # first allocation: descend to leaf bit 7, nothing else changes
    tree = BitTree(8)
    assert bits_of(tree) == [0] * 15
    assert tree.allocate() == 0
    assert bits_of(tree) == [0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0]

    # free the 6th location: clear leaf 12 and ancestor 5, stop at bit 2
    tree = BitTree(8)
    for _ in range(6):
        tree.allocate()
    assert bits_of(tree) == [0, 1, 0, 1, 1, 1, 0, 1, 1, 1, 1, 1, 1, 0, 0]
    tree.release(5)
    assert bits_of(tree) == [0, 1, 0, 1, 1, 0, 0, 1, 1, 1, 1, 1, 0, 0, 0]

    # hint toward leaf 11 with the right half full: lands on leaf 10
    tree = BitTree(8)
    for _ in range(8):
        tree.allocate()
    for s in range(4):
        tree.release(s)
    assert bits_of(tree) == [0, 0, 1, 0, 0, 1, 1, 0, 0, 0, 0, 1, 1, 1, 1]
    assert tree.allocate_with_hint(4) == 3
    assert bits_of(tree) == [0, 0, 1, 0, 0, 1, 1, 0, 0, 0, 1, 1, 1, 1, 1]
    print("ACCEPTANCE 1 (worked examples): PASS")


# -- 2. oracle equivalence over 10^5 random operations ------------------

def drive(seed, n_ops, on_result):
    """Random alloc/free schedule, alloc-biased so exhaustion is reached."""
    rng = random.Random(seed)
    live = []
    for _ in range(n_ops):
        if live and rng.random() >= 0.6:
            on_result("free", live.pop(rng.randrange(len(live))))
        else:
            slot = on_result("alloc", None)
            if slot is not None:
                live.append(slot)


def test_criterion_2_oracle_equivalence():
    start = time.perf_counter()
    tree = BitTree(1024)
    oracle = LinearBitmapPolicy(1024)
    errors = [0]

    def step(op, slot):
        if op == "free":
            tree.release(slot)
            oracle.release(slot)
            return None
        try:
            a = tree.allocate()
        except PoolExhausted:
            a = None
        try:
            b = oracle.allocate()
        except PoolExhausted:
            b = None
        assert a == b  # identical slots and identical error points
        if a is None:
            errors[0] += 1
        return a

    drive(2024, 100_000, step)
    assert errors[0] > 0, "schedule never hit exhaustion; error points untested"
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"ACCEPTANCE 2 (oracle equivalence, 1e5 ops in {elapsed:.2f}s): PASS")


# -- 3. integrity after every operation ---------------------------------

def test_criterion_3_integrity():
    tree = BitTree(1024)
    checked = [0]

    def step(op, slot):
        result = None
        if op == "free":
            tree.release(slot)
        else:
            try:
                result = tree.allocate()
            except PoolExhausted:
                pass
        assert tree.check_integrity()
        checked[0] += 1
        return result

    drive(2024, 100_000, step)
    assert checked[0] == 100_000
    assert tree.check_integrity()
    print("ACCEPTANCE 3 (integrity after each of 1e5 ops): PASS")


# -- 4. logarithmic step bound ------------------------------------------

def max_steps_observed(n_leaves, rng):
    tree = BitTree(n_leaves)
    worst = 0
    mark = tree.op_steps

    def note():
        nonlocal worst, mark
        worst = max(worst, tree.op_steps - mark)
        mark = tree.op_steps

    for _ in range(n_leaves):
        tree.allocate()
        note()
    # full-depth release/reallocate churn plus hint descents
    for _ in range(2000):
        slot = rng.randrange(n_leaves)
        tree.release(slot)
        note()
        if rng.random() < 0.5:
            tree.allocate()
        else:
            tree.allocate_with_hint(rng.randrange(n_leaves))
        note()
    return worst


def test_criterion_4_step_bound():
    rng = random.Random(5)
    sizes = [2 ** 4, 2 ** 10, 2 ** 16]
    observed = {}
    for n in sizes:
        worst = max_steps_observed(n, rng)
        bound = 6 * (n - 1).bit_length() + 4
        assert worst <= bound, f"n_leaves={n}: {worst} > {bound}"
        observed[n] = worst
    # doubling the tree grows the observed max by at most a constant per level
    for small, big in zip(sizes, sizes[1:]):
        doublings = (big // small).bit_length() - 1
        assert observed[big] - observed[small] <= 6 * doublings
    print(f"ACCEPTANCE 4 (step bound, observed {observed}): PASS")


# -- 5. locality recovery over 10 seeds ---------------------------------

def test_criterion_5_locality_recovery():
    start = time.perf_counter()
    for seed in range(10):
        bitmap = run_list_lifecycle("bitmap", 10_000, 32, seed)
        assert bitmap.second_traversal.sequential_fraction == 1.0
        lifo = run_list_lifecycle("freelist_lifo", 10_000, 32, seed)
        assert lifo.second_traversal.sequential_fraction < 0.05
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"ACCEPTANCE 5 (locality recovery, 10 seeds in {elapsed:.2f}s): PASS")


# -- 6. hint quality at 70% fill ----------------------------------------

def test_criterion_6_hint_quality():
    rng = random.Random(11)
    capacity = 1024
    tree = BitTree(capacity)
    for _ in range(capacity):
        tree.allocate()
    free_slots = rng.sample(range(capacity), capacity - round(0.7 * capacity))
    for slot in free_slots:
        tree.release(slot)

    hint_distances = []
    leftmost_distances = []
    free_set = set(free_slots)
    live = [s for s in range(capacity) if s not in free_set]
    for _ in range(1000):
        hint = rng.choice(live)
        leaves = leaves_of(tree)
        returned = tree.allocate_with_hint(hint)
        lo, hi = smallest_free_subtree_on_path(leaves, hint)
        assert lo <= returned < hi  # exact greedy postcondition
        if leaves[hint] == 0:
            assert returned == hint
        hint_distances.append(abs(returned - hint))
        leftmost_distances.append(abs(leaves.index(0) - hint))
        tree.release(returned)  # restore the 70%-fill state

    assert (statistics.median(hint_distances)
            <= statistics.median(leftmost_distances))
    print("ACCEPTANCE 6 (hint postcondition 1000/1000, median distance): PASS")


# -- 7. trace round-trip and CLI determinism ----------------------------

def test_criterion_7_round_trip_and_determinism(capsys):
    for seed in range(3):
        for text in (lifecycle_trace(50, seed), churn_trace(64, 0.6, 300, seed)):
            assert format_trace(parse_trace(text)) == text

    argv = ["bench", "--workload", "lifecycle", "--allocator", "bitmap",
            "--slots", "500", "--slot-size", "32", "--seed", "3",
            "--format", "json"]
    outputs = []
    for _ in range(2):
        assert cli_main(list(argv)) == 0
        outputs.append(capsys.readouterr().out.encode())
    assert outputs[0] == outputs[1]
    print("ACCEPTANCE 7 (trace round-trip, CLI determinism): PASS")
