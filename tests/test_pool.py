import ast
import random
from pathlib import Path

import pytest

import bitfit
from bitfit import (
    POLICY_KINDS,
    AllocatorError,
    BitTree,
    DoubleFree,
    Misaligned,
    OutOfRange,
    Pool,
    PoolExhausted,
    make_policy,
)
from bitfit.cli import ALLOCATOR_CHOICES


class IntLike:
    """An integer type that is not int, as numpy's are: it has only
    ``__index__``."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


class TestConstruction:
    def test_one_byte_slots_are_legal(self):
        pool = Pool(1, 8, "bitmap")
        assert pool.acquire() == 0
        assert pool.acquire() == 1

    def test_zero_slot_size_rejected(self):
        with pytest.raises(ValueError):
            Pool(0, 8, "bitmap")

    @pytest.mark.parametrize("kind", POLICY_KINDS)
    def test_zero_capacity_rejected(self, kind):
        with pytest.raises(ValueError, match="capacity must be >= 1"):
            Pool(32, 0, kind)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            Pool(32, 8, "slab")

    @pytest.mark.parametrize("kind", POLICY_KINDS)
    @pytest.mark.parametrize("capacity", [8.0, 32.5, 1e3])
    def test_float_capacity_rejected(self, kind, capacity):
        with pytest.raises(TypeError):
            make_policy(kind, capacity)
        with pytest.raises(TypeError):
            Pool(32, capacity, kind)

    @pytest.mark.parametrize("slot_size", [32.0, 32.5])
    def test_float_slot_size_rejected(self, slot_size):
        with pytest.raises(TypeError):
            Pool(slot_size, 8, "bitmap")

    @pytest.mark.parametrize("kind", POLICY_KINDS)
    def test_int_like_sizes_give_int_offsets(self, kind):
        pool = Pool(IntLike(32), IntLike(1000), kind)
        assert (pool.slot_size, pool.capacity) == (32, 1000)
        assert type(pool.slot_size) is int and type(pool.capacity) is int
        offsets = [pool.acquire() for _ in range(1000)]
        assert sorted(offsets) == list(range(0, 32000, 32))
        assert all(type(offset) is int for offset in offsets)
        pool.release(offsets[10])
        assert type(pool.acquire_near(offsets[20])) is int


class TestAcquireRelease:
    def test_bitmap_acquires_in_offset_order(self):
        pool = Pool(32, 8, "bitmap")
        assert pool.acquire() == 0
        assert pool.acquire() == 32

    def test_fresh_lifo_matches_bitmap_before_any_release(self):
        a = Pool(32, 8, "bitmap")
        b = Pool(32, 8, "freelist_lifo")
        assert [a.acquire() for _ in range(8)] == [b.acquire() for _ in range(8)]

    def test_full_pool_raises(self):
        pool = Pool(16, 2, "bitmap")
        pool.acquire()
        pool.acquire()
        with pytest.raises(PoolExhausted):
            pool.acquire()

    def test_release_then_acquire_returns_same_offset(self):
        pool = Pool(32, 8, "bitmap")
        off = pool.acquire()
        pool.release(off)
        assert pool.acquire() == off

    def test_misaligned_release(self):
        pool = Pool(32, 8, "bitmap")
        pool.acquire()
        with pytest.raises(Misaligned):
            pool.release(33)

    def test_release_of_never_acquired_slot(self):
        pool = Pool(32, 8, "bitmap")
        with pytest.raises(DoubleFree):
            pool.release(64)

    def test_release_out_of_range(self):
        pool = Pool(32, 8, "bitmap")
        with pytest.raises(OutOfRange):
            pool.release(256)


class TestAcquireNear:
    def test_bitmap_honors_hint(self):
        pool = Pool(32, 8, "bitmap")
        for _ in range(8):
            pool.acquire()
        for s in range(4):
            pool.release(32 * s)
        assert pool.acquire_near(32 * 4) == 32 * 3

    def test_free_hint_returned_directly(self):
        pool = Pool(32, 8, "bitmap")
        assert pool.acquire_near(32 * 5) == 32 * 5

    def test_freelist_ignores_hint(self):
        hinted = Pool(32, 8, "freelist_lifo")
        plain = Pool(32, 8, "freelist_lifo")
        for p in (hinted, plain):
            for _ in range(4):
                p.acquire()
            p.release(32 * 1)
        assert hinted.acquire_near(32 * 3) == plain.acquire()

    def test_misaligned_hint(self):
        pool = Pool(32, 8, "bitmap")
        with pytest.raises(Misaligned):
            pool.acquire_near(5)

    def test_out_of_range_hint(self):
        pool = Pool(32, 8, "bitmap")
        with pytest.raises(OutOfRange):
            pool.acquire_near(32 * 8)


@pytest.mark.parametrize("kind", POLICY_KINDS)
@pytest.mark.parametrize("method", ["release", "acquire_near"])
@pytest.mark.parametrize("offset, error, message", [
    (33, Misaligned, r"^offset 33 is not a multiple of 32$"),
    (-5, Misaligned, r"^offset -5 is not a multiple of 32$"),
    (256, OutOfRange, r"^offset 256 outside pool of 256 bytes$"),
    (-32, OutOfRange, r"^offset -32 outside pool of 256 bytes$"),
], ids=["misaligned", "negative-misaligned", "past-end", "negative"])
def test_bad_offset_messages(kind, method, offset, error, message):
    pool = Pool(32, 8, kind)
    with pytest.raises(error, match=message):
        getattr(pool, method)(offset)


@pytest.mark.parametrize("kind", POLICY_KINDS)
@pytest.mark.parametrize("index", [5, 6, -1])
def test_out_of_range_messages(kind, index):
    policy = make_policy(kind, 5)
    with pytest.raises(OutOfRange, match=rf"^slot {index} not in \[0, 5\)$"):
        policy.release(index)
    with pytest.raises(OutOfRange, match=rf"^hint {index} not in \[0, 5\)$"):
        policy.allocate_with_hint(index)


def test_only_errors_builds_allocator_faults():
    # each fault is worded once: every other module raises through the
    # builders of errors.py
    faults = {"PoolExhausted", "DoubleFree", "OutOfRange", "Misaligned"}
    built = {}
    for path in sorted(Path(bitfit.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", ""))
                if name in faults:
                    built.setdefault(path.name, set()).add(name)
    assert built == {"errors.py": faults}


def test_pool_checks_an_offset_in_one_place():
    # acquire_near and release share one offset check, not a copy each
    tree = ast.parse((Path(bitfit.__file__).parent / "pool.py").read_text("utf-8"))
    calls = [getattr(node.func, "id", getattr(node.func, "attr", ""))
             for node in ast.walk(tree) if isinstance(node, ast.Call)]
    assert calls.count("divmod") == 1
    assert calls.count("bad_offset") == 1


def test_only_cli_writes_output():
    # cli renders; every other module returns what it computes
    streams = {"stdout", "stderr"}
    writers = set()
    for path in sorted(Path(bitfit.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if (isinstance(node, ast.Call)
                    and getattr(node.func, "id", None) == "print"
                    or isinstance(node, ast.Attribute) and node.attr in streams
                    and getattr(node.value, "id", None) == "sys"
                    or isinstance(node, ast.ImportFrom) and node.module == "sys"
                    and streams & {alias.name for alias in node.names}):
                writers.add(path.name)
    assert writers == {"cli.py"}


def test_slot_offset_bijection():
    # each slot's offset, released, is the offset a hint at it gets back
    pool = Pool(48, 17, "bitmap")
    offsets = [pool.acquire() for _ in range(17)]
    assert offsets == [48 * s for s in range(17)]
    for off in offsets:
        pool.release(off)
        assert pool.acquire_near(off) == off


def test_policy_interchangeability_legality_only():
    """Identical op sequences are legal/illegal at the same points everywhere."""
    rng = random.Random(31)
    script = []
    for _ in range(400):
        script.append(rng.random())
    outcomes = []
    for kind in POLICY_KINDS:
        rngk = random.Random(99)
        pool = Pool(16, 12, kind)
        live = []
        trace = []
        for roll in script:
            try:
                if live and roll < 0.45:
                    pick = live.pop(rngk.randrange(len(live)))
                    pool.release(pick)
                    trace.append("release-ok")
                elif roll < 0.9:
                    off = pool.acquire()
                    live.append(off)
                    trace.append("acquire-ok")
                else:
                    # hint at a fixed slot; only legality is compared
                    off = pool.acquire_near(16 * 5)
                    live.append(off)
                    trace.append("acquire-ok")
            except AllocatorError as exc:
                trace.append(type(exc).__name__)
        outcomes.append(trace)
    assert all(t == outcomes[0] for t in outcomes[1:])


class TestWhatTheBenchmarkUses:
    """What ``bench/`` relies on in the package, so that a change here
    cannot break the benchmark without failing a tier-1 test.

    ``bench/`` drives every policy through the contract alone, and pins
    ``tail_churn``'s slots in any kind by calling ``allocate``.  It traces
    ``BitTree`` and ``Pool`` by wrapping the methods in their class
    ``__dict__``."""

    @pytest.mark.parametrize(
        "kind", ["freelist_lifo", "freelist_fifo", "linear_bitmap"])
    def test_flat_policies_show_only_the_contract(self, kind):
        # a bytearray leaf_bits would send bench/child.py down a byte pin
        # that lowers a free_count, so a map shown without a count would
        # crash its per-layer run; with neither, it pins by allocate()
        policy = make_policy(kind, 8)
        assert {name for name in dir(policy) if not name.startswith("_")} == {
            "capacity", "allocate", "allocate_with_hint", "release"}
        for owner in (policy, BitTree(8), Pool(32, 8, kind)):
            assert not hasattr(owner, "leaf_bits")
            assert not hasattr(owner, "free_count")

    def test_acquire_near_calls_the_class_hint_method(self, monkeypatch):
        # bench/tracing.py wraps the allocate_with_hint that it finds in
        # BitTree.__dict__ and skips a name it does not find there, which
        # would leave tail_churn's hinted call count at 0
        method = BitTree.__dict__["allocate_with_hint"]
        hints = []

        def spy(tree, hint):
            hints.append(hint)
            return method(tree, hint)

        monkeypatch.setattr(BitTree, "allocate_with_hint", spy)
        pool = Pool(32, 8, "bitmap")
        assert pool.acquire_near(96) == 96
        assert hints == [3]

    def test_pool_methods_are_the_class_ones_called(self, monkeypatch):
        # bench/tracing.py counts pool.calls by wrapping the acquire,
        # acquire_near and release that it finds in Pool.__dict__, so each
        # must stay there and be what a call runs
        seen = []
        for name in ("acquire", "acquire_near", "release"):
            method = Pool.__dict__[name]

            def spy(pool, *args, name=name, method=method):
                seen.append((name, args))
                return method(pool, *args)

            monkeypatch.setattr(Pool, name, spy)
        pool = Pool(32, 8, "bitmap")
        assert pool.acquire() == 0
        assert pool.acquire_near(96) == 96
        pool.release(0)
        assert seen == [("acquire", ()), ("acquire_near", (96,)),
                        ("release", (0,))]


class TestPolicyTable:
    def test_kinds_keep_their_order(self):
        # the order of the CLI's --allocator choices and of its --help
        assert POLICY_KINDS == (
            "bitmap", "freelist_lifo", "freelist_fifo", "linear_bitmap")
        assert ALLOCATOR_CHOICES == (
            "bitmap", "freelist-lifo", "freelist-fifo", "linear-bitmap")

    @pytest.mark.parametrize("capacity", [8, 2 ** 70])
    def test_unknown_kind(self, capacity):
        with pytest.raises(ValueError, match=r"^unknown policy kind 'slab'$"):
            make_policy("slab", capacity)

    @pytest.mark.parametrize("capacity", [2 ** 61, 2 ** 70])
    @pytest.mark.parametrize("kind", POLICY_KINDS)
    def test_pool_too_large_for_memory(self, kind, capacity):
        # every policy makes its storage up front, so a pool that cannot
        # be allocated (2**61) or indexed (2**70) is refused by every kind
        message = f"^a pool of {capacity} slots does not fit in memory$"
        with pytest.raises(ValueError, match=message):
            make_policy(kind, capacity)
