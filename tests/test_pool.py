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
    cannot break the benchmark without failing a tier-1 test."""

    def test_only_the_scan_keeps_a_free_count(self):
        # a free count is not part of the policy contract: bench/child.py
        # lowers the scan's own counter as it pins, and nothing else reads one
        kept = [kind for kind in POLICY_KINDS
                if hasattr(make_policy(kind, 8), "free_count")]
        assert kept == ["linear_bitmap"]
        assert not hasattr(Pool(32, 8), "free_count")

    def test_scan_byte_pin(self):
        # bench/child.py pins tail_churn's slots in the scan by writing its
        # bytes, since pinning them by allocate() takes quadratic time
        policy = make_policy("linear_bitmap", 64)
        assert isinstance(policy.leaf_bits, bytearray)
        policy.leaf_bits[:40] = b"\x01" * 40
        policy.free_count -= 40
        assert policy.allocate() == 40
        assert policy.free_count == policy.leaf_bits.count(0)

    @pytest.mark.parametrize("kind", ["freelist_lifo", "freelist_fifo"])
    def test_free_lists_show_no_scan_map(self, kind):
        # bench/child.py takes any bytearray leaf_bits for the scan's map and
        # would pin a free list by writing bytes its deque never reads
        policy = make_policy(kind, 64)
        assert not isinstance(getattr(policy, "leaf_bits", None), bytearray)

    def test_scan_map_is_the_one_release_and_allocate_use(self):
        policy = make_policy("linear_bitmap", 8)
        leaf_bits = policy.leaf_bits
        assert [policy.allocate() for _ in range(3)] == [0, 1, 2]
        assert leaf_bits == b"\x01\x01\x01" + bytes(5)
        policy.release(1)
        assert leaf_bits == b"\x01\x00\x01" + bytes(5)
        with pytest.raises(DoubleFree):
            policy.release(1)
        assert policy.free_count == leaf_bits.count(0) == 6
        assert policy.allocate() == 1 and leaf_bits[1] == 1

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
