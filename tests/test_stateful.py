"""One pool of every policy kind, driven through the same operations at
once and checked against each kind's oracle after every step."""

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    consumes,
    initialize,
    invariant,
    multiple,
    precondition,
    rule,
)

from bitfit import (
    POLICY_KINDS,
    AllocatorError,
    DoubleFree,
    Misaligned,
    OutOfRange,
    Pool,
    PoolExhausted,
)
from oracles import REFERENCE_POLICIES


class PoolsAgainstOracles(RuleBasedStateMachine):
    # an object maps each kind to the offset its pool gave the object
    objects = Bundle("objects")

    @initialize(capacity=st.integers(1, 24),
                slot_size=st.sampled_from([2, 3, 8, 32]))
    def make_pools(self, capacity, slot_size):
        self.capacity, self.slot_size = capacity, slot_size
        self.pools = {kind: Pool(slot_size, capacity, kind)
                      for kind in POLICY_KINDS}
        self.models = {kind: REFERENCE_POLICIES[kind](capacity)
                       for kind in POLICY_KINDS}
        self.live = {kind: set() for kind in POLICY_KINDS}

    def full(self):
        return len(self.live["bitmap"]) == self.capacity

    def expect(self, error, call):
        """``call(kind, pool)`` must raise ``error`` itself in every pool;
        returns each kind's message."""
        messages = {}
        for kind, pool in self.pools.items():
            with pytest.raises(AllocatorError) as err:
                call(kind, pool)
            assert type(err.value) is error, kind
            messages[kind] = str(err.value)
        return messages

    def expect_alike(self, error, call):
        """``expect``, for a fault whose message names nothing that differs
        between the pools: every pool must give the same message."""
        messages = set(self.expect(error, call).values())
        assert len(messages) == 1, messages

    def allocate(self, hints):
        """Allocate in every pool, near ``hints[kind]`` unless ``hints`` is
        None, and check each offset against the pool's oracle."""
        if self.full():
            if hints is None:
                self.expect_alike(PoolExhausted,
                                  lambda kind, pool: pool.acquire())
            else:
                self.expect_alike(
                    PoolExhausted,
                    lambda kind, pool: pool.acquire_near(hints[kind]))
            return multiple()
        offsets = {}
        for kind, pool in self.pools.items():
            if hints is None:
                offset = pool.acquire()
                slot = self.models[kind].allocate()
            else:
                offset = pool.acquire_near(hints[kind])
                slot = self.models[kind].allocate(hints[kind] // self.slot_size)
            assert offset == slot * self.slot_size, kind
            self.live[kind].add(slot)
            offsets[kind] = offset
        return offsets

    @rule(target=objects)
    def acquire(self):
        return self.allocate(None)

    @rule(target=objects, near=objects)
    def acquire_near_live(self, near):
        return self.allocate(near)

    @rule(target=objects, slot=st.integers(0, 39))
    def acquire_near_any(self, slot):
        offset = slot % self.capacity * self.slot_size
        return self.allocate(dict.fromkeys(POLICY_KINDS, offset))

    @rule(obj=consumes(objects))
    def release(self, obj):
        for kind, pool in self.pools.items():
            pool.release(obj[kind])
            slot = obj[kind] // self.slot_size
            self.models[kind].release(slot)
            self.live[kind].remove(slot)

    @precondition(lambda self: not self.full())
    @rule(k=st.integers(0, 39))
    def double_free(self, k):
        released = {}

        def call(kind, pool):
            free = sorted(set(range(self.capacity)) - self.live[kind])
            released[kind] = free[k % len(free)]
            pool.release(released[kind] * self.slot_size)
        messages = self.expect(DoubleFree, call)
        assert messages == {kind: f"slot {slot} is already free"
                            for kind, slot in released.items()}

    @rule(past=st.integers(0, 3), below=st.booleans(), hint=st.booleans())
    def out_of_range(self, past, below, hint):
        slot = -1 - past if below else self.capacity + past
        self.bad_offset(OutOfRange, slot * self.slot_size, hint)

    @rule(slot=st.integers(-2, 42), data=st.data(), hint=st.booleans())
    def misaligned(self, slot, data, hint):
        skew = data.draw(st.integers(1, self.slot_size - 1))
        self.bad_offset(Misaligned, slot * self.slot_size + skew, hint)

    def bad_offset(self, error, offset, hint):
        if hint:
            self.expect_alike(error,
                              lambda kind, pool: pool.acquire_near(offset))
        else:
            self.expect_alike(error, lambda kind, pool: pool.release(offset))

    @invariant()
    def consistent(self):
        assert self.pools["bitmap"].policy.check_integrity()
        for kind, pool in self.pools.items():
            assert pool.free_count == self.capacity - len(self.live[kind]), kind


TestPoolsAgainstOracles = PoolsAgainstOracles.TestCase
TestPoolsAgainstOracles.settings = settings(
    max_examples=150, stateful_step_count=40, deadline=None)
