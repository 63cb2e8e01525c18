"""Exception types shared by all allocator policies and the trace replayer,
plus the one builder of each allocator fault: ``exhausted``,
``already_free``, ``out_of_range`` and ``bad_offset``.  Callers compare
inline and build a fault only on the error path."""


class AllocatorError(Exception):
    """Base class for allocator failures."""


class PoolExhausted(AllocatorError):
    """No free slot is available."""


def exhausted() -> PoolExhausted:
    """The error for an allocation from a pool with no free slot."""
    return PoolExhausted("all slots are in use")


class DoubleFree(AllocatorError):
    """The slot being released is not currently allocated."""


def already_free(slot: int) -> DoubleFree:
    """The error for a release of ``slot``, which is already free."""
    return DoubleFree(f"slot {slot} is already free")


class OutOfRange(AllocatorError):
    """Slot or hint index lies outside the pool."""


def out_of_range(what: str, index: int, capacity: int) -> OutOfRange:
    """The error for a ``what`` (slot or hint) outside ``[0, capacity)``."""
    return OutOfRange(f"{what} {index} not in [0, {capacity})")


class Misaligned(AllocatorError):
    """Byte offset is not a multiple of the slot size."""


def bad_offset(offset: int, slot_size: int, capacity: int) -> AllocatorError:
    """The error for a byte offset that names no slot of a pool of
    ``capacity`` slots of ``slot_size`` bytes."""
    if offset % slot_size:
        return Misaligned(f"offset {offset} is not a multiple of {slot_size}")
    return OutOfRange(f"offset {offset} outside pool of {capacity * slot_size} bytes")


class TraceError(Exception):
    """Base class for trace parsing/replay failures; carries the source line."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class TraceSyntaxError(TraceError):
    """Line does not match the trace grammar."""


class UnknownId(TraceError):
    """Free or hint references an id that is not live."""


class DuplicateId(TraceError):
    """Alloc introduces an id that is already live."""


class ReplayError(TraceError):
    """Allocator error raised while replaying; wraps the underlying cause."""
