"""Exception types shared by all allocator policies and the trace replayer,
plus the range check every policy makes."""


class AllocatorError(Exception):
    """Base class for allocator failures."""


class PoolExhausted(AllocatorError):
    """No free slot is available."""


class DoubleFree(AllocatorError):
    """The slot being released is not currently allocated."""


class OutOfRange(AllocatorError):
    """Slot or hint index lies outside the pool."""


def check_range(index: int, capacity: int, what: str = "slot") -> None:
    """Raise OutOfRange unless ``0 <= index < capacity``."""
    if not 0 <= index < capacity:
        raise OutOfRange(f"{what} {index} not in [0, {capacity})")


class Misaligned(AllocatorError):
    """Byte offset is not a multiple of the slot size."""


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
