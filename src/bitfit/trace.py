"""Text allocation traces: parse, format, generate, and replay.

Grammar, one event per line, tokens separated by any run of whitespace:

    alloc <id>
    free <id>
    alloc_hint <id> <hint_id>

``#`` starts a comment line; blank lines are skipped; ids match
``[A-Za-z0-9_]+``.  Hints name live ids rather than raw slots, so the same
trace replays through any policy.  ``generate_trace`` writes the schedule
of a workload from ``workload`` as a trace.
"""

import re
from dataclasses import dataclass
from typing import List, Optional, Sequence

from .errors import (
    AllocatorError,
    DuplicateId,
    ReplayError,
    TraceSyntaxError,
    UnknownId,
)
from .pool import Pool
from .workload import churn_steps, lifecycle_free_order

_ID_RE = re.compile(r"[A-Za-z0-9_]+\Z")

ALLOC, FREE, ALLOC_HINT = "alloc", "free", "alloc_hint"


@dataclass(frozen=True)
class TraceEvent:
    op: str
    id: str
    hint_id: Optional[str] = None
    line_no: int = 0


@dataclass(frozen=True)
class ReplayRecord:
    event: TraceEvent
    slot: int
    offset: int


def decode_trace(data: bytes) -> str:
    """Decode trace bytes as UTF-8; a bad byte is a syntax error on its line."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # count lines the way parse_trace does: the bad byte ends a partial
        # line, so a sentinel character stands in for it
        head = data[:exc.start].decode("utf-8") + "x"
        raise TraceSyntaxError(
            len(head.splitlines()),
            f"invalid UTF-8 byte 0x{data[exc.start]:02x}") from None


def parse_trace(text: str) -> List[TraceEvent]:
    events = []
    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        op = tokens[0]
        if op == ALLOC and len(tokens) == 2:
            event = TraceEvent(ALLOC, tokens[1], None, line_no)
        elif op == FREE and len(tokens) == 2:
            event = TraceEvent(FREE, tokens[1], None, line_no)
        elif op == ALLOC_HINT and len(tokens) == 3:
            event = TraceEvent(ALLOC_HINT, tokens[1], tokens[2], line_no)
        else:
            raise TraceSyntaxError(line_no, f"cannot parse {raw!r}")
        for token in tokens[1:]:
            if not _ID_RE.match(token):
                raise TraceSyntaxError(line_no, f"bad id {token!r}")
        events.append(event)
    return events


def format_trace(events: Sequence[TraceEvent]) -> str:
    lines = []
    for ev in events:
        if ev.op == ALLOC_HINT:
            lines.append(f"{ev.op} {ev.id} {ev.hint_id}")
        else:
            lines.append(f"{ev.op} {ev.id}")
    return "\n".join(lines) + "\n" if lines else ""


def replay(events: Sequence[TraceEvent], policy_kind: str, capacity: int,
           slot_size: int = 1) -> List[ReplayRecord]:
    """Run a parsed trace through a fresh pool, one record per allocation.

    Id liveness is checked here, not at parse time; allocator failures
    surface as ReplayError carrying the trace line.
    """
    pool = Pool(slot_size, capacity, policy_kind)
    live = {}
    records = []
    for ev in events:
        try:
            if ev.op == FREE:
                if ev.id not in live:
                    raise UnknownId(ev.line_no, f"free of unknown id {ev.id!r}")
                pool.release(live.pop(ev.id))
                continue
            if ev.id in live:
                raise DuplicateId(ev.line_no, f"alloc of live id {ev.id!r}")
            if ev.op == ALLOC_HINT:
                if ev.hint_id not in live:
                    raise UnknownId(ev.line_no, f"hint names unknown id {ev.hint_id!r}")
                offset = pool.acquire_near(live[ev.hint_id])
            else:
                offset = pool.acquire()
        except AllocatorError as exc:
            raise ReplayError(ev.line_no, str(exc)) from exc
        live[ev.id] = offset
        records.append(ReplayRecord(ev, offset // slot_size, offset))
    return records


def generate_lifecycle_trace(node_count: int, seed: int) -> str:
    """Event stream of the list lifecycle: fill, free in value-sorted order, refill."""
    order = lifecycle_free_order(node_count, seed)
    lines = [f"alloc n{i}" for i in range(node_count)]
    lines.extend(f"free n{i}" for i in order)
    lines.extend(f"alloc m{i}" for i in range(node_count))
    return "\n".join(lines) + "\n"


def generate_churn_trace(capacity: int, target_fill: float, ops: int,
                         seed: int) -> str:
    """Random alloc/free stream holding the live count near the target fill."""
    lines = []
    fresh = 0
    for k in churn_steps(capacity, target_fill, ops, seed):
        if k is None:
            lines.append(f"alloc c{fresh}")
            fresh += 1
        else:
            lines.append(f"free c{k}")
    return "\n".join(lines) + "\n" if lines else ""


def generate_trace(kind: str, seed: int = 0, **params) -> str:
    if kind == "lifecycle":
        return generate_lifecycle_trace(seed=seed, **params)
    if kind == "churn":
        return generate_churn_trace(seed=seed, **params)
    raise ValueError(f"unknown trace kind {kind!r}")
