r"""Text allocation traces: read, parse, format, and replay.

Grammar, one event per line:

    alloc <id>
    free <id>
    alloc_hint <id> <hint_id>

A line is parsed as whitespace tokens, where whitespace is whatever
``str.split`` splits on, and an id is a run of ``[A-Za-z0-9_]``.  A line
whose first token starts with ``#`` is a comment; blank lines are
skipped.  Hints name live ids rather than raw slots, so the same trace
replays through any policy.

A trace file is opened as text by ``open_trace`` and read in blocks of
``BLOCK_BYTES`` characters and the rest of their last line:
``read_blocks`` yields these whole lines with the number of the first,
``parse_trace`` parses one block and ``replay`` runs its events through a
pool and a live-id map.  ``replay_file`` owns a whole replay: it opens
the file, makes the pool and runs the file so, keeping the map from block
to block.  Memory is bounded by the live ids, one block and the text
since the last ``"\n"`` or ``"\r"``, not by the length of the trace; a
line ended by a rarer break (``"\v"``, ``"\f"``, ``"\x1c"`` to
``"\x1e"``, U+0085, U+2028, U+2029) is held until the next one of those
two.

A byte that is not UTF-8 is decoded as the lone surrogate U+DC80 to U+DCFF
that stands for it (PEP 383's ``surrogateescape``), and ``parse_trace``
rejects the line that holds one, so the line of a bad byte is reported
like that of any other bad line.

Events and replay records are named tuples, so they compare equal to
plain tuples of their fields.
"""

import re
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, \
    TextIO, Tuple

from .errors import (
    AllocatorError,
    DuplicateId,
    ReplayError,
    TraceSyntaxError,
    UnknownId,
)
from .pool import Pool

ALLOC, FREE, ALLOC_HINT = "alloc", "free", "alloc_hint"

_ARITY = {ALLOC: 2, FREE: 2, ALLOC_HINT: 3}
# Maps the op of a two-token line to the constant above, so that every
# event shares one op string instead of holding the copy the split made.
_ONE_ID_OPS = {ALLOC: ALLOC, FREE: FREE}
# written out, because importing string would cost every process memory
_ID_CHARS = frozenset(
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_")
# A block that holds only id characters and ASCII whitespace has no
# comment and no bad id, so its ids need no test of their own.
_PLAIN_RE = re.compile(r"[A-Za-z0-9_\s]*", re.ASCII)
# the characters that stand for the bytes 0x80 to 0xff that are not UTF-8
_BAD_BYTE_RE = re.compile("[\udc80-\udcff]")

# characters read from a trace file at a time; read_blocks adds the rest
# of the last line
BLOCK_BYTES = 8192


class TraceEvent(NamedTuple):
    op: str
    id: str
    hint_id: Optional[str] = None
    line_no: int = 0


class ReplayRecord(NamedTuple):
    event: TraceEvent
    slot: int
    offset: int


# Builds a named tuple from all of its fields at half the cost of calling
# the class, whose __new__ is a Python function; the hot loops use it.
# Calling the classes instead made the replay_churn CLI call 10 % slower.
_make = tuple.__new__


def open_trace(path) -> TextIO:
    """Open the trace file at ``path`` for ``read_blocks``: as UTF-8 text
    whose bad bytes decode to lone surrogates, with line breaks untranslated.
    """
    return open(path, encoding="utf-8", errors="surrogateescape", newline="")


def read_blocks(fh: TextIO) -> Iterator[Tuple[int, str]]:
    r"""Read the trace file ``fh``, opened by ``open_trace``, and yield
    ``(first_line, text)``: ``text`` is ``BLOCK_BYTES`` characters and the
    rest of their last line, which ends at a ``"\n"``, ``"\r"`` or
    ``"\r\n"`` or at the end of the file, and ``first_line`` numbers its
    first line as ``str.splitlines`` would number the lines of the whole
    file.  Never raises on the content: a byte that is not UTF-8 reaches
    ``text`` as its lone surrogate, for ``parse_trace`` to report.
    """
    first_line = 1
    while text := fh.read(BLOCK_BYTES):
        text += fh.readline()
        yield first_line, text
        first_line += len(text.splitlines())


def parse_trace(text: str, first_line: int = 1) -> List[TraceEvent]:
    """Parse the lines of ``text``, numbering them from ``first_line``.

    A character U+DC80 to U+DCFF stands for the byte 0x80 to 0xff that
    ``read_blocks`` could not decode, and fails its line, a comment too.
    """
    events = []
    is_id = _ID_CHARS.issuperset
    plain = _PLAIN_RE.fullmatch(text) is not None
    for line_no, raw in enumerate(text.splitlines(), first_line):
        tokens = raw.split()
        n = len(tokens)
        if n == 2:
            op = _ONE_ID_OPS.get(tokens[0])
            if op is not None and (plain or is_id(tokens[1])):
                events.append(_make(TraceEvent, (op, tokens[1], None, line_no)))
                continue
        elif n == 3:
            if tokens[0] == ALLOC_HINT and (
                    plain or is_id(tokens[1]) and is_id(tokens[2])):
                events.append(_make(TraceEvent,
                                    (ALLOC_HINT, tokens[1], tokens[2], line_no)))
                continue
        elif not n:
            continue
        # a line that no branch took is a comment or an error
        if tokens[0][0] != "#" or _BAD_BYTE_RE.search(raw):
            raise _syntax_error(raw, line_no)
    return events


def _syntax_error(raw: str, line_no: int) -> TraceSyntaxError:
    """The error for ``raw``, line ``line_no``, which ``parse_trace``
    rejects: a byte that is not UTF-8 is reported first, then a wrong op
    or token count, then a bad id."""
    bad_byte = _BAD_BYTE_RE.search(raw)
    if bad_byte:
        return TraceSyntaxError(
            line_no, f"invalid UTF-8 byte 0x{ord(bad_byte[0]) - 0xDC00:02x}")
    tokens = raw.split()
    if _ARITY.get(tokens[0]) != len(tokens):
        return TraceSyntaxError(line_no, f"cannot parse {raw!r}")
    bad = next(token for token in tokens[1:] if not _ID_CHARS.issuperset(token))
    return TraceSyntaxError(line_no, f"bad id {bad!r}")


def format_trace(events: Sequence[TraceEvent]) -> str:
    return "".join([
        f"{ev.op} {ev.id} {ev.hint_id}\n" if ev.op == ALLOC_HINT
        else f"{ev.op} {ev.id}\n"
        for ev in events])


def replay(events: Sequence[TraceEvent], pool: Pool,
           live: Dict[str, int]) -> List[ReplayRecord]:
    """Run parsed events through ``pool``, one record per allocation.

    ``live`` maps each live id to its offset; it is updated in place, so
    the events of a trace can be replayed in pieces through one pool and
    one map.  Id liveness is checked here, not at parse time; allocator
    failures surface as ReplayError carrying the trace line.
    """
    records = []
    for ev in events:
        op, id_, hint_id, line_no = ev
        try:
            if op == FREE:
                offset = live.pop(id_, None)
                if offset is None:
                    raise UnknownId(line_no, f"free of unknown id {id_!r}")
                pool.release(offset)
                continue
            if id_ in live:
                raise DuplicateId(line_no, f"alloc of live id {id_!r}")
            if op == ALLOC_HINT:
                hint = live.get(hint_id)
                if hint is None:
                    raise UnknownId(line_no, f"hint names unknown id {hint_id!r}")
                offset = pool.acquire_near(hint)
            else:
                offset = pool.acquire()
        except AllocatorError as exc:
            raise ReplayError(line_no, str(exc)) from exc
        live[id_] = offset
        records.append(_make(ReplayRecord, (ev, offset // pool.slot_size, offset)))
    return records


def replay_file(path, slot_size: int, capacity: int,
                policy_kind: str) -> Iterator[List[ReplayRecord]]:
    """Replay the trace file at ``path`` through a new ``Pool(slot_size,
    capacity, policy_kind)`` block by block and yield each block's records.
    The file is opened and the pool made before any line is read, and the
    file is closed when the replay ends, fails or is closed.  A failure is
    raised at the earliest line that fails, whether it fails to decode, to
    parse or to replay.
    """
    with open_trace(path) as fh:
        pool = Pool(slot_size, capacity, policy_kind)
        live = {}
        for first_line, block in read_blocks(fh):
            try:
                events = parse_trace(block, first_line)
            except TraceSyntaxError as exc:
                # a replay error on an earlier line of the block comes first
                good = block.splitlines(True)[:exc.line_no - first_line]
                replay(parse_trace("".join(good), first_line), pool, live)
                raise
            yield replay(events, pool, live)
