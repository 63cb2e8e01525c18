"""Seeded event streams for the benchmark's workloads.

A stream is three parallel arrays: the operation of each event, the id it
allocates or frees, and, for a hinted allocation, the live id whose offset
is the hint (-1 otherwise).  The streams are generated here rather than by
bitfit's own generators, so the inputs stay fixed while the program under
test changes.  The same seed always gives the same stream.
"""

import random
from array import array

ALLOC, FREE, ALLOC_HINT = 0, 1, 2
OP_NAMES = ("alloc", "free", "alloc_hint")
FILES = ("ops", "ids", "hints")


class Stream:
    def __init__(self):
        self.ops = array("b")
        self.ids = array("q")
        self.hints = array("q")

    def __len__(self):
        return len(self.ops)

    def add(self, op, ident, hint=-1):
        self.ops.append(op)
        self.ids.append(ident)
        self.hints.append(hint)

    def save(self, directory):
        for name in FILES:
            with open(directory / f"{name}.bin", "wb") as fh:
                getattr(self, name).tofile(fh)

    @classmethod
    def load(cls, directory):
        stream = cls()
        for name in FILES:
            path = directory / f"{name}.bin"
            arr = getattr(stream, name)
            with open(path, "rb") as fh:
                arr.fromfile(fh, path.stat().st_size // arr.itemsize)
        return stream


def churn(target, ops, seed, hint_frac=0.0, drain=False):
    """Fill to ``target`` live ids, then ``ops`` steps around that level.

    Each step allocates while fewer than ``target`` ids are live and
    otherwise frees a uniformly random live id.  An allocation is hinted
    toward a uniformly random live id with probability ``hint_frac``.
    With ``drain`` the stream ends by freeing every live id, so the pool
    ends in the state it started from and the stream can run again.
    """
    rng = random.Random(seed)
    stream = Stream()
    live = []

    def alloc():
        ident = len(stream)
        if live and hint_frac and rng.random() < hint_frac:
            stream.add(ALLOC_HINT, ident, live[rng.randrange(len(live))])
        else:
            stream.add(ALLOC, ident)
        live.append(ident)

    for _ in range(target):
        alloc()
    for _ in range(ops):
        if len(live) < target:
            alloc()
        else:
            victim = rng.randrange(len(live))
            live[victim], live[-1] = live[-1], live[victim]
            stream.add(FREE, live.pop())
    if drain:
        for ident in sorted(live):
            stream.add(FREE, ident)
    return stream


def lifecycle(nodes, seed):
    """The paper's list lifecycle: fill, free in value order, refill.

    Node values are drawn as bitfit's lifecycle draws them (one
    ``randint(0, 100)`` per node from ``random.Random(seed)``) and the free
    order is a stable sort by value, so the stream is the one the
    ``bitfit bench --workload lifecycle`` run performs.
    """
    rng = random.Random(seed)
    values = [rng.randint(0, 100) for _ in range(nodes)]
    stream = Stream()
    for ident in range(nodes):
        stream.add(ALLOC, ident)
    for ident in sorted(range(nodes), key=values.__getitem__):
        stream.add(FREE, ident)
    for ident in range(nodes, 2 * nodes):
        stream.add(ALLOC, ident)
    return stream


def format_trace(stream):
    """The stream in bitfit's text trace grammar, one event per line."""
    lines = []
    for op, ident, hint in zip(stream.ops, stream.ids, stream.hints):
        if op == ALLOC_HINT:
            lines.append(f"alloc_hint c{ident} c{hint}")
        else:
            lines.append(f"{OP_NAMES[op]} c{ident}")
    return "\n".join(lines) + "\n"
