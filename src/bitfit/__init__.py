"""Fixed-size pool allocator with a hierarchical occupancy bitmap.

Allocation, free, and hint-directed allocation all run in logarithmic
time, and without a hint freed slots are always reissued in address
order, which keeps linked structures cache friendly across churn.
Baseline free-list and linear-scan policies, locality workloads, and a
trace replayer round out the toolkit.
"""

from .baselines import FreeListPolicy, LinearBitmapPolicy
from .bittree import BitTree
from .errors import (
    AllocatorError,
    DoubleFree,
    DuplicateId,
    Misaligned,
    OutOfRange,
    PoolExhausted,
    ReplayError,
    TraceError,
    TraceSyntaxError,
    UnknownId,
)
from .pool import POLICY_KINDS, Pool, make_policy
from .trace import (
    ReplayRecord,
    TraceEvent,
    format_trace,
    parse_trace,
    replay,
)
from .workload import (
    LifecycleReport,
    LocalityReport,
    run_list_lifecycle,
    run_random_churn,
)

__all__ = [
    "AllocatorError",
    "BitTree",
    "DoubleFree",
    "DuplicateId",
    "FreeListPolicy",
    "LifecycleReport",
    "LinearBitmapPolicy",
    "LocalityReport",
    "Misaligned",
    "OutOfRange",
    "POLICY_KINDS",
    "Pool",
    "PoolExhausted",
    "ReplayError",
    "ReplayRecord",
    "TraceError",
    "TraceEvent",
    "TraceSyntaxError",
    "UnknownId",
    "format_trace",
    "make_policy",
    "parse_trace",
    "replay",
    "run_list_lifecycle",
    "run_random_churn",
]

__version__ = "0.1.0"
