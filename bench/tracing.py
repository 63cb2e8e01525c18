"""Aggregated spans around calls into bitfit's layers.

The workloads make millions of microsecond-scale calls, so spans are not
kept one by one: each (name, parent) pair accumulates a call count, total
nanoseconds and self nanoseconds (total minus the time of traced calls made
inside it).  The spans are written out when the run ends.

Wrapping happens from the benchmark's side, by replacing the functions and
methods with timed wrappers.  A module that bound a function by name at
import (``bitfit.cli`` does ``from .trace import parse_trace, replay``)
keeps the original unless the name is replaced there too, so every module
of the package is searched for the original object.
"""

import sys
import time

ROOT = "<root>"


class Tracer:
    def __init__(self):
        self.stack = [[ROOT, 0]]
        self.spans = {}
        self.trees = []

    def wrap(self, name, fn):
        stack, spans, clock = self.stack, self.spans, time.perf_counter_ns

        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                parent[1] += elapsed
                rec = spans.get((name, parent[0]))
                if rec is None:
                    spans[(name, parent[0])] = [1, elapsed, elapsed - frame[1]]
                else:
                    rec[0] += 1
                    rec[1] += elapsed
                    rec[2] += elapsed - frame[1]

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__wrapped__ = fn
        return traced

    def patch(self, name, owner, attr):
        """Replace ``owner.attr`` and every bitfit module binding of it."""
        original = owner.__dict__.get(attr)
        if original is None:
            return
        wrapped = self.wrap(name, original)
        setattr(owner, attr, wrapped)
        for mod_name, module in list(sys.modules.items()):
            if mod_name == "bitfit" or mod_name.startswith("bitfit."):
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)

    def install(self):
        """Wrap every layer boundary the benchmark reports on."""
        from bitfit import baselines, bittree, cli, pool, trace, workload

        self.patch("cli.main", cli, "main")
        self.patch("trace.parse_trace", trace, "parse_trace")
        self.patch("trace.replay", trace, "replay")
        self.patch("workload.run_list_lifecycle", workload, "run_list_lifecycle")
        self.patch("workload.measure", workload, "measure")
        self.patch("pool.acquire", pool.Pool, "acquire")
        self.patch("pool.acquire_near", pool.Pool, "acquire_near")
        self.patch("pool.release", pool.Pool, "release")
        tree_cls = bittree.BitTree
        for method in ("allocate", "release", "allocate_with_hint"):
            self.patch(f"bittree.{method}", tree_cls, method)
        for cls, tag in ((baselines.LinearBitmapPolicy, "linear_bitmap"),
                         (baselines.FreeListPolicy, "freelist")):
            for method in ("allocate", "release", "allocate_with_hint"):
                self.patch(f"baselines.{tag}.{method}", cls, method)

        # keep every tree so the op_steps counters can be read afterwards
        init = self.wrap("bittree.init", tree_cls.__init__)
        trees = self.trees

        def tracked_init(tree, *args, **kwargs):
            init(tree, *args, **kwargs)
            trees.append(tree)

        tree_cls.__init__ = tracked_init

    def op_steps(self):
        return sum(getattr(tree, "op_steps", 0) for tree in self.trees)

    def take(self):
        """Return the spans recorded so far as dicts and start afresh."""
        out = [
            {"name": name, "parent": parent, "count": rec[0],
             "total_ns": rec[1], "self_ns": rec[2]}
            for (name, parent), rec in sorted(self.spans.items())
        ]
        self.spans.clear()
        return out


def wrapper_cost_ns(calls=200_000):
    """Per-call cost a traced wrapper adds to an empty function."""
    def empty():
        return None

    traced = Tracer().wrap("empty", empty)
    clock = time.perf_counter_ns
    costs = []
    for _ in range(5):
        start = clock()
        for _ in range(calls):
            empty()
        bare = clock() - start
        start = clock()
        for _ in range(calls):
            traced()
        costs.append((clock() - start - bare) / calls)
    costs.sort()
    return costs[len(costs) // 2]
