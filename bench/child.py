"""The measured part of one benchmark run, in a fresh interpreter.

    python3 bench/child.py WORKDIR TAG MODE [POLICY]

``run.py`` starts this once per run (three times for a traced run), so
the measured process imports bitfit from the checkout's ``src/`` and its
peak memory is its own.  Inputs come from WORKDIR/spec.json and the stream
files ``run.py`` wrote there; the result goes to WORKDIR/TAG.json and any
CLI output that differs from the expected one to WORKDIR/TAG.out-K.txt.

MODE ``run`` takes the end-to-end measurement: ``rounds`` set-ups, each
followed by CLI calls and call-by-call passes.  MODE
``once`` runs one set-up and one measured unit of work (one CLI call, or
one call-by-call pass) for the per-layer run; ``traced`` does the same with
spans on.  MODE ``policy`` drives the stream straight through
``make_policy(POLICY)`` for the baseline rows.
"""

import contextlib
import io
import json
import math
import resource
import sys
import time
from array import array
from pathlib import Path

from streams import ALLOC, FREE, Stream
from tracing import Tracer, wrapper_cost_ns

def peak_rss_mb():
    """Peak resident memory of this process image.

    ``ru_maxrss`` would do, but Linux carries it across fork and exec, so a
    child started by a large parent reports the parent's peak.  ``VmHWM``
    belongs to the image alone.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def read_array(path):
    arr = array("q")
    with open(path, "rb") as fh:
        arr.fromfile(fh, path.stat().st_size // arr.itemsize)
    return arr


def percentile(ordered, q):
    """Nearest-rank percentile of an already sorted sequence."""
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def setup(bitfit, spec):
    """Build the pool and pin its bottom ``pin`` slots.

    Returns the pool, the seconds it took and how many pinning acquires
    came back at another offset than the bottom-up one.
    """
    start = time.perf_counter()
    pool = bitfit.Pool(spec["slot_size"], spec["slots"], "bitmap")
    acquire = pool.acquire
    offsets = [acquire() for _ in range(spec["pin"])]
    seconds = time.perf_counter() - start
    wrong = sum(off != i * spec["slot_size"] for i, off in enumerate(offsets))
    return pool, seconds, wrong


def run_cli(bitfit, argv):
    sink = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(sink):
        rc = bitfit.cli.main(argv)
    return rc, sink.getvalue(), time.perf_counter() - start


class Outputs:
    """Distinct CLI outputs of a run.  0 is the expected text, where
    ``run.py`` wrote one to WORKDIR/expected.txt; every other output is
    written once to WORKDIR/TAG.out-K.txt for ``run.py`` to check."""

    def __init__(self, work, tag):
        self.work, self.tag = work, tag
        path = work / "expected.txt"
        self.index = {path.read_text(): 0} if path.exists() else {None: 0}

    def add(self, rc, text):
        key = text if rc == 0 else f"exit status {rc}\n{text}"
        if key not in self.index:
            self.index[key] = len(self.index)
            (self.work / f"{self.tag}.out-{self.index[key]}.txt").write_text(key)
        return self.index[key]


def drive(pool, stream, units):
    """One pass of the stream, call by call through ``pool``.

    Returns the offset of every event (-1 for a free, -2 when the event
    raised), the ns of every call, and the ns of every unit: a ``(lo, hi)``
    range of events timed as a whole.
    """
    n = len(stream)
    got = array("q", bytes(8 * n))
    lat = array("q", bytes(8 * n))
    live = {}
    acquire, near, release = pool.acquire, pool.acquire_near, pool.release
    ops, ids, hints = stream.ops, stream.ids, stream.hints
    clock = time.perf_counter_ns
    # every event runs; only the events of a unit are timed as a whole
    segments = []
    pos = 0
    for lo, hi in units:
        segments += [(pos, lo, False), (lo, hi, True)]
        pos = hi
    segments.append((pos, n, False))
    unit_ns = []
    for first, last, timed in segments:
        start = clock()
        for i in range(first, last):
            op = ops[i]
            try:
                if op == FREE:
                    off = live.pop(ids[i])
                    t0 = clock()
                    release(off)
                    t1 = clock()
                    off = -1
                elif op == ALLOC:
                    t0 = clock()
                    off = acquire()
                    t1 = clock()
                    live[ids[i]] = off
                else:
                    near_to = live[hints[i]]
                    t0 = clock()
                    off = near(near_to)
                    t1 = clock()
                    live[ids[i]] = off
            except Exception:  # any raise fails this event
                got[i] = -2
                continue
            got[i] = off
            lat[i] = t1 - t0
        if timed:
            unit_ns.append(clock() - start)
    return got, lat, unit_ns


def wrong_in(got, expected, lo, hi):
    return sum(g != e for g, e in zip(got[lo:hi], expected[lo:hi]))


class Passes:
    """Call-by-call passes of the stream, and the fastest units of them."""

    def __init__(self, spec, work):
        self.stream = Stream.load(work)
        self.expected = read_array(work / "expected.bin")
        self.units = [tuple(u) for u in spec["units"]]
        self.keep = math.ceil(spec["op_calls"] / (self.units[0][1] - self.units[0][0]))
        self.fastest = []  # (ns, correct events, call ns of the unit)
        self.unit_ns = []
        self.passes = self.failed = 0
        self.measured_ns = 0

    def run(self, pool):
        got, lat, unit_ns = drive(pool, self.stream, self.units)
        self.passes += 1
        self.measured_ns += sum(unit_ns)
        self.unit_ns.extend(unit_ns)
        exact = got == self.expected
        if not exact:
            self.failed += wrong_in(got, self.expected, 0, len(got))
        for (lo, hi), ns in zip(self.units, unit_ns):
            ok = hi - lo if exact else hi - lo - wrong_in(got, self.expected, lo, hi)
            self.fastest.append((ns, ok, lat[lo:hi]))
        self.fastest.sort(key=lambda unit: unit[0])
        del self.fastest[self.keep:]

    def result(self):
        ns, ok, _ = self.fastest[0]
        calls = sorted(t for unit in self.fastest for t in unit[2])
        return {
            "passes": self.passes, "events_per_pass": len(self.stream),
            "failed": self.failed, "unit_ns": self.unit_ns,
            "unit_events": [hi - lo for lo, hi in self.units],
            "measured_s": self.measured_ns / 1e9,
            "fastest_unit_events_per_s": ok * 1e9 / ns,
            "op_units": len(self.fastest), "op_samples": len(calls),
            "op_ns_p50": percentile(calls, 0.50),
            "op_ns_p99": percentile(calls, 0.99),
        }


def pass_pool(bitfit, spec, pool):
    """The pool a pass runs on: the pinned pool, which the tail_churn stream
    leaves as it found it, or else a fresh one, built untimed."""
    if spec["pin"]:
        return pool
    return bitfit.Pool(spec["slot_size"], spec["slots"], "bitmap")


def run_end_to_end(bitfit, spec, work, tag):
    """``rounds`` rounds of one set-up followed by an even share of the
    ``seconds``, in which CLI calls and call-by-call passes alternate.
    Spreading every kind of sample over the whole run lets each see the
    same mix of host speeds."""
    out = {"setup_s": [], "pin_wrong": 0, "cli_calls": []}
    outputs = Outputs(work, tag) if spec["cli_argv"] else None
    if outputs:
        rc, text, _ = run_cli(bitfit, spec["cli_argv"])  # warm-up, not timed
        out["warmup_out"] = outputs.add(rc, text)
    passes = Passes(spec, work)
    share = spec["seconds"] / spec["rounds"]
    pool = None
    for _ in range(spec["rounds"]):
        pool = None  # let the previous pool go before building the next
        pool, seconds, wrong = setup(bitfit, spec)
        out["setup_s"].append(seconds)
        out["pin_wrong"] += wrong
        stop = time.perf_counter() + share
        while True:
            if outputs:
                rc, text, elapsed = run_cli(bitfit, spec["cli_argv"])
                out["cli_calls"].append((elapsed, outputs.add(rc, text)))
            passes.run(pass_pool(bitfit, spec, pool))
            if time.perf_counter() >= stop:
                break
    out["drive"] = passes.result()
    out["peak_rss_mb"] = peak_rss_mb()
    return out


def run_once(bitfit, spec, work, tag, traced):
    """One set-up and one measured unit of work (one CLI call after an
    untimed warm-up call, or one call-by-call pass), optionally traced."""
    tracer = None
    if traced:
        tracer = Tracer()
        tracer.install()
    pool, seconds, wrong = setup(bitfit, spec)
    out = {"setup_s": [seconds], "pin_wrong": wrong}
    if tracer:
        out["setup_spans"] = tracer.take()
    if spec["cli_argv"]:
        outputs = Outputs(work, tag)
        rc, text, _ = run_cli(bitfit, spec["cli_argv"])  # warm-up, not timed
        out["warmup_out"] = outputs.add(rc, text)
    if tracer:
        tracer.take()
        steps_before = tracer.op_steps()
    if spec["cli_argv"]:
        rc, text, elapsed = run_cli(bitfit, spec["cli_argv"])
        out["cli_calls"] = [(elapsed, outputs.add(rc, text))]
        out["measured_s"] = elapsed
    else:
        passes = Passes(spec, work)
        start = time.perf_counter()
        passes.run(pool)
        out["measured_s"] = time.perf_counter() - start
        out["drive"] = passes.result()
    if tracer:
        out["spans"] = tracer.take()
        out["op_steps"] = tracer.op_steps() - steps_before
        out["wrapper_ns"] = wrapper_cost_ns()
    return out


def run_policy(bitfit, spec, work, kind):
    """The stream straight through one policy: the baseline rows."""
    stream = Stream.load(work)
    policy = bitfit.make_policy(kind, spec["slots"])
    count = spec["pin"]
    leaf_bits = getattr(policy, "leaf_bits", None)
    if count and isinstance(leaf_bits, bytearray):
        # a first-fit scan pins n slots in O(n^2) time; set its bytes instead
        leaf_bits[:count] = b"\x01" * count
        policy.free_count -= count
    else:
        for _ in range(count):
            policy.allocate()

    live = {}
    allocate, hinted, release = (
        policy.allocate, policy.allocate_with_hint, policy.release)
    start = time.perf_counter()
    for op, ident, hint in zip(stream.ops, stream.ids, stream.hints):
        if op == FREE:
            release(live.pop(ident))
        elif op == ALLOC:
            live[ident] = allocate()
        else:
            live[ident] = hinted(live[hint])
    out = {"ns_per_event": (time.perf_counter() - start) * 1e9 / len(stream)}

    if spec["contrast_argv"] and kind == "freelist_lifo":
        rc, text, _ = run_cli(bitfit, spec["contrast_argv"])
        if rc != 0:
            sys.exit(f"error: the freelist_lifo lifecycle run exited {rc}")
        report = json.loads(text)["reports"][0]
        out["rebuild_seq_frac"] = report["second_traversal"]["sequential_fraction"]
    return out


def main():
    work, tag, mode = Path(sys.argv[1]), sys.argv[2], sys.argv[3]
    spec = json.loads((work / "spec.json").read_text())
    sys.path.insert(0, spec["src"])
    import bitfit
    import bitfit.cli

    if not Path(bitfit.__file__).resolve().is_relative_to(spec["src"]):
        sys.exit(f"error: imported bitfit from {bitfit.__file__}, not {spec['src']}")
    if mode == "policy":
        out = run_policy(bitfit, spec, work, sys.argv[4])
    elif mode == "run":
        out = run_end_to_end(bitfit, spec, work, tag)
    else:
        out = run_once(bitfit, spec, work, tag, mode == "traced")
    (work / f"{tag}.json").write_text(json.dumps(out))


if __name__ == "__main__":
    main()
