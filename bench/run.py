"""bitfit benchmark: three closed-loop workloads on the bitmap policy.

    python3 bench/run.py --workload replay_churn --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  ``--smoke`` shrinks every workload for the
benchmark's own tests.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the full record
with its provenance goes to ``.bench_out/results/``.  bench/README.md
describes the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference
import streams

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SLOT_SIZE = 32
FILL = 0.7
HINT_FRAC = 0.5
# every run must end within 180 s; no child may run past this
BUDGET_S = 150.0

# workload -> (full size, smoke size).  ``unit`` is the number of churn
# events timed as one unit on tail_churn; op_ns is read from the calls of
# the fastest units that add up to ``op_calls`` at the least.
SIZES = {
    "replay_churn": ({"slots": 1 << 11, "ops": 3_125, "op_calls": 8_000},
                     {"slots": 1 << 8, "ops": 400, "op_calls": 500}),
    "tail_churn": ({"slots": 1 << 20, "ops": 200_000, "unit": 1_000,
                    "op_calls": 8_000},
                   {"slots": 1 << 12, "ops": 4_000, "unit": 250,
                    "op_calls": 500}),
    "lifecycle": ({"slots": 1 << 12, "op_calls": 8_000},
                  {"slots": 1 << 8, "op_calls": 500}),
}
POLICIES = ("bitmap", "linear_bitmap", "freelist_lifo")


class Run:
    """Inputs, reference and tallies of one benchmark run."""

    def __init__(self, workload, size, seed, seconds, work):
        n = size["slots"]
        pin = n - n // 20 if workload == "tail_churn" else 0
        if workload == "lifecycle":
            stream = streams.lifecycle(n, seed)
        else:
            # tail_churn drains its window, so one pinned pool serves
            # every pass of the stream
            stream = streams.churn(round(FILL * (n - pin)), size["ops"], seed,
                                   HINT_FRAC if pin else 0.0, drain=bool(pin))
        self.workload, self.stream, self.work = workload, stream, work
        self.expected = reference.expected_offsets(stream, n, pin, SLOT_SIZE)
        stream.save(work)
        with open(work / "expected.bin", "wb") as fh:
            self.expected.tofile(fh)

        if pin:
            # the steady churn, in units of ``unit`` events; the fill before
            # it and the drain after it run untimed
            fill = round(FILL * (n - pin))
            units = [(lo, lo + size["unit"]) for lo in
                     range(fill, fill + size["ops"] - size["unit"] + 1,
                           size["unit"])]
        else:
            units = [(0, len(stream))]
        common = ["--allocator", "bitmap", "--slots", str(n),
                  "--slot-size", str(SLOT_SIZE)]
        self.spec = {"workload": workload, "src": str(SRC), "slots": n,
                     "slot_size": SLOT_SIZE, "pin": pin,
                     "rounds": 3 if pin else 25, "seconds": seconds,
                     "units": units, "op_calls": size["op_calls"],
                     "cli_argv": None, "contrast_argv": None}
        self.cli_expected = None
        if workload == "replay_churn":
            trace = work / "churn.trace"
            trace.write_text(streams.format_trace(stream))
            self.spec["cli_argv"] = ["replay", *common, "--format", "csv",
                                     "--trace", str(trace)]
            self.cli_expected = reference.replay_csv(
                stream, self.expected, SLOT_SIZE)
            (work / "expected.txt").write_text(
                "\n".join(self.cli_expected) + "\n")
        elif workload == "lifecycle":
            argv = ["bench", "--workload", "lifecycle", *common,
                    "--format", "json", "--seed", str(seed)]
            self.spec["cli_argv"] = argv
            self.spec["contrast_argv"] = [
                "freelist-lifo" if a == "bitmap" else a for a in argv]
            self.cli_expected = reference.lifecycle_report(
                stream, self.expected, SLOT_SIZE)
        (work / "spec.json").write_text(json.dumps(self.spec))

        self.attempted = 0
        self.failed = 0
        self.child_failures = 0
        self.wrong_of_output = {0: 0}

    # -- correctness ---------------------------------------------------

    def cli_failures(self, text):
        """Events of one CLI output whose result differs from the reference."""
        events = len(self.stream)
        if text.startswith("exit status"):
            return events
        if self.workload == "replay_churn":
            # one row per allocation; a wrong or missing row fails its event
            rows = text.splitlines()
            wrong = sum(a != b for a, b in zip(rows, self.cli_expected))
            return wrong + abs(len(rows) - len(self.cli_expected))
        try:
            report = json.loads(text)["reports"][0]
        except (ValueError, KeyError, IndexError):
            return events
        nodes = events // 3
        wrong = 0
        if report.get("first_traversal") != self.cli_expected["first_traversal"]:
            wrong += nodes
        if report.get("second_traversal") != self.cli_expected["second_traversal"]:
            wrong += 2 * nodes
        return wrong

    def check(self, tag, out):
        """Tally every event of one child's output.  Returns the correct
        events/s of each timed CLI call."""
        events = len(self.stream)
        self.attempted += self.spec["pin"] * len(out["setup_s"])
        self.failed += out["pin_wrong"]
        drive = out.get("drive")
        if drive:
            self.attempted += drive["passes"] * events
            self.failed += drive["failed"]
        rates = []
        if self.spec["cli_argv"]:
            calls = out["cli_calls"] + [(None, out["warmup_out"])]
            for elapsed, k in calls:
                if k not in self.wrong_of_output:
                    text = (self.work / f"{tag}.out-{k}.txt").read_text()
                    self.wrong_of_output[k] = self.cli_failures(text)
                wrong = self.wrong_of_output[k]
                self.attempted += events
                self.failed += wrong
                if elapsed is not None:
                    rates.append((events - wrong) / elapsed)
        return rates

    def launch(self, tag, mode, *extra, deadline):
        """Run one child to completion; None when it failed."""
        timeout = deadline - time.monotonic()
        cmd = [sys.executable, str(BENCH / "child.py"), str(self.work), tag,
               mode, *extra]
        env = dict(os.environ, PYTHONHASHSEED="0")
        try:
            proc = subprocess.run(cmd, env=env, timeout=timeout,
                                  stdout=subprocess.DEVNULL)
        except subprocess.TimeoutExpired:
            proc = None
        if proc is None or proc.returncode != 0:
            self.child_failures += 1
            self.attempted += len(self.stream)
            self.failed += len(self.stream)
            return None
        return json.loads((self.work / f"{tag}.json").read_text())


def end_to_end(run, deadline):
    """One untraced child; the run's end-to-end metrics."""
    out = run.launch("run", "run", deadline=deadline)
    if out is None:
        return None, {}
    rates = run.check("run", out)
    drive = out["drive"]
    # The host's speed moves between levels up to 1.8x apart, in stretches
    # of seconds to minutes; other tenants only ever slow a unit of work
    # down.  Each timing is therefore read from the fastest whole units of
    # identical work: a CLI call, a call-by-call pass, or on tail_churn a
    # run of ``unit`` consecutive churn calls.
    metrics = {
        "setup_s": (statistics.median(out["setup_s"]), "s"),
        "events_per_s": (max(rates) if rates
                         else drive["fastest_unit_events_per_s"], "events/s"),
        "op_ns.p50": (drive["op_ns_p50"], "ns"),
        "op_ns.p99": (drive["op_ns_p99"], "ns"),
        "peak_rss_mb": (out["peak_rss_mb"], "MiB"),
    }
    unit_rates = [e * 1e9 / ns for e, ns in
                  zip(drive["unit_events"] * drive["passes"], drive["unit_ns"])]
    detail = {"setup_s_samples": out["setup_s"],
              "cli_events_per_s_samples": rates,
              "median_cli_events_per_s": statistics.median(rates) if rates else None,
              "unit_events": drive["unit_events"][0],
              "unit_events_per_s_samples": unit_rates,
              "median_unit_events_per_s": statistics.median(unit_rates),
              "op_ns_units": drive["op_units"],
              "op_ns_samples": drive["op_samples"],
              "drive_passes": drive["passes"],
              "drive_measured_s": drive["measured_s"]}
    return metrics, detail


def span_totals(spans, name):
    """(calls, total ns, self ns) of one span name over all its parents."""
    calls = total = own = 0
    for span in spans:
        if span["name"] == name:
            calls += span["count"]
            total += span["total_ns"]
            own += span["self_ns"]
    return calls, total, own


def per_layer(run, deadline):
    """An untraced and a traced child, each running one unit of work, and
    one child per policy."""
    plain = run.launch("plain", "once", deadline=deadline)
    traced = run.launch("traced", "traced", deadline=deadline)
    if plain is None or traced is None:
        return None, {}
    run.check("plain", plain)
    run.check("traced", traced)
    events = len(run.stream)
    plain_rate = events / plain["measured_s"]
    traced_rate = events / traced["measured_s"]
    policies = {}
    for kind in POLICIES:
        out = run.launch(f"policy-{kind}", "policy", kind, deadline=deadline)
        if out is None:
            return None, {}
        policies[kind] = out

    spans = traced["spans"]
    metrics = {}
    ops = 0
    for method in ("allocate", "release", "allocate_with_hint"):
        calls, total, _ = span_totals(spans, f"bittree.{method}")
        ops += calls
        metrics[f"bittree.{method}.ns"] = (total / calls if calls else 0.0, "ns")
        metrics[f"bittree.{method}.calls"] = (calls, "count")
    metrics["bittree.steps_per_op"] = (
        traced["op_steps"] / ops if ops else 0.0, "steps")
    calls, total, _ = span_totals(traced["setup_spans"] + spans, "bittree.init")
    metrics["bittree.init.s"] = (total / calls / 1e9 if calls else 0.0, "s")
    metrics["bittree.ns_per_event"] = (policies["bitmap"]["ns_per_event"], "ns")

    pool_calls = pool_self = 0
    for method in ("acquire", "acquire_near", "release"):
        calls, _, own = span_totals(spans, f"pool.{method}")
        pool_calls += calls
        pool_self += own
    metrics["pool.self.ns"] = (pool_self / pool_calls if pool_calls else 0.0, "ns")
    metrics["pool.calls"] = (pool_calls, "count")

    _, parse_ns, _ = span_totals(spans, "trace.parse_trace")
    _, _, replay_self = span_totals(spans, "trace.replay")
    metrics["trace.parse.ns_per_event"] = (parse_ns / events, "ns")
    metrics["trace.replay.self_ns_per_event"] = (replay_self / events, "ns")
    metrics["cli.self.s"] = (span_totals(spans, "cli.main")[2] / 1e9, "s")
    metrics["workload.lifecycle.self.s"] = (
        span_totals(spans, "workload.run_list_lifecycle")[2] / 1e9, "s")
    metrics["workload.measure.s"] = (
        span_totals(spans, "workload.measure")[1] / 1e9, "s")

    for kind in ("linear_bitmap", "freelist_lifo"):
        metrics[f"baselines.{kind}.ns_per_event"] = (
            policies[kind]["ns_per_event"], "ns")
    metrics["baselines.freelist_lifo.rebuild_seq_frac"] = (
        policies["freelist_lifo"].get("rebuild_seq_frac", 0.0), "ratio")
    metrics["tracing.overhead"] = (traced_rate / plain_rate, "ratio")
    metrics["tracing.wrapper_ns"] = (traced["wrapper_ns"], "ns")

    detail = {
        "tracing.overhead": {"traced_events_per_s": traced_rate,
                             "untraced_events_per_s": plain_rate},
        "bittree.steps_per_op": {"op_steps": traced["op_steps"], "ops": ops},
        "spans": spans, "setup_spans": traced["setup_spans"],
        "policies": policies,
    }
    return metrics, detail


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def source_digest():
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(args, run):
    return {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "run_seconds": args.seconds, "smoke": args.smoke,
        "commit": git_commit(), "source_sha256": source_digest(),
        "python": platform.python_version(),
        "machine": platform.machine(), "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "slots": run.spec["slots"], "pinned_slots": run.spec["pin"],
        "slot_size": SLOT_SIZE, "events": len(run.stream),
        "policy": "bitmap",
        "time": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SIZES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run the small size used by the benchmark's tests")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    deadline = time.monotonic() + BUDGET_S
    if not (SRC / "bitfit" / "__init__.py").is_file():
        print(f"error: no bitfit source under {SRC}", file=sys.stderr)
        return 2

    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        run = Run(args.workload, SIZES[args.workload][args.smoke], args.seed,
                  args.seconds, work)
        if args.trace:
            metrics, detail = per_layer(run, deadline)
        else:
            metrics, detail = end_to_end(run, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if metrics is None:
        print("error: no sample completed", file=sys.stderr)
        return 1

    record = {
        "provenance": provenance(args, run),
        "correct": run.failed == 0 and run.child_failures == 0,
        "attempted": run.attempted, "failed": run.failed,
        "fail_frac": run.failed / run.attempted,
        "child_failures": run.child_failures,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "detail": detail,
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json"
    (results / name).write_text(json.dumps(record, indent=1))

    for key, (value, unit) in metrics.items():
        print(f"{key:44s} {value:>16.6g} {unit}")
    print(f"fail_frac {record['fail_frac']} of {run.attempted} events; "
          f"record: {(results / name).relative_to(ROOT)}")
    print(json.dumps({key: record[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
