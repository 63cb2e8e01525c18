"""The benchmark's own tests, at smoke size.

    python3 -m pytest -q bench/test_bench.py
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import reference
import streams

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "tests"))
from oracles import greedy_hint_reference, leftmost_free  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# per-layer call counts that must be nonzero where the layer runs
CALLED = {
    "replay_churn": ("bittree.allocate.calls", "bittree.release.calls",
                     "pool.calls", "trace.parse.ns_per_event",
                     "trace.replay.self_ns_per_event", "cli.self.s"),
    "tail_churn": ("bittree.allocate.calls", "bittree.release.calls",
                   "bittree.allocate_with_hint.calls", "pool.calls"),
    "lifecycle": ("bittree.allocate.calls", "bittree.release.calls",
                  "pool.calls", "cli.self.s", "workload.lifecycle.self.s",
                  "workload.measure.s"),
}


@pytest.mark.parametrize("n_leaves", [1, 2, 8, 16, 64])
def test_free_slots_match_the_oracles(n_leaves):
    rng = random.Random(n_leaves)
    for _ in range(300):
        leaves = [rng.random() < 0.8 for _ in range(n_leaves)]
        if all(leaves):
            continue
        slots = reference.FreeSlots(n_leaves)
        slots.neg = sorted(-s for s, used in enumerate(leaves) if not used)
        hint = rng.randrange(n_leaves)
        assert slots.alloc_hint(hint) == greedy_hint_reference(leaves, hint)
        slots.neg = sorted(-s for s, used in enumerate(leaves) if not used)
        assert slots.alloc() == leftmost_free(leaves)


def test_streams_depend_only_on_the_seed():
    a, b = streams.churn(50, 500, 7, 0.5), streams.churn(50, 500, 7, 0.5)
    assert (a.ops, a.ids, a.hints) == (b.ops, b.ids, b.hints)
    assert streams.churn(50, 500, 8, 0.5).hints != a.hints


def bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_is_correct_and_complete(workload):
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        proc = bench(workload, trace)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in SPEC[group]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == want
        if trace:
            for name in CALLED[workload]:
                assert result["metrics"][name]["value"] > 0, name
        else:
            assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("lifecycle", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
