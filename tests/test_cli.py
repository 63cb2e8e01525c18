import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
import tracemalloc
import types
from pathlib import Path
from unittest import mock

import jsonschema
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bitfit
from bitfit import cli, pool, trace, workload
from bitfit.cli import LOCALITY_FIELDS, REPORT_SCHEMA, main
from oracles import churn_trace, replay_csv_reference


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBench:
    def test_bitmap_lifecycle_recovers_order(self, capsys):
        code, out, _ = run_cli(
            capsys, "bench", "--workload", "lifecycle", "--allocator", "bitmap",
            "--slots", "2000", "--slot-size", "32", "--seed", "1",
            "--format", "json")
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, REPORT_SCHEMA)
        report = payload["reports"][0]
        assert report["second_traversal"]["sequential_fraction"] == 1.0

    def test_lifo_lifecycle_degrades(self, capsys):
        code, out, _ = run_cli(
            capsys, "bench", "--allocator", "freelist-lifo", "--slots", "10000",
            "--slot-size", "32", "--seed", "1", "--format", "json")
        assert code == 0
        report = json.loads(out)["reports"][0]
        assert report["second_traversal"]["sequential_fraction"] < 0.05

    def test_locality_reports_serialize_all_fields(self, capsys):
        _, out, _ = run_cli(capsys, "bench", "--slots", "64", "--format", "json")
        report = json.loads(out)["reports"][0]
        for traversal in ("first_traversal", "second_traversal"):
            assert set(report[traversal]) == set(LOCALITY_FIELDS)

    def test_churn_workload(self, capsys):
        code, out, _ = run_cli(
            capsys, "bench", "--workload", "churn", "--slots", "256",
            "--fill", "0.7", "--ops", "500", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, REPORT_SCHEMA)
        assert payload["reports"][0]["kind"] == "churn"

    def test_zero_slots_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "bench", "--slots", "0")
        assert code == 2
        assert "usage" in err or "slots" in err

    def test_negative_ops_is_usage_error(self, capsys):
        code, out, err = run_cli(
            capsys, "bench", "--workload", "churn", "--ops", "-1")
        assert code == 2
        assert "--ops" in err and out == ""

    def test_bad_allocator_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "bench", "--allocator", "slab")
        assert code == 2

    def test_csv_format(self, capsys):
        _, out, _ = run_cli(capsys, "bench", "--slots", "64", "--format", "csv")
        lines = out.strip().splitlines()
        assert lines[0] == ("report,sequential_fraction,distinct_lines,"
                            "mean_abs_gap,traversal_len")
        assert len(lines) == 3

    def test_text_format_mentions_both_traversals(self, capsys):
        _, out, _ = run_cli(capsys, "bench", "--slots", "64")
        assert "first_traversal" in out and "second_traversal" in out

    def test_lifecycle_layers_are_called_through_module_globals(
            self, capsys, monkeypatch):
        # bench/tracing.py times these layers by replacing the names in
        # bitfit.cli and bitfit.workload, and a stand-in for the free order
        # is put there too; a call that bypassed them would go unseen
        assert cli.run_list_lifecycle is workload.run_list_lifecycle
        calls = []
        for module, name in ((cli, "run_list_lifecycle"),
                             (workload, "lifecycle_free_order"),
                             (workload, "measure")):
            def spy(*args, _name=name, _fn=getattr(module, name), **kwargs):
                calls.append(_name)
                return _fn(*args, **kwargs)
            monkeypatch.setattr(module, name, spy)
        code, _, _ = run_cli(capsys, "bench", "--slots", "8")
        assert code == 0
        assert calls == ["run_list_lifecycle", "lifecycle_free_order",
                         "measure", "measure"]

    @pytest.mark.parametrize("workload_name, runner",
                             [("lifecycle", "run_list_lifecycle"),
                              ("churn", "run_random_churn")])
    def test_workload_too_large_for_memory_exits_one(
            self, capsys, monkeypatch, workload_name, runner):
        def run(*args):
            raise MemoryError

        monkeypatch.setattr(cli, runner, run)
        code, out, err = run_cli(capsys, "bench", "--workload", workload_name,
                                 "--slots", "4000000", "--format", "csv")
        assert code == 1
        assert out == ""
        assert err == (f"error: the {workload_name} workload at 4000000 "
                       "slots does not fit in memory\n")


class TestReplay:
    def write_trace(self, tmp_path, text):
        path = tmp_path / "trace.txt"
        path.write_text(text)
        return str(path)

    def test_records_stream(self, capsys, tmp_path):
        path = self.write_trace(tmp_path, "alloc a\nalloc b\nfree a\nalloc c\n")
        code, out, _ = run_cli(
            capsys, "replay", "--trace", path, "--slots", "8",
            "--slot-size", "16", "--format", "csv")
        assert code == 0
        assert out == "line,op,id,slot,offset\n1,alloc,a,0,0\n2,alloc,b,1,16\n4,alloc,c,0,0\n"

    def test_double_free_exits_one_with_line(self, capsys, tmp_path):
        # the first free drops the id from the live map, so a replay
        # reports the second as an unknown id before any DoubleFree can arise
        path = self.write_trace(tmp_path, "alloc a\nfree a\nfree a\n")
        assert run_cli(capsys, "replay", "--trace", path, "--slots", "8") == (
            1, "", "error: line 3: free of unknown id 'a'\n")

    @pytest.mark.parametrize("allocator", cli.ALLOCATOR_CHOICES)
    @pytest.mark.parametrize("text, slots, error", [
        ("alloc a\nalloc a\n", "8", "line 2: alloc of live id 'a'"),
        ("alloc_hint a b\n", "8", "line 1: hint names unknown id 'b'"),
        ("alloc a\nalloc b\n", "1", "line 2: all slots are in use"),
    ], ids=["live-id", "unknown-hint", "exhausted"])
    def test_fault_exits_one_with_its_line(self, capsys, tmp_path, allocator,
                                           text, slots, error):
        path = self.write_trace(tmp_path, text)
        assert run_cli(capsys, "replay", "--trace", path, "--slots", slots,
                       "--allocator", allocator) == (1, "", f"error: {error}\n")

    def test_non_utf8_trace_names_line(self, capsys, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_bytes(b"alloc a\nalloc b\xff\n")
        code, out, err = run_cli(capsys, "replay", "--trace", str(path))
        assert code == 1
        assert out == ""
        assert err == "error: line 2: invalid UTF-8 byte 0xff\n"

    def test_missing_file_exits_one(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "replay", "--trace", str(tmp_path / "nope.txt"))
        assert code == 1
        assert err

    def test_missing_file_is_reported_before_the_pool(self, capsys, tmp_path):
        # the trace is opened before a pool too large for memory is made
        path = str(tmp_path / "nope.txt")
        code, out, err = run_cli(capsys, "replay", "--trace", path,
                                 "--slots", str(2 ** 61))
        assert (code, out) == (1, "")
        assert err == f"error: [Errno 2] No such file or directory: {path!r}\n"

    def test_trace_too_large_for_memory_exits_one(self, capsys, monkeypatch,
                                                  tmp_path):
        def parse_trace(text, first_line=1):
            raise MemoryError

        monkeypatch.setattr(trace, "parse_trace", parse_trace)
        path = self.write_trace(tmp_path, "alloc a\n")
        code, out, err = run_cli(capsys, "replay", "--trace", path)
        assert code == 1
        assert out == ""
        assert err == f"error: trace {path} does not fit in memory\n"

    @pytest.mark.parametrize("fmt", ["csv", "json", "text"])
    def test_memory_error_while_output_is_built_exits_one(
            self, capsys, monkeypatch, tmp_path, fmt):
        # the records reach the output one by one, then memory runs out
        real_replay = trace.replay

        def replay(*args):
            yield from real_replay(*args)
            raise MemoryError

        monkeypatch.setattr(trace, "replay", replay)
        path = self.write_trace(tmp_path, "alloc a\nalloc b\n")
        code, out, err = run_cli(capsys, "replay", "--trace", path,
                                 "--format", fmt)
        assert code == 1
        assert out == ""
        assert err == f"error: trace {path} does not fit in memory\n"

    @pytest.mark.parametrize("block", [1, 3, 8192])
    @pytest.mark.parametrize("data, error", [
        (b"alloc a\nfree b\nalloc\n", "line 2: free of unknown id 'b'"),
        (b"alloc a\nfree b\n\xff\n", "line 2: free of unknown id 'b'"),
        (b"alloc a\nalloc\nfree b\n", "line 2: cannot parse 'alloc'"),
        (b"alloc a\n\xffree b\nalloc\n",
         "line 2: invalid UTF-8 byte 0xff"),
    ], ids=["replay-then-syntax", "replay-then-utf8", "syntax-then-replay",
            "utf8-then-replay"])
    def test_earliest_failing_line_is_reported(self, capsys, monkeypatch,
                                               tmp_path, block, data, error):
        # a replay error is found only by replaying the lines before it,
        # so a later line that fails to decode or parse comes second
        monkeypatch.setattr(trace, "BLOCK_BYTES", block)
        path = tmp_path / "trace.txt"
        path.write_bytes(data)
        code, out, err = run_cli(capsys, "replay", "--trace", str(path))
        assert (code, out, err) == (1, "", f"error: {error}\n")

    @pytest.mark.parametrize("text", [
        "", "# only a comment\n", "alloc a\n",
        "# é\n\nalloc a\r\n\talloc_hint b\ta\nfree a\x85alloc c",
    ], ids=["empty", "comment", "one", "loose"])
    @pytest.mark.parametrize("block", [1, 5, 8192])
    def test_json_is_what_json_dumps_writes(self, capsys, monkeypatch,
                                            tmp_path, text, block):
        monkeypatch.setattr(trace, "BLOCK_BYTES", block)
        path = self.write_trace(tmp_path, text)
        argv = ["replay", "--trace", path, "--slots", "8"]
        code, table, _ = run_cli(capsys, *argv, "--format", "csv")
        assert code == 0
        records = [
            {"line": int(line), "op": op, "id": id_, "slot": int(slot),
             "offset": int(offset)}
            for line, op, id_, slot, offset in (
                row.split(",") for row in table.splitlines()[1:])
        ]
        payload = {
            "command": "replay",
            "config": {"allocator": "bitmap", "slots": 8, "slot_size": 32,
                       "trace": path},
            "reports": [{"kind": "replay", "records": records}],
        }
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 0
        assert out == json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def test_json_escapes_ids_as_json_dumps_does(self, capsys, monkeypatch,
                                                 tmp_path):
        # ids the trace grammar rejects, so that the JSON writer does not
        # rely on that grammar to leave them unescaped
        ids = ['q"uote', "back\\slash", "café", "tab\there", " "]
        monkeypatch.setattr(trace, "parse_trace", lambda text, first_line=1: [
            trace.TraceEvent(trace.ALLOC, id_, None, n)
            for n, id_ in enumerate(ids, first_line)])
        path = self.write_trace(tmp_path, "alloc a\n")
        code, out, _ = run_cli(capsys, "replay", "--trace", path,
                               "--slots", "8", "--format", "json")
        assert code == 0
        records = [{"line": n, "op": "alloc", "id": id_, "slot": n - 1,
                    "offset": 32 * (n - 1)} for n, id_ in enumerate(ids, 1)]
        payload = {
            "command": "replay",
            "config": {"allocator": "bitmap", "slots": 8, "slot_size": 32,
                       "trace": path},
            "reports": [{"kind": "replay", "records": records}],
        }
        assert out == json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def test_unwritable_spool_file_is_an_error_line(self, capsys,
                                                     monkeypatch, tmp_path):
        # output past SPOOL_BYTES goes to a file in tempfile's directory
        monkeypatch.setattr(cli, "SPOOL_BYTES", 16)
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "missing"))
        path = self.write_trace(tmp_path, "alloc a\nalloc b\n")
        code, out, err = run_cli(capsys, "replay", "--trace", path,
                                 "--slots", "8", "--format", "csv")
        assert (code, out) == (1, "")
        assert err.startswith("error: [Errno 2] ")
        assert err.count("\n") == 1

    def test_pool_too_large_is_reported_before_the_trace_is_read(
            self, capsys, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_bytes(b"alloc\n\xff\n")
        code, out, err = run_cli(capsys, "replay", "--trace", str(path),
                                 "--slots", str(2**61))
        assert (code, out) == (1, "")
        assert err == f"error: a pool of {2**61} slots does not fit in memory\n"

    def test_bitmap_and_linear_identical_without_hints(self, capsys, tmp_path):
        text = "alloc a\nalloc b\nalloc c\nfree b\nalloc d\nfree a\nalloc e\n"
        path = self.write_trace(tmp_path, text)
        outputs = []
        for allocator in ("bitmap", "linear-bitmap"):
            code, out, _ = run_cli(
                capsys, "replay", "--trace", path, "--allocator", allocator,
                "--slots", "8", "--format", "csv")
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1]

    def test_json_schema(self, capsys, tmp_path):
        path = self.write_trace(tmp_path, "alloc a\n")
        code, out, _ = run_cli(
            capsys, "replay", "--trace", path, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, REPORT_SCHEMA)
        assert payload["reports"][0]["records"] == [
            {"line": 1, "op": "alloc", "id": "a", "slot": 0, "offset": 0}
        ]


    @pytest.mark.parametrize("flag", [["--seed", "1"], ["--line-size", "64"]],
                             ids=lambda flag: flag[0])
    def test_rejects_unread_flags(self, capsys, tmp_path, flag):
        # a replay draws no random number and measures no cache line, so
        # these bench flags are usage errors here, not silently ignored
        path = self.write_trace(tmp_path, "alloc a\n")
        code, out, err = run_cli(capsys, "replay", "--trace", path, *flag)
        assert code == 2
        assert "usage" in err and out == ""

    def test_trace_layer_is_called_through_module_globals(
            self, capsys, monkeypatch, tmp_path):
        # bench/tracing.py times the parse and replay layers by replacing
        # these names in bitfit.trace; a call that bypassed them would leave
        # those per-layer metrics at zero
        calls = []
        for name in ("parse_trace", "replay"):
            def spy(*args, _name=name, _fn=getattr(trace, name), **kwargs):
                calls.append(_name)
                return _fn(*args, **kwargs)
            monkeypatch.setattr(trace, name, spy)
        path = self.write_trace(tmp_path, "alloc a\n")
        code, out, _ = run_cli(capsys, "replay", "--trace", path)
        assert code == 0 and out.endswith("1,alloc,a,0,0\n")
        assert calls == ["parse_trace", "replay"]


class TestPoolTooLarge:
    """A pool that cannot be allocated (2**61 slots) or indexed (2**70) is
    an error naming the slot count, from every command and allocator:
    every policy makes its storage up front.  The lifecycle makes its
    lists of offsets before it draws one value per node, and the churn
    makes its fill's list before the first acquire.  Stand-ins for the
    draw and for ``Pool.acquire`` fail the test instead of running those
    loops."""

    @pytest.mark.parametrize("slots", [2**61, 2**70])
    @pytest.mark.parametrize("allocator", cli.ALLOCATOR_CHOICES)
    @pytest.mark.parametrize("command", [
        ["replay", "--trace", "trace.txt"],
        ["bench", "--workload", "lifecycle"],
        ["bench", "--workload", "churn"],
    ], ids=lambda command: command[0] + "-" + command[2].split(".")[0])
    def test_exits_one_naming_slots(self, capsys, monkeypatch, tmp_path,
                                    command, allocator, slots):
        def free_order_drawn(*args):
            raise AssertionError("lifecycle free order drawn before the pool")

        def acquired(self):
            raise AssertionError("slot acquired before the pool was sized")

        monkeypatch.setattr(workload, "lifecycle_free_order", free_order_drawn)
        monkeypatch.setattr(pool.Pool, "acquire", acquired)
        (tmp_path / "trace.txt").write_text("alloc a\n")
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, *command, "--allocator", allocator,
                                 "--slots", str(slots))
        assert code == 1
        assert out == ""
        assert err == f"error: a pool of {slots} slots does not fit in memory\n"

    @pytest.mark.parametrize("workload_name", ["lifecycle", "churn"])
    def test_offset_lists_are_made_before_any_draw_or_acquire(
            self, capsys, monkeypatch, workload_name):
        # a pool that fits but whose lists of offsets do not fails before
        # the first draw or acquire, with the workload's own message
        class SizelessPool:
            def __init__(self, slot_size, capacity, policy_kind):
                pass

            def acquire(self):
                raise AssertionError("slot acquired before the lists were made")

        def free_order_drawn(*args):
            raise AssertionError("free order drawn before the lists were made")

        monkeypatch.setattr(workload, "Pool", SizelessPool)
        monkeypatch.setattr(workload, "lifecycle_free_order", free_order_drawn)
        code, out, err = run_cli(capsys, "bench", "--workload", workload_name,
                                 "--slots", str(2**61))
        assert (code, out) == (1, "")
        assert err == (f"error: the {workload_name} workload at {2**61} "
                       "slots does not fit in memory\n")


class TestDemo:
    def test_first_allocation_state(self, capsys):
        code, out, _ = run_cli(capsys, "demo")
        assert code == 0
        assert "slot 0" in out
        assert "leaf 10" in out

    def test_demo_is_deterministic(self, capsys):
        _, first, _ = run_cli(capsys, "demo")
        _, second, _ = run_cli(capsys, "demo")
        assert first == second

    @pytest.mark.parametrize("flag", [
        ["--format", "json"], ["--slots", "4"],
        ["--allocator", "freelist-lifo"], ["--timestamp"],
    ], ids=lambda flag: flag[0])
    def test_rejects_flags(self, capsys, flag):
        # demo reads no flag, so any flag is a usage error, not ignored
        code, out, err = run_cli(capsys, "demo", *flag)
        assert code == 2
        assert "usage" in err and out == ""


@pytest.mark.parametrize("argv", [
    ["bench", "--workload", "lifecycle", "--bogus"],
    ["replay", "--trace", "t.txt", "--bogus"],
], ids=lambda argv: argv[0])
def test_unknown_flag_shows_the_subcommand_usage(capsys, argv):
    # the usage printed is the subcommand's, which lists the flags it takes
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith(f"usage: bitfit {argv[0]} [-h]")
    assert f"bitfit {argv[0]}: error: unrecognized arguments: --bogus\n" in err


def test_import_loads_no_dataclasses_chain():
    # dataclasses drags in inspect, ast, dis and tokenize, about 1 MB of
    # resident memory in every process; -S keeps site's own imports out
    src = str(Path(cli.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import bitfit.cli; "
            "print(' '.join(sorted(sys.modules)))")
    done = subprocess.run([sys.executable, "-S", "-c", code, src],
                          capture_output=True, text=True, timeout=60,
                          check=True)
    loaded = set(done.stdout.split())
    assert "bitfit.cli" in loaded
    assert loaded.isdisjoint({"dataclasses", "inspect", "ast", "dis",
                              "tokenize"})


def test_all_lists_the_public_names_of_the_package():
    # ``from bitfit import *`` fails on an entry of __all__ that does not
    # resolve, and __all__ must name, once each, every public name that
    # bitfit/__init__.py binds except the submodules
    namespace = {}
    exec("from bitfit import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(bitfit.__all__)
    public = [name for name, value in vars(bitfit).items()
              if not name.startswith("_")
              and not isinstance(value, types.ModuleType)]
    assert sorted(bitfit.__all__) == sorted(public)


def test_import_adds_only_bitfit_to_its_stdlib_imports():
    # every module a process loads costs it memory: past the stdlib
    # modules that bitfit imports by name, importing the CLI loads only
    # bitfit's own
    src = str(Path(cli.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import argparse, collections, functools, itertools, json, "
            "json.encoder, operator, random, re, time, typing; "
            "before = set(sys.modules); import bitfit.cli; "
            "print(' '.join(sorted(set(sys.modules) - before)))")
    done = subprocess.run([sys.executable, "-S", "-c", code, src],
                          capture_output=True, text=True, timeout=60,
                          check=True)
    added = done.stdout.split()
    assert "bitfit.cli" in added
    assert [name for name in added
            if name != "bitfit" and not name.startswith("bitfit.")] == []


def test_identical_configs_yield_identical_json(capsys):
    argv = ["bench", "--workload", "lifecycle", "--slots", "256",
            "--slot-size", "32", "--seed", "7", "--format", "json"]
    _, first, _ = run_cli(capsys, *argv)
    _, second, _ = run_cli(capsys, *argv)
    assert first == second


def test_help_exits_zero(capsys):
    code, out, _ = run_cli(capsys, "--help")
    assert code == 0
    assert "bench" in out


def hinted_churn_trace(events=600, capacity=96, seed=5):
    """A seeded churn trace around 70 % fill with about a third of the
    allocations hinted at a random live id.  It is generated here rather
    than by ``oracles.churn_trace`` so that its text never changes."""
    rng = random.Random(seed)
    live, lines = [], []
    for n in range(events):
        if live and (len(live) >= 0.7 * capacity or rng.random() < 0.3):
            lines.append(f"free {live.pop(rng.randrange(len(live)))}")
        elif live and rng.random() < 0.4:
            lines.append(f"alloc_hint c{n} {rng.choice(live)}")
            live.append(f"c{n}")
        else:
            lines.append(f"alloc c{n}")
            live.append(f"c{n}")
    return "\n".join(lines) + "\n"


# comments, blank lines, tabs and runs of spaces around the tokens
LOOSE_TRACE = ("# replay fixture\n\nalloc a\n\talloc_hint b\ta\n"
               "   # indented comment\nalloc c   \nfree a\n\n\n"
               "alloc_hint  d \t c\n\tfree\tb\t\nalloc e\nalloc_hint f e")

PINNED_TRACES = {
    "hinted_churn": (hinted_churn_trace(), "96"),
    "loose": (LOOSE_TRACE, "8"),
}


# sha256 of the stdout of a fixed command set, each of which exits 0: any
# change in CLI output fails here.  Change a digest only together with a
# deliberate change of output.
PINNED_ARGV = {
    "lifecycle": ["--slots", "256", "--seed", "3"],
    "churn": ["--slots", "128", "--fill", "0.7", "--ops", "500", "--seed", "3"],
}
# ("benchmark", allocator, seed) is the lifecycle run of bench/run.py: its
# bitmap row is timed and its freelist-lifo row is the contrast
PINNED_STDOUT_SHA256 = {
    ("benchmark", "bitmap", "1"):
        "004637cb2cc398c66dc6df2e51db1850db7118b46c22f16a1a2e3969fc75d3a2",
    ("benchmark", "bitmap", "2"):
        "f70072ddfb909e5e097a59b9d165431db4460824df5264da54034fcbd9385309",
    ("benchmark", "bitmap", "3"):
        "6c00ca27c227964937e79bef8e0eed6e43aea96d94f871e4b8a20b37ac5035e1",
    ("benchmark", "freelist-lifo", "1"):
        "2dc24eb04dc1885bc248dc55cdaa822ebd46746be7d0b2227a3dae84591f06bc",
    ("benchmark", "freelist-lifo", "2"):
        "00982a68e17b902b132c197a5026903213f8c24a16e11c263ce319ba372bab1e",
    ("benchmark", "freelist-lifo", "3"):
        "107b54352f2b604ce320908037ebc636efc546d3c8ffab567970493f8d0a8c24",
    ("demo",):
        "76d3694d2e9ba75b6f770c4df0650d0ce72c585b299a22b7e6a15813b2331ceb",
    ("lifecycle", "bitmap", "json"):
        "4a32102a84f3075ec966bb991cb2c2632ef7880f5bc377ff49c6820f82934a63",
    ("lifecycle", "bitmap", "csv"):
        "1e90087a7f07370684dbcd111694f514ef2bbc1323b5ccbafbb4752a4ae4df95",
    ("lifecycle", "bitmap", "text"):
        "ca35f2899a6b1bdb74e4ef26e74369b31e7883ba2c72c2c95afc7784d12f7607",
    ("lifecycle", "freelist-lifo", "json"):
        "9b1769376d63b2a8e1939bdfd90ae196b086745a15823064aea417b1a50d0acf",
    ("lifecycle", "freelist-lifo", "csv"):
        "3a3cb98d6fb891afa2dfa6bf4a6b02fa002ecb59418606bad6a041027643109b",
    ("lifecycle", "freelist-lifo", "text"):
        "4f27ad0e169efec8ef2ced4149450b201ad47359c5a2f43c37cb6f48b3da411b",
    ("lifecycle", "freelist-fifo", "json"):
        "dcfcf7666e6e429697b76699615ebef809f7cdb1014f47238437e350a0362dcd",
    ("lifecycle", "freelist-fifo", "csv"):
        "8034eb34eb42662f671cd4220a7677c3a142088de8e8b6d822e170b6a919b179",
    ("lifecycle", "freelist-fifo", "text"):
        "4ec7fa9d5efeb6085356b19834c5271ea1c8bdeb6553fe551819093251c11bde",
    ("lifecycle", "linear-bitmap", "json"):
        "2304f50431ba1af220e5a751622f5bcfa761b8ec1353080f8009b097025a0671",
    ("lifecycle", "linear-bitmap", "csv"):
        "1e90087a7f07370684dbcd111694f514ef2bbc1323b5ccbafbb4752a4ae4df95",
    ("lifecycle", "linear-bitmap", "text"):
        "5aa576bcb96ad3439a815b7624e00dc6c1a68da5661f9e7d0968feaf2d4ddcde",
    ("churn", "bitmap", "json"):
        "7032c23d0ea75d1fdd46794a4ffe70d956eee68b9809c6bb304218b011871321",
    ("churn", "bitmap", "csv"):
        "4b0c4459fe0f6f6f0799f2e06f4b79f09184d8997d261b5b8ecf6ea222a0d204",
    ("churn", "bitmap", "text"):
        "d1735cdddcb7599f414983d3b743a1978bc1a7cab6a36ee14b53ecd32358efba",
    ("churn", "freelist-lifo", "json"):
        "503089bd7e4dc6802c9e2afdffdf433c90e8dbdd432801e6de96d66ef5430cd6",
    ("churn", "freelist-lifo", "csv"):
        "4b0c4459fe0f6f6f0799f2e06f4b79f09184d8997d261b5b8ecf6ea222a0d204",
    ("churn", "freelist-lifo", "text"):
        "8fa47819a221f244d721660333c2f0bd6a312172b7abb55f17bc58ee87fb6d4c",
    ("churn", "freelist-fifo", "json"):
        "09ca0525307b4ad0a4ef7bba93c756e23505ef6576f5eaee1ccc41c277b84c95",
    ("churn", "freelist-fifo", "csv"):
        "4b0c4459fe0f6f6f0799f2e06f4b79f09184d8997d261b5b8ecf6ea222a0d204",
    ("churn", "freelist-fifo", "text"):
        "aa41fe91076cae139374698ce21d563e7cea4f19c2697458abe6f24ff27c948f",
    ("churn", "linear-bitmap", "json"):
        "b2a997c0553812a6fef9798527823e244a1d2d23f652cf4b5c1748cf4c245f7d",
    ("churn", "linear-bitmap", "csv"):
        "4b0c4459fe0f6f6f0799f2e06f4b79f09184d8997d261b5b8ecf6ea222a0d204",
    ("churn", "linear-bitmap", "text"):
        "4a842dd83ae1abfbf56c6ca29589462ae8168615e83c9f8b4795a316d00da757",
    ("hinted_churn", "bitmap", "json"):
        "a6dacaec8b56ec2e16c6820a0c69c20d471eeda380d38119b9eb390c6afb6dde",
    ("hinted_churn", "bitmap", "csv"):
        "a9d2ef10627c10f45676074491f1c0ebec931ecfc858a7e02eed8085d1d841a1",
    ("hinted_churn", "bitmap", "text"):
        "a9d2ef10627c10f45676074491f1c0ebec931ecfc858a7e02eed8085d1d841a1",
    ("hinted_churn", "freelist-lifo", "json"):
        "3f289941d0d678716658027271b9f492b17cb79561afde134576305d9e619e62",
    ("hinted_churn", "freelist-lifo", "csv"):
        "a36e6488aff0cf5d99279d2c2e48f020124e1cc6fce8240e971cbd3f75cc2adb",
    ("hinted_churn", "freelist-lifo", "text"):
        "a36e6488aff0cf5d99279d2c2e48f020124e1cc6fce8240e971cbd3f75cc2adb",
    ("hinted_churn", "freelist-fifo", "json"):
        "19b0efc56268e3ce69dcccd5411ed229a01e2381cc488dfcb004fc0f9aec40d0",
    ("hinted_churn", "freelist-fifo", "csv"):
        "d16518d3277e3305ad28ded74dd629245e2ea4cebd2f1e064be4e9621d6ae2ce",
    ("hinted_churn", "freelist-fifo", "text"):
        "d16518d3277e3305ad28ded74dd629245e2ea4cebd2f1e064be4e9621d6ae2ce",
    ("hinted_churn", "linear-bitmap", "json"):
        "1652703a1f801bb675eea0243350cd8d1a18ae2b591f80f96ecce1bacc348a46",
    ("hinted_churn", "linear-bitmap", "csv"):
        "49b8899a0cd13bf8a305624512b370634acd87df99d4f6f9351675d0f04b271c",
    ("hinted_churn", "linear-bitmap", "text"):
        "49b8899a0cd13bf8a305624512b370634acd87df99d4f6f9351675d0f04b271c",
    ("loose", "bitmap", "json"):
        "dff46f3a7112d4a49f9c68431a30a0f6c5304634e9ab9936fbf9af9d9a6c5127",
    ("loose", "bitmap", "csv"):
        "761d835e0e72ca2007abd17e12d129aaee0901aac08c2ae8e565be1ff3e86c77",
    ("loose", "bitmap", "text"):
        "761d835e0e72ca2007abd17e12d129aaee0901aac08c2ae8e565be1ff3e86c77",
    ("loose", "freelist-lifo", "json"):
        "60d3ee249a9c4e9e03aac2bcab33cb4249eecd3247f04e8057d1e571ba577301",
    ("loose", "freelist-lifo", "csv"):
        "c8823d33b288dd1d1974ffb3e8d5de8d6e0d7193b8b22b78de7ea95e0bbf5c81",
    ("loose", "freelist-lifo", "text"):
        "c8823d33b288dd1d1974ffb3e8d5de8d6e0d7193b8b22b78de7ea95e0bbf5c81",
    ("loose", "freelist-fifo", "json"):
        "d8e5b6f1dbf78e9c84cf187d81e92c6fe2d567eb63569f01da74d6fa46602703",
    ("loose", "freelist-fifo", "csv"):
        "c8823d33b288dd1d1974ffb3e8d5de8d6e0d7193b8b22b78de7ea95e0bbf5c81",
    ("loose", "freelist-fifo", "text"):
        "c8823d33b288dd1d1974ffb3e8d5de8d6e0d7193b8b22b78de7ea95e0bbf5c81",
    ("loose", "linear-bitmap", "json"):
        "ec03438c51b2c4ecc094e69eda94396775aff6cd19fa9e57b7fc85ec0c46fdf4",
    ("loose", "linear-bitmap", "csv"):
        "c8823d33b288dd1d1974ffb3e8d5de8d6e0d7193b8b22b78de7ea95e0bbf5c81",
    ("loose", "linear-bitmap", "text"):
        "c8823d33b288dd1d1974ffb3e8d5de8d6e0d7193b8b22b78de7ea95e0bbf5c81",
}


def pinned_argv(case):
    """The command of a pinned bench or demo case."""
    if case == ("demo",):
        return ["demo"]
    if case[0] == "benchmark":
        _, allocator, seed = case
        return ["bench", "--workload", "lifecycle", "--allocator", allocator,
                "--slots", "4096", "--slot-size", "32", "--format", "json",
                "--seed", seed]
    workload, allocator, fmt = case
    return ["bench", "--workload", workload, *PINNED_ARGV[workload],
            "--allocator", allocator, "--format", fmt]


def sha256_of(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("case", PINNED_STDOUT_SHA256, ids="-".join)
def test_output_is_pinned(capsys, monkeypatch, tmp_path, case):
    if case[0] in PINNED_TRACES:
        # the JSON config echoes the trace path, so it must not vary
        name, allocator, fmt = case
        text, slots = PINNED_TRACES[name]
        (tmp_path / "trace.txt").write_text(text)
        monkeypatch.chdir(tmp_path)
        argv = ["replay", "--trace", "trace.txt", "--slots", slots,
                "--slot-size", "16", "--allocator", allocator,
                "--format", fmt]
    else:
        argv = pinned_argv(case)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert sha256_of(out) == PINNED_STDOUT_SHA256[case]


class TestOneParserPerProcess:
    """``main`` reuses one parser, so no call may leave state in it."""

    def test_two_calls_build_one_parser(self, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        cli.build_parser.cache_clear()
        assert run_cli(capsys, "demo")[0] == 0
        after_first = list(built)
        assert run_cli(capsys, "bench", "--slots", "8")[0] == 0
        # the top-level parser and one per subcommand, all from the first call
        assert built == after_first
        assert built.count("bitfit") == 1

    def test_timestamp_does_not_leak(self, capsys):
        argv = ["bench", "--slots", "8", "--format", "json"]
        _, out, _ = run_cli(capsys, *argv, "--timestamp")
        assert "timestamp" in json.loads(out)["config"]
        _, out, _ = run_cli(capsys, *argv)
        assert "timestamp" not in json.loads(out)["config"]

    @pytest.mark.parametrize("bad", [
        ["bench", "--workload", "churn", "--seed", "9", "--fill", "2"],
        ["bench", "--allocator", "freelist-fifo", "--slots", "0"],
        ["replay", "--allocator", "linear-bitmap", "--format", "csv"],
    ])
    def test_usage_error_leaves_no_state(self, capsys, bad):
        code, out, _ = run_cli(capsys, *bad)
        assert code == 2 and out == ""
        for case in (("lifecycle", "bitmap", "json"),
                     ("churn", "freelist-lifo", "text")):
            code, out, _ = run_cli(capsys, *pinned_argv(case))
            assert code == 0
            assert sha256_of(out) == PINNED_STDOUT_SHA256[case]


@pytest.mark.parametrize("argv, message", [
    (["bench", "--slots", "abc"], "argument --slots: not an integer: 'abc'"),
    (["bench", "--slot-size", "1.5"],
     "argument --slot-size: not an integer: '1.5'"),
    (["bench", "--line-size", ""], "argument --line-size: not an integer: ''"),
    (["bench", "--workload", "churn", "--ops", "many"],
     "argument --ops: not an integer: 'many'"),
    (["bench", "--workload", "churn", "--fill", "x"],
     "argument --fill: not a number: 'x'"),
    (["replay", "--trace", "t.txt", "--slots", "2**8"],
     "argument --slots: not an integer: '2**8'"),
    (["replay", "--trace", "t.txt", "--slot-size", "x"],
     "argument --slot-size: not an integer: 'x'"),
    (["bench", "--seed", "x"], "argument --seed: not an integer: 'x'"),
    (["bench", "--seed", "-7"], "argument --seed: must be >= 0, got -7"),
], ids=lambda value: value if isinstance(value, str) else "-".join(value[:3]))
def test_bad_number_is_a_plain_usage_error(capsys, argv, message):
    # the message names the flag and the value, not a converter function
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.splitlines()[-1] == f"bitfit {argv[0]}: error: {message}"


class TestBlocks:
    """``bitfit replay`` reads its trace a block at a time; its output is
    that of the whole-file reference at any block size."""

    BREAKS = ["\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e",
              "\x85", "\u2028", "\u2029"]
    COMMENTS = ["", "# é", "#€ \U0001F600", "  # ü\u2030"]
    BAD_BYTES = [b"\xff", b"\x80", b"\xc3(", b"\xe2\x82", b"\xf0\x9f\x98"]

    @st.composite
    def traces(draw):
        """Trace bytes: a valid churn with comments, every line break
        str.splitlines knows, maybe one fault (an unknown free, a live id
        allocated again, a syntax error) and maybe one bad byte."""
        lines, live = [], []
        for n in range(draw(st.integers(0, 14))):
            step = draw(st.sampled_from(["alloc", "alloc", "hint", "free",
                                         "comment"]))
            if step == "comment":
                lines.append(draw(st.sampled_from(TestBlocks.COMMENTS)))
            elif step == "free" and live:
                lines.append(f"free {live.pop(draw(st.integers(0, len(live) - 1)))}")
            elif step == "hint" and live:
                lines.append(f"alloc_hint c{n} {draw(st.sampled_from(live))}")
                live.append(f"c{n}")
            else:
                lines.append(f"alloc c{n}")
                live.append(f"c{n}")
        fault = draw(st.sampled_from([None, "free zz", "alloc c0", "alloc"]))
        if fault:
            lines.insert(draw(st.integers(0, len(lines))), fault)
        breaks = draw(st.lists(st.sampled_from(TestBlocks.BREAKS),
                               min_size=len(lines), max_size=len(lines)))
        text = "".join(line + brk for line, brk in zip(lines, breaks))
        if text and draw(st.booleans()):
            text = text[:-len(breaks[-1])]  # no final line break
        data = text.encode()
        bad = draw(st.sampled_from([None, *TestBlocks.BAD_BYTES]))
        if bad:
            at = draw(st.integers(0, len(data)))
            data = data[:at] + bad + data[at:]
        return data

    @given(data=traces(), block=st.integers(1, 7))
    @example(data=b"", block=1)
    @example(data=b"alloc a\r\nfree a\r\nfree a\r\n", block=2)
    @example(data="# é\nalloc a\nfree b\n\xff".encode("latin-1"), block=3)
    @example(data=b"alloc a\n# caf\xe9\nalloc b\n", block=2)
    @example(data=b"alloc a\nfree b\n# \xff\n", block=1)
    @settings(max_examples=400, deadline=None)
    def test_output_matches_whole_file_reference(self, tmp_path_factory,
                                                 data, block):
        path = tmp_path_factory.getbasetemp() / "blocks.trace"
        path.write_bytes(data)
        stdout, stderr = io.StringIO(), io.StringIO()
        with mock.patch.object(trace, "BLOCK_BYTES", block), \
                contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            code = main(["replay", "--trace", str(path), "--slots", "3",
                         "--slot-size", "8", "--format", "csv"])
        assert (code, stdout.getvalue(), stderr.getvalue()) == \
            replay_csv_reference(data, 3, 8)

    def test_memory_stays_bounded(self, monkeypatch, tmp_path):
        # the same live-id count over a trace four times as long: the
        # parsed events, records and output lines must not pile up
        monkeypatch.setattr(cli, "SPOOL_BYTES", 4096)
        peaks = {}
        for ops in (4_000, 4_000, 16_000):  # the first call warms up
            path = tmp_path / f"churn-{ops}.trace"
            path.write_text(churn_trace(512, 0.7, ops, 1))
            with open(os.devnull, "w") as devnull, \
                    contextlib.redirect_stdout(devnull):
                tracemalloc.start()
                try:
                    code = main(["replay", "--trace", str(path), "--slots",
                                 "512", "--format", "csv"])
                    peaks[ops] = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
            assert code == 0
        assert peaks[16_000] < peaks[4_000] + 32 * 1024
