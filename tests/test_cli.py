import json

import jsonschema
import pytest

from bitfit.cli import LOCALITY_FIELDS, REPORT_SCHEMA, main


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
        path = self.write_trace(tmp_path, "alloc a\nfree a\nfree a\n")
        code, _, err = run_cli(capsys, "replay", "--trace", path, "--slots", "8")
        assert code == 1
        assert "line 3" in err

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
