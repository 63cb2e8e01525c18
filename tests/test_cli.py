import hashlib
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


# sha256 of the stdout of a fixed command set, each of which exits 0: any
# change in CLI output fails here.  Change a digest only together with a
# deliberate change of output.
PINNED_ARGV = {
    "lifecycle": ["--slots", "256", "--seed", "3"],
    "churn": ["--slots", "128", "--fill", "0.7", "--ops", "500", "--seed", "3"],
}
PINNED_STDOUT_SHA256 = {
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
}


@pytest.mark.parametrize("case", PINNED_STDOUT_SHA256, ids="-".join)
def test_output_is_pinned(capsys, case):
    if case == ("demo",):
        argv = ["demo"]
    else:
        workload, allocator, fmt = case
        argv = ["bench", "--workload", workload, *PINNED_ARGV[workload],
                "--allocator", allocator, "--format", fmt]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_STDOUT_SHA256[case]
