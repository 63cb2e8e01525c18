import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bitfit import (
    POLICY_KINDS,
    Pool,
    DuplicateId,
    ReplayError,
    TraceEvent,
    TraceSyntaxError,
    UnknownId,
    format_trace,
    parse_trace,
    replay,
    run_list_lifecycle,
    run_random_churn,
)
from bitfit import trace
from bitfit.trace import ALLOC, ALLOC_HINT, FREE, read_blocks
from bitfit.workload import measure
from oracles import churn_trace, lifecycle_trace, parse_trace_reference


class TestParse:
    def test_alloc_free_pair(self):
        events = parse_trace("alloc a\nfree a\n")
        assert events == [
            TraceEvent("alloc", "a", None, 1),
            TraceEvent("free", "a", None, 2),
        ]

    def test_comments_and_blank_lines_skipped(self):
        events = parse_trace("# c\n\nalloc_hint b a\n")
        assert events == [TraceEvent("alloc_hint", "b", "a", 3)]

    def test_tokens_split_on_any_whitespace(self):
        events = parse_trace("alloc\ta\n  free \t a  \nalloc_hint\tb  a\n")
        assert events == [
            TraceEvent("alloc", "a", None, 1),
            TraceEvent("free", "a", None, 2),
            TraceEvent("alloc_hint", "b", "a", 3),
        ]

    def test_ops_are_the_module_constants(self):
        # every event shares its op string with the module rather than
        # holding its own copy from the match
        events = parse_trace("alloc a\nalloc_hint b a\nfree a\n" * 3)
        ops = [ALLOC, ALLOC_HINT, FREE] * 3
        assert [ev.op for ev in events] == ops
        assert all(ev.op is op for ev, op in zip(events, ops))

    def test_missing_id_is_syntax_error(self):
        with pytest.raises(TraceSyntaxError) as err:
            parse_trace("alloc\n")
        assert err.value.line_no == 1

    def test_bad_token_is_syntax_error(self):
        with pytest.raises(TraceSyntaxError):
            parse_trace("alloc a!\n")

    def test_unknown_op_is_syntax_error(self):
        with pytest.raises(TraceSyntaxError) as err:
            parse_trace("alloc a\nrealloc a\n")
        assert err.value.line_no == 2

    # a block of id characters and ASCII whitespace only, which the parser
    # takes without a test of each id
    PLAIN = "alloc a\nalloc_hint b_1 a\n\n  free\ta \nalloc Z9\n"

    @pytest.mark.parametrize("text", [
        "alloc free\nfree alloc\nalloc_hint alloc_hint free\n",  # op-word ids
        PLAIN,
        PLAIN + "# é\n",
        PLAIN + "alloc b!\n",  # a bad id in an otherwise plain block
        PLAIN + "alloc_hint é a\n",
        PLAIN + "alloc\xa0b\xa0a\n",  # a bad line split by no-break spaces
        "free\xa0a\xa0!\nalloc a\n",
        "alloc a\nalloc\xa0b!\n",
    ])
    @pytest.mark.parametrize("first_line", [1, 7])
    def test_token_edge_cases_match_reference_parser(self, text, first_line):
        # blank lines in front number the reference's lines from first_line
        numbered = "\n" * (first_line - 1) + text
        try:
            expected = parse_trace_reference(numbered)
        except TraceSyntaxError as exc:
            with pytest.raises(TraceSyntaxError) as err:
                parse_trace(text, first_line)
            assert (err.value.line_no, str(err.value)) == (exc.line_no, str(exc))
        else:
            assert parse_trace(text, first_line) == expected

    @pytest.mark.parametrize("text, error", [
        ("alloc a\n# \udcff\n", "line 2: invalid UTF-8 byte 0xff"),
        ("al\udcc3loc a\n", "line 1: invalid UTF-8 byte 0xc3"),
        ("alloc\nfree a! \udc80\n", "line 1: cannot parse 'alloc'"),
        ("alloc a\nfree a! b \udc80\udcff\n",
         "line 2: invalid UTF-8 byte 0x80"),
    ], ids=["comment", "op", "after-syntax-error", "on-syntax-error"])
    def test_lone_surrogate_is_the_bad_byte_it_stands_for(self, text, error):
        with pytest.raises(TraceSyntaxError) as err:
            parse_trace(text)
        assert str(err.value) == error

    def test_comment_line_leaves_the_events_of_a_plain_block(self):
        events = parse_trace(self.PLAIN)
        assert parse_trace(self.PLAIN + "# é\n") == events
        assert [ev.line_no for ev in events] == [1, 2, 4, 5]

    # Lines are drawn from ops, ids, invalid and non-ASCII tokens and
    # whitespace that str.split and the regex \s both split on; line breaks
    # include those str.splitlines adds to "\n".  Most lines are an op and
    # its arguments with some tokens swapped for bad ones, the rest are
    # free-form, so both valid traces and each error occur often.
    OPS = ["alloc", "free", "alloc_hint"]
    IDS = ["a", "b_1", "Z9"]
    ODD = ["#", "!", "é", "a!", "#x", "realloc"]
    SPACES = [" ", "\t", "\x1f", "\xa0", "\u3000"]
    BREAKS = ["\n", "\r\n", "\r", "\x1c", "\x85", "\u2028"]
    space = st.lists(st.sampled_from(SPACES), min_size=1, max_size=3).map("".join)
    pad = st.just("") | space
    event = st.tuples(
        pad, st.sampled_from(OPS * 3 + ODD),
        st.lists(st.tuples(space, st.sampled_from(IDS * 2 + ODD)).map("".join),
                 min_size=1, max_size=2),
        pad,
    ).map(lambda p: p[0] + p[1] + "".join(p[2]) + p[3])
    loose = st.lists(st.sampled_from(OPS + IDS + ODD) | space,
                     max_size=5).map("".join)
    line = event | event | loose
    trace = st.tuples(
        st.lists(st.tuples(line, st.sampled_from(BREAKS)), max_size=6), line,
    ).map(lambda parts: "".join(a + b for a, b in parts[0]) + parts[1])

    @given(text=trace)
    @example(text="alloc a\nalloc é")
    @example(text="alloc_hint\u3000b\xa0a\x1f\nfree a!")
    @example(text="free\x1fa\x85alloc\ta b")
    @settings(max_examples=500, deadline=None)
    def test_matches_reference_parser(self, text):
        try:
            expected = parse_trace_reference(text)
        except TraceSyntaxError as exc:
            with pytest.raises(TraceSyntaxError) as err:
                parse_trace(text)
            assert type(err.value) is TraceSyntaxError
            assert (err.value.line_no, str(err.value)) == (exc.line_no, str(exc))
        else:
            assert parse_trace(text) == expected


def read_file_blocks(tmp_path, data):
    """The blocks of ``data`` read back from a file as the CLI reads it."""
    path = tmp_path / "trace.txt"
    path.write_bytes(data)
    with trace.open_trace(path) as fh:
        return list(read_blocks(fh))


class TestReadBlocks:
    DATA = "alloc a\r\n# é€\x85free a\ralloc_hint b a\u2028\n\nalloc c".encode()

    @pytest.mark.parametrize("block", range(1, 12))
    def test_blocks_parse_as_the_whole_text(self, monkeypatch, tmp_path,
                                            block):
        monkeypatch.setattr(trace, "BLOCK_BYTES", block)
        blocks = read_file_blocks(tmp_path, self.DATA)
        # every block but the last ends at a line break, and each numbers
        # its lines as the whole file does
        assert all(text.splitlines(True)[-1] != text.splitlines()[-1]
                   for _, text in blocks[:-1])
        events = [ev for first_line, text in blocks
                  for ev in parse_trace(text, first_line)]
        assert events == parse_trace(self.DATA.decode())
        assert [ev.line_no for ev in events] == [1, 3, 4, 7]

    @pytest.mark.parametrize("block", [1, 2, 8192])
    def test_bad_byte_reaches_its_line_for_the_parser_to_report(
            self, monkeypatch, tmp_path, block):
        monkeypatch.setattr(trace, "BLOCK_BYTES", block)
        data = b"alloc a\r\nfree a\rx\xe2\x82\n"
        blocks = read_file_blocks(tmp_path, data)
        assert "".join(text for _, text in blocks).splitlines() == \
            ["alloc a", "free a", "x\udce2\udc82"]
        with pytest.raises(TraceSyntaxError) as err:
            for first_line, text in blocks:
                parse_trace(text, first_line)
        assert str(err.value) == "line 3: invalid UTF-8 byte 0xe2"

    @pytest.mark.parametrize("piece", ["é", "€", "\r\n", "\udce2\udc82"],
                             ids=["e-acute", "euro", "crlf", "bad-byte"])
    def test_piece_across_the_wrappers_read_boundary(self, tmp_path, piece):
        # the piece's bytes start at byte 8191 of the file and so straddle
        # byte 8192, where the text wrapper's first read ends
        text = "#" * 8188 + "\n# " + piece + "\nalloc a\n"
        data = text.encode("utf-8", "surrogateescape")
        assert data.index(piece.encode("utf-8", "surrogateescape")) == 8191
        blocks = read_file_blocks(tmp_path, data)
        lines = [(first_line + i, raw) for first_line, block_text in blocks
                 for i, raw in enumerate(block_text.splitlines())]
        assert lines == list(enumerate(text.splitlines(), 1))

    @pytest.mark.parametrize("block", [1, 2, 4, 5, 64])
    @pytest.mark.parametrize("text", [
        churn_trace(64, 0.7, 200, 1).replace("\n", "\r"),
        "# x\r" * 40,  # every block of 4 characters ends in its only "\r"
    ], ids=["churn", "aligned"])
    def test_cr_only_trace_is_cut_at_its_breaks(self, monkeypatch, tmp_path,
                                                block, text):
        monkeypatch.setattr(trace, "BLOCK_BYTES", block)
        blocks = read_file_blocks(tmp_path, text.encode())
        longest = max(map(len, text.splitlines(True)))
        assert max(len(block_text) for _, block_text in blocks) <= \
            block + longest
        events = [ev for first_line, block_text in blocks
                  for ev in parse_trace(block_text, first_line)]
        assert events == parse_trace(text)


class TestReplayFile:
    def test_opens_the_file_then_makes_the_pool(self, monkeypatch, tmp_path):
        records = trace.replay_file(tmp_path / "nope.txt", 1, 2 ** 61, "bitmap")
        with pytest.raises(FileNotFoundError):
            next(records)

        def parse_trace(text, first_line=1):
            pytest.fail("a line was parsed before the pool was made")

        monkeypatch.setattr(trace, "parse_trace", parse_trace)
        path = tmp_path / "trace.txt"
        path.write_text("alloc a\n")
        records = trace.replay_file(path, 1, 2 ** 61, "bitmap")
        with pytest.raises(ValueError, match="does not fit in memory"):
            next(records)

    @pytest.mark.parametrize("text, error", [
        ("alloc a\nfree a\n", None),
        ("alloc a\nalloc\n", TraceSyntaxError),
        ("alloc a\nfree b\n", UnknownId),
        ("".join(f"alloc n{i}\n" for i in range(5000)), GeneratorExit),
    ], ids=["exhausted", "syntax-error", "unknown-id", "closed-early"])
    def test_the_file_is_closed(self, monkeypatch, tmp_path, text, error):
        opened = []
        open_trace = trace.open_trace

        def spy(path):
            opened.append(open_trace(path))
            return opened[-1]

        monkeypatch.setattr(trace, "open_trace", spy)
        path = tmp_path / "trace.txt"
        path.write_text(text)
        records = trace.replay_file(path, 8, 8192, "bitmap")
        if error is None:
            assert len([r for block in records for r in block]) == 1
        elif error is GeneratorExit:
            # stopped after its first block, with more of the file to read
            assert len(next(records)) < 5000
            assert not opened[0].closed
            records.close()
        else:
            with pytest.raises(error):
                list(records)
        assert len(opened) == 1 and opened[0].closed


class TestRoundTrip:
    def test_explicit(self):
        text = "alloc a\nalloc_hint b a\nfree a\n"
        events = parse_trace(text)
        assert format_trace(events) == text
        assert parse_trace(format_trace(events)) == events

    ids = st.text(alphabet="abcdefgh_019", min_size=1, max_size=4)

    @given(specs=st.lists(st.tuples(st.sampled_from(["alloc", "free", "alloc_hint"]),
                                    ids, ids), max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_print_parse_identity(self, specs):
        events = [
            TraceEvent(op, a, b if op == "alloc_hint" else None, i + 1)
            for i, (op, a, b) in enumerate(specs)
        ]
        assert parse_trace(format_trace(events)) == events


class TestReplay:
    def test_freed_slot_is_reused(self):
        events = parse_trace("alloc a\nalloc b\nfree a\nalloc c\n")
        for kind in ("bitmap", "freelist_lifo"):
            records = replay(events, Pool(16, 8, kind), {})
            assert [r.slot for r in records] == [0, 1, 0]
            assert [r.offset for r in records] == [0, 16, 0]

    def test_worked_hint_scenario(self):
        lines = [f"alloc n{i}" for i in range(8)]
        lines += [f"free n{i}" for i in range(4)]
        lines.append("alloc_hint x n4")
        records = replay(parse_trace("\n".join(lines) + "\n"),
                         Pool(32, 8, "bitmap"), {})
        assert records[-1].slot == 3

    def test_free_of_unknown_id_cites_line(self):
        with pytest.raises(UnknownId) as err:
            replay(parse_trace("alloc a\nfree b\n"), Pool(1, 8, "bitmap"), {})
        assert err.value.line_no == 2

    def test_duplicate_alloc_id(self):
        with pytest.raises(DuplicateId):
            replay(parse_trace("alloc a\nalloc a\n"), Pool(1, 8, "bitmap"), {})

    def test_hint_of_unknown_id(self):
        with pytest.raises(UnknownId):
            replay(parse_trace("alloc_hint a b\n"), Pool(1, 8, "bitmap"), {})

    def test_pool_exhaustion_cites_line(self):
        text = "alloc a\nalloc b\nalloc c\n"
        with pytest.raises(ReplayError) as err:
            replay(parse_trace(text), Pool(1, 2, "bitmap"), {})
        assert err.value.line_no == 3

    def test_tree_and_linear_oracle_agree_without_hints(self):
        text = churn_trace(64, 0.6, 500, 5)
        events = parse_trace(text)
        tree_records = replay(events, Pool(8, 64, "bitmap"), {})
        linear_records = replay(events, Pool(8, 64, "linear_bitmap"), {})
        assert [r.slot for r in tree_records] == [r.slot for r in linear_records]


class TestGenerate:
    def test_lifecycle_is_deterministic(self):
        a = lifecycle_trace(4, 7)
        assert a == lifecycle_trace(4, 7)
        records = replay(parse_trace(a), Pool(1, 4, "bitmap"), {})
        assert records == replay(parse_trace(a), Pool(1, 4, "bitmap"), {})

    def test_churn_frees_only_live_ids(self):
        for capacity, fill, ops, seed in [
            (32, 0.7, 100, 1), (64, 0.0, 50, 2), (100, 0.5, 0, 1),
            (1, 0.0, 9, 0), (1, 0.7, 0, 0), (7, 0.99, 300, 3),
        ]:
            events = parse_trace(churn_trace(capacity, fill, ops, seed))
            # raises if invalid
            replay(events, Pool(1, capacity, "freelist_lifo"), {})
            # the schedule numbers the allocations c0, c1, c2, ... in order
            allocs = [ev.id for ev in events if ev.op == "alloc"]
            assert allocs == [f"c{k}" for k in range(len(allocs))]

    def test_lifecycle_rebuild_is_in_slot_order_under_bitmap(self):
        text = lifecycle_trace(16, 3)
        records = replay(parse_trace(text), Pool(1, 16, "bitmap"), {})
        rebuild = [r.slot for r in records if r.event.id.startswith("m")]
        assert rebuild == list(range(16))

    @pytest.mark.parametrize("kind", POLICY_KINDS)
    @pytest.mark.parametrize("node_count,seed", [
        (1, 0), (2, 1), (257, 0), (257, 1), (257, 2),
    ])
    def test_lifecycle_trace_reproduces_runner(self, kind, node_count, seed):
        text = lifecycle_trace(node_count, seed)
        records = replay(parse_trace(text), Pool(32, node_count, kind), {})
        offsets = [r.offset for r in records]
        report = run_list_lifecycle(kind, node_count, 32, seed)
        assert measure(offsets[:node_count], 32) == report.first_traversal
        assert measure(offsets[node_count:], 32) == report.second_traversal

    @pytest.mark.parametrize("kind", POLICY_KINDS)
    @pytest.mark.parametrize("capacity,fill,ops,seed", [
        (64, 0.6, 500, 0), (64, 0.6, 500, 1), (64, 0.6, 500, 2),
        (100, 0.5, 0, 1),   # ops == 0: the report covers the initial fill
        (64, 0.0, 50, 2),   # fill 0: every allocation is freed next step
        (1, 0.0, 9, 0), (1, 0.7, 9, 3), (1, 0.7, 0, 0),  # capacity 1
    ])
    def test_churn_trace_reproduces_runner(self, kind, capacity, fill, ops,
                                           seed):
        text = churn_trace(capacity, fill, ops, seed)
        events = parse_trace(text)
        live = sum(1 if ev.op == "alloc" else -1 for ev in events)
        refill = [TraceEvent("alloc", f"r{i}") for i in range(capacity - live)]
        records = replay(events + refill, Pool(32, capacity, kind), {})
        offsets = [r.offset for r in records]
        if ops == 0:
            batch = offsets[:live]
        else:
            batch = offsets[len(offsets) - len(refill):]
        assert measure(batch, 32) == run_random_churn(kind, capacity, fill,
                                                      ops, seed, 32)

    def test_generated_text_round_trips(self):
        text = lifecycle_trace(6, 9)
        assert format_trace(parse_trace(text)) == text
