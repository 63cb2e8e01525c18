"""Command-line interface: benchmarks, trace replay, and a worked demo.

Exit codes: 0 success, 1 runtime or trace error, 2 usage error.
Configuration is flags-only, and identical flags produce byte-identical
output; --timestamp only adds a key to the JSON config.  No environment
variable changes the output; the one consulted is tempfile's TMPDIR, the
directory where replay output beyond SPOOL_BYTES waits until the replay
has succeeded (one that cannot be written exits 1 naming the OS error).
``replay`` renders only what ``trace.replay_file`` yields.
"""

import argparse
import functools
import json
import sys
import time
from json.encoder import encode_basestring_ascii

from .bittree import BitTree
from .errors import AllocatorError, TraceError
from .pool import POLICY_KINDS
from .trace import replay_file
from .workload import LocalityReport, run_list_lifecycle, run_random_churn

ALLOCATOR_CHOICES = tuple(kind.replace("_", "-") for kind in POLICY_KINDS)

# top-level shape of every JSON report this tool emits
REPORT_SCHEMA = {
    "type": "object",
    "required": ["command", "config", "reports"],
    "properties": {
        "command": {"type": "string"},
        "config": {"type": "object"},
        "reports": {"type": "array", "items": {"type": "object"}},
    },
}

LOCALITY_FIELDS = LocalityReport._fields

# bytes of replay output held in memory before they spill to a file
SPOOL_BYTES = 1 << 20

# one record of a replay's JSON report as json.dumps(indent=2,
# sort_keys=True) writes it, comma first; the id goes in already quoted
# by encode_basestring_ascii, the encoder json.dumps uses, and ops are
# plain words
_JSON_RECORD = (',\n        {\n          "id": %s,\n          "line": %d,'
                '\n          "offset": %d,\n          "op": "%s",'
                '\n          "slot": %d\n        }')


def _converted(convert, noun: str, text: str):
    # argparse names the converter in its own message, so say it plainly
    try:
        return convert(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not {noun}: {text!r}") from None


def _int_at_least(low: int):
    def convert(text: str) -> int:
        value = _converted(int, "an integer", text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return convert


def _fill_ratio(text: str) -> float:
    value = _converted(float, "a number", text)
    if not 0.0 <= value < 1.0:
        raise argparse.ArgumentTypeError(f"must be in [0, 1), got {value}")
    return value


def _policy_kind(allocator: str) -> str:
    return allocator.replace("-", "_")


class _SubcommandParser(argparse.ArgumentParser):
    """A subcommand's parser.  argparse hands a subcommand's unknown
    arguments back to the top-level parser, whose usage lists no flag of
    the subcommand; this one reports them with its own usage instead."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


@functools.cache  # one parser per process; parse_args keeps no state in it
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bitfit",
        description="Pool-allocator locality benchmarks and trace replay.",
    )
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_SubcommandParser)

    def common(p, seeded):  # bench and replay; demo reads no flag
        p.add_argument("--allocator", choices=ALLOCATOR_CHOICES, default="bitmap")
        p.add_argument("--slots", type=_int_at_least(1), default=1024)
        p.add_argument("--slot-size", type=_int_at_least(1), default=32)
        if seeded:  # a replay draws no random number and measures no cache line
            p.add_argument("--seed", type=_int_at_least(0), default=0)
            p.add_argument("--line-size", type=_int_at_least(1), default=64)
        p.add_argument("--format", choices=("text", "json", "csv"), default="text")
        p.add_argument("--timestamp", action="store_true",
                       help="include a wall-clock timestamp in the report")

    bench = sub.add_parser("bench", help="run a locality benchmark")
    common(bench, seeded=True)
    bench.add_argument("--workload", choices=("lifecycle", "churn"),
                       default="lifecycle")
    bench.add_argument("--fill", type=_fill_ratio, default=0.7,
                       help="target fill ratio for the churn workload")
    bench.add_argument("--ops", type=_int_at_least(0), default=1000,
                       help="churn operation count")
    bench.set_defaults(handler=cmd_bench)

    rep = sub.add_parser("replay", help="replay a trace file")
    common(rep, seeded=False)
    rep.add_argument("--trace", required=True, help="path to the trace file")
    rep.set_defaults(handler=cmd_replay)

    demo = sub.add_parser("demo", help="walk the 8-slot worked examples")
    demo.set_defaults(handler=cmd_demo)
    return parser


def _config_dict(args, keys):
    config = {key: getattr(args, key) for key in keys}
    if args.timestamp:
        config["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    return config


def cmd_bench(args) -> int:
    policy = _policy_kind(args.allocator)
    config = _config_dict(
        args, ("allocator", "slots", "slot_size", "seed", "line_size", "workload"))
    try:
        if args.workload == "lifecycle":
            report = run_list_lifecycle(policy, args.slots, args.slot_size,
                                        args.seed, args.line_size)
            body = {"kind": "lifecycle", **report._asdict()}
        else:
            config["fill"] = args.fill
            config["ops"] = args.ops
            batch = run_random_churn(policy, args.slots, args.fill, args.ops,
                                     args.seed, args.slot_size, args.line_size)
            body = {"kind": "churn", "batch": batch}
    except MemoryError:
        print(f"error: the {args.workload} workload at {args.slots} slots "
              "does not fit in memory", file=sys.stderr)
        return 1
    # the locality reports, in the order their record declares them, as
    # dicts: _asdict is shallow, and json would write a tuple as a list
    traversals = {name: item._asdict() for name, item in body.items()
                  if isinstance(item, LocalityReport)}
    body.update(traversals)

    if args.format == "json":
        print(json.dumps({"command": "bench", "config": config,
                          "reports": [body]}, indent=2, sort_keys=True))
    elif args.format == "csv":
        print(",".join(("report", *LOCALITY_FIELDS)))
        for name, item in traversals.items():
            print(",".join((name, *map(str, item.values()))))
    else:
        print(f"workload: {args.workload}  allocator: {args.allocator}  "
              f"slots: {args.slots}  slot-size: {args.slot_size}  seed: {args.seed}")
        for name, item in traversals.items():
            print(f"{name}:")
            for field, value in item.items():
                print(f"  {field}: {value}")
    return 0


def cmd_replay(args) -> int:
    # imported here, so that importing bitfit.cli loads neither
    import shutil
    import tempfile

    policy = _policy_kind(args.allocator)
    config = _config_dict(
        args, ("allocator", "slots", "slot_size", "trace"))
    # the report waits in the spool until the last block has replayed, so
    # a failed replay writes nothing to stdout
    spool = tempfile.SpooledTemporaryFile(SPOOL_BYTES, "w+", encoding="utf-8",
                                          newline="")
    as_json = args.format == "json"
    try:
        with spool:
            if as_json:
                # the report around an empty record list, cut open inside
                # the list
                body = {"kind": "replay", "records": []}
                doc = json.dumps({"command": "replay", "config": config,
                                  "reports": [body]}, indent=2, sort_keys=True)
                head, opening, tail = doc.rpartition('"records": [')
                spool.write(head + opening)
                comma = 1  # the first record drops its leading comma
            else:
                # text and csv share the canonical record table
                spool.write("line,op,id,slot,offset\n")
            for records in replay_file(args.trace, args.slot_size,
                                       args.slots, policy):
                if not as_json:
                    spool.write("".join([
                        f"{line_no},{op},{id_},{slot},{offset}\n"
                        for (op, id_, _, line_no), slot, offset in records]))
                elif records:
                    spool.write("".join([
                        _JSON_RECORD % (encode_basestring_ascii(id_), line_no,
                                        offset, op, slot)
                        for (op, id_, _, line_no), slot, offset in records
                    ])[comma:])
                    comma = 0
            if as_json:
                spool.write(("" if comma else "\n      ") + tail + "\n")
            spool.seek(0)
            shutil.copyfileobj(spool, sys.stdout)
    except MemoryError:
        print(f"error: trace {args.trace} does not fit in memory",
              file=sys.stderr)
        return 1
    return 0


def _bit_rows(label: str, tree: BitTree) -> str:
    indices = " ".join(f"{i:2d}" for i in range(len(tree.bits)))
    values = " ".join(f"{bit:2d}" for bit in tree.bits)
    return f"{label}\n  index: {indices}\n  bit:   {values}"


def cmd_demo(args) -> int:
    print("8-slot occupancy tree: 15 bits, root at index 0, "
          "children of i at 2i+1 and 2i+2, leaves at indices 7..14.\n")

    # [1] prints the paper's descent from the root.  ``BitTree`` descends
    # only when the leaf of its first-fit floor ``low`` is used; on a fresh
    # tree it reads leaf 7 (``low`` = 0) directly, for the same slot and bits.
    tree = BitTree(8)
    print("[1] first allocation on a fresh tree")
    print(_bit_rows("before:", tree))
    slot = tree.allocate()
    print(f"descend left from the root to leaf bit 7 -> slot {slot}")
    print(_bit_rows("after:", tree))

    print("\n[2] free the 6th slot of a tree with slots 0..5 in use")
    tree = BitTree(8)
    for _ in range(6):
        tree.allocate()
    print(_bit_rows("before:", tree))
    tree.release(5)
    print("clear leaf bit 12, then ancestors 5 and stop at 2 (already 0)")
    print(_bit_rows("after:", tree))

    print("\n[3] hint allocation toward leaf 11 with the right half full")
    tree = BitTree(8)
    for _ in range(8):
        tree.allocate()
    for s in range(4):
        tree.release(s)
    print(_bit_rows("before (slots 4..7 used, internal bit 2 is 1):", tree))
    slot = tree.allocate_with_hint(4)
    print(f"hint path blocked at bit 2; descend 0 -> 1 -> 4 -> leaf 10 "
          f"-> slot {slot}")
    print(_bit_rows("after:", tree))
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    try:
        return args.handler(args)
    except (AllocatorError, TraceError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
