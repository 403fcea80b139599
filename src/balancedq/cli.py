"""Command-line interface.

Subcommands:

- encode / decode: run one construction on a single word.
- count / redundancy: exact or approximate figures for one (kind, n, q).
- table1: exact vs approximate redundancy of jointly balanced words at
  q=4 over a fixed n grid.
- table2: asymptotic normalized redundancy grid by kind and q.
- sweep: exact and approximate redundancy over a user range of n.

Words travel as comma-separated symbols ("+4,+4,-2,0,0,0,0"); codewords
as "prefix|payload".  Exit codes: 0 success, 2 infeasible parameters,
3 parse error, 4 decode failure.  Data goes to stdout, diagnostics to
stderr.

The encode/decode half imports codebook and codecs, and the output helpers
import json and csv, only where they are used, so a counting command loads
only the counting stack.
"""

from __future__ import annotations

import argparse
import re
import sys
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from .alphabet import format_word, parse_word, symbols
from .asymptotics import anr, approx_count, approx_redundancy
from .counting import KINDS, exact_count, exact_redundancy
from .errors import (
    AlphabetError,
    CapacityError,
    DecodeError,
    InfeasibleParamsError,
    InvalidIndexError,
    WordParseError,
)

if TYPE_CHECKING:
    from .codecs import Codeword

#: codebook.CONSTRUCTIONS, spelled out so that the parser can offer the
#: names without loading the codebook (a test keeps the two equal)
CONSTRUCTIONS = ("knuth", "pb", "cb", "cpb", "sb")

TABLE1_N = (10, 20, 40, 60, 80, 100, 200, 400, 600, 800, 1000)

EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_PARSE = 3
EXIT_DECODE = 4


def _fail(message: str) -> None:
    print(f"balancedq: {message}", file=sys.stderr)


def _input_text(args: argparse.Namespace) -> str:
    if args.word is not None:
        return args.word
    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError as exc:
        raise WordParseError(f"cannot read {args.file}: {exc}") from exc


def _parse_word_for(text: str, q: int) -> Tuple[int, ...]:
    word = parse_word(text)
    alpha = symbols(q)
    bad = [x for x in word if x not in alpha]
    if bad:
        raise WordParseError(f"symbols {bad} are not in the order-{q} alphabet")
    return word


def _parse_codeword(text: str, q: int) -> Codeword:
    from .codecs import Codeword

    if text.count("|") != 1:
        raise WordParseError("a codeword is written 'prefix|payload'")
    left, right = text.split("|")
    return Codeword(_parse_word_for(left, q), _parse_word_for(right, q))


def _parse_inject(text: str) -> Dict:
    """Parse an injection spec like 'a=-2,z=6' or 'i=3:3'."""
    from .codebook import SPECS

    # every pinnable side-info field of any construction, and whether it has
    # one value per round (written as a ':'-separated list)
    inject_fields = {
        f.name: (f, spec.rounds is not None)
        for spec in SPECS.values()
        for f in spec.fields
        if f.arg is not None
    }
    out: Dict = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        name, sep, val = part.partition("=")
        name, val = name.strip(), val.strip()
        if not sep or not name or not val:
            raise WordParseError(f"bad injection field {part!r}, expected name=value")
        if name in out:
            raise WordParseError(f"duplicate injection field {name!r}")
        if name not in inject_fields:
            raise WordParseError(f"unknown injection field {name!r}")
        field, per_round = inject_fields[name]
        if per_round:
            try:
                out[name] = tuple(int(v) for v in val.split(":"))
            except ValueError as exc:
                raise WordParseError(f"bad split list {val!r}, expected {name}=3:1:4") from exc
        elif isinstance(field.values, tuple):
            if val not in field.values:
                allowed = " or ".join(map(repr, field.values))
                raise WordParseError(f"{name} must be {allowed}, got {val!r}")
            out[name] = val
        else:
            try:
                out[name] = int(val)
            except ValueError as exc:
                raise WordParseError(f"injection field {name} needs an integer, got {val!r}") from exc
    return out


def _side_fields(side) -> List[Tuple[str, object]]:
    """The pinnable fields the side info has, in --inject's name=value form."""
    from .codebook import SPEC_OF_SIDE

    spec = SPEC_OF_SIDE[type(side)]
    items = spec.items(side)
    fields: List[Tuple[str, object]] = []
    for col, field in enumerate(spec.fields):
        values = items[col :: len(spec.fields)]
        if field.arg is not None and values[0] is not None:
            fields.append((field.name, ":".join(map(str, values)) if spec.rounds else values[0]))
    return fields


def _side_text(side) -> str:
    return ",".join(f"{name}={value}" for name, value in _side_fields(side))


def _side_json(side):
    from .codebook import SPEC_OF_SIDE

    spec = SPEC_OF_SIDE[type(side)]
    if spec.rounds:
        names = [f.name for f in spec.fields]
        return {"rounds": [dict(zip(names, g)) for g in side.rounds]}
    return dict(_side_fields(side))


def _print_json(obj) -> None:
    import json

    print(json.dumps(obj, sort_keys=True))


def _print_csv(columns: Sequence[str], rows: Sequence[Sequence]) -> None:
    import csv

    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(rows)


def _print_text_table(columns: Sequence[str], rows: Sequence[Sequence]) -> None:
    cells = [[str(v) for v in row] for row in rows]
    widths = [
        max(len(col), *(len(row[i]) for row in cells)) if cells else len(col)
        for i, col in enumerate(columns)
    ]
    print("  ".join(col.rjust(w) for col, w in zip(columns, widths)))
    for row in cells:
        print("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))


def _emit_table(args, columns: Sequence[str], rows: Sequence[Dict]) -> None:
    if args.format == "json":
        _print_json(rows)
    elif args.format == "csv":
        _print_csv(columns, [[row[c] for c in columns] for row in rows])
    else:
        _print_text_table(columns, [[row[c] for c in columns] for row in rows])


def _round4(x: float) -> float:
    return float(f"{x:.4f}")


def cmd_encode(args: argparse.Namespace) -> int:
    from .codecs import CodecParams, encode

    word = _parse_word_for(_input_text(args), args.q)
    if args.k is not None and args.k != len(word):
        raise InfeasibleParamsError(f"--k {args.k} does not match the word length {len(word)}")
    params = CodecParams(args.kind, args.q, len(word))
    inject = _parse_inject(args.inject) if args.inject else None
    codeword, side = encode(word, params, inject)
    prefix = format_word(codeword.prefix)
    payload = format_word(codeword.payload)
    if args.format == "json":
        data = {"prefix": prefix, "payload": payload, "codeword": f"{prefix}|{payload}"}
        if args.emit_sideinfo:
            data["sideinfo"] = _side_json(side)
        _print_json(data)
    elif args.format == "csv":
        columns = ["codeword", "prefix", "payload"]
        row = [f"{prefix}|{payload}", prefix, payload]
        if args.emit_sideinfo:
            columns.append("sideinfo")
            row.append(_side_text(side))
        _print_csv(columns, [row])
    else:
        print(f"{prefix}|{payload}")
        if args.emit_sideinfo:
            print(_side_text(side))
    return EXIT_OK


def cmd_decode(args: argparse.Namespace) -> int:
    from .codecs import CodecParams, decode

    codeword = _parse_codeword(_input_text(args), args.q)
    if args.k is not None and args.k != len(codeword.payload):
        raise InfeasibleParamsError(
            f"--k {args.k} does not match the payload length {len(codeword.payload)}"
        )
    params = CodecParams(args.kind, args.q, len(codeword.payload))
    word = decode(codeword, params)
    text = format_word(word)
    if args.format == "json":
        _print_json({"word": text})
    elif args.format == "csv":
        _print_csv(["word"], [[text]])
    else:
        print(text)
    return EXIT_OK


def _scalar_out(args, fields: Dict, value) -> None:
    if args.format == "json":
        _print_json({**fields, "value": value})
    elif args.format == "csv":
        columns = list(fields) + ["value"]
        _print_csv(columns, [[fields[c] for c in fields] + [value]])
    else:
        print(value)


def cmd_count(args: argparse.Namespace) -> int:
    if args.n < 0:
        raise InfeasibleParamsError(f"word length must be >= 0, got {args.n}")
    mode = "approx" if args.approx else "exact"
    if mode == "exact":
        value = exact_count(args.kind, args.n, args.q)
    else:
        try:
            value = approx_count(args.kind, args.n, args.q)
        except OverflowError:
            raise InfeasibleParamsError(
                f"the approximate {args.kind} count at n={args.n}, q={args.q} overflows "
                "a double; use 'redundancy --approx' for its logarithm"
            ) from None
    _scalar_out(args, {"kind": args.kind, "q": args.q, "n": args.n, "mode": mode}, value)
    return EXIT_OK


def cmd_redundancy(args: argparse.Namespace) -> int:
    if args.n < 0:
        raise InfeasibleParamsError(f"word length must be >= 0, got {args.n}")
    mode = "approx" if args.approx else "exact"
    if mode == "exact":
        value = exact_redundancy(args.kind, args.n, args.q)
    else:
        value = approx_redundancy(args.kind, args.n, args.q)
    _scalar_out(args, {"kind": args.kind, "q": args.q, "n": args.n, "mode": mode}, value)
    return EXIT_OK


def cmd_table1(args: argparse.Namespace) -> int:
    rows = [
        {
            "n": n,
            "exact": _round4(exact_redundancy("cpb", n, 4)),
            "approx": _round4(approx_redundancy("cpb", n, 4)),
        }
        for n in TABLE1_N
    ]
    if args.format == "text":
        shown = [
            {"n": r["n"], "exact": f"{r['exact']:.4f}", "approx": f"{r['approx']:.4f}"}
            for r in rows
        ]
        _emit_table(args, ["n", "exact", "approx"], shown)
    else:
        _emit_table(args, ["n", "exact", "approx"], rows)
    return EXIT_OK


def cmd_table2(args: argparse.Namespace) -> int:
    if args.max_q < 2:
        raise InfeasibleParamsError(f"--max-q must be >= 2, got {args.max_q}")
    rows = []
    for q in range(2, args.max_q + 1):
        row: Dict = {"q": q}
        for kind in KINDS:
            value = float(anr(kind, q))
            row[kind] = f"{value:.4f}" if args.format == "text" else _round4(value)
        rows.append(row)
    _emit_table(args, ["q"] + list(KINDS), rows)
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.start < 1 or args.stop < args.start:
        raise InfeasibleParamsError(
            f"need 1 <= start <= stop, got start={args.start} stop={args.stop}"
        )
    if args.step < 1:
        raise InfeasibleParamsError(f"--step must be >= 1, got {args.step}")
    rows = []
    for n in range(args.start, args.stop + 1, args.step):
        try:
            exact = exact_redundancy(args.kind, n, args.q)
            approx = approx_redundancy(args.kind, n, args.q)
        except InfeasibleParamsError:
            continue
        rows.append({"n": n, "exact": _round4(exact), "approx": _round4(approx)})
    if args.format == "text":
        shown = [
            {"n": r["n"], "exact": f"{r['exact']:.4f}", "approx": f"{r['approx']:.4f}"}
            for r in rows
        ]
        _emit_table(args, ["n", "exact", "approx"], shown)
    else:
        _emit_table(args, ["n", "exact", "approx"], rows)
    return EXIT_OK


def _add_format(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format", choices=("text", "json", "csv"), default="text", help="output format"
    )


def _add_word_source(parser: argparse.ArgumentParser) -> None:
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--word", help="inline word text")
    source.add_argument("--file", help="path to a file holding the word text")


class _WordFriendlyParser(argparse.ArgumentParser):
    """Treats tokens like '-2,+4,0' as values, not option flags."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\d")


def build_parser() -> argparse.ArgumentParser:
    parser = _WordFriendlyParser(
        prog="balancedq",
        description="Balanced q-ary block codes: counting, redundancy, and encoders.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    enc = sub.add_parser("encode", help="encode a data word into a balanced codeword")
    enc.add_argument("--kind", required=True, choices=CONSTRUCTIONS)
    enc.add_argument("--q", type=int, required=True, help="alphabet order")
    enc.add_argument("--k", type=int, help="expected data length (checked against the word)")
    _add_word_source(enc)
    enc.add_argument("--inject", help="pin balancing indices, e.g. 'a=-2,z=6' or 'i=3:3'")
    enc.add_argument("--emit-sideinfo", action="store_true", help="also print the side info")
    _add_format(enc)
    enc.set_defaults(func=cmd_encode)

    dec = sub.add_parser("decode", help="decode a 'prefix|payload' codeword")
    dec.add_argument("--kind", required=True, choices=CONSTRUCTIONS)
    dec.add_argument("--q", type=int, required=True, help="alphabet order")
    dec.add_argument("--k", type=int, help="expected payload length (checked)")
    _add_word_source(dec)
    _add_format(dec)
    dec.set_defaults(func=cmd_decode)

    for name, func, summary in (
        ("count", cmd_count, "count balanced words of one length"),
        ("redundancy", cmd_redundancy, "redundancy of balanced words of one length"),
    ):
        cp = sub.add_parser(name, help=summary)
        cp.add_argument("--kind", required=True, choices=KINDS)
        cp.add_argument("--q", type=int, required=True, help="alphabet order")
        cp.add_argument("--n", type=int, required=True, help="word length")
        mode = cp.add_mutually_exclusive_group()
        mode.add_argument("--exact", action="store_true", help="exact value (default)")
        mode.add_argument("--approx", action="store_true", help="Gaussian approximation")
        _add_format(cp)
        cp.set_defaults(func=func)

    t1 = sub.add_parser(
        "table1", help="exact vs approximate redundancy, jointly balanced, q=4"
    )
    _add_format(t1)
    t1.set_defaults(func=cmd_table1)

    t2 = sub.add_parser("table2", help="asymptotic normalized redundancy grid")
    t2.add_argument("--max-q", type=int, default=7, help="largest alphabet order (default 7)")
    _add_format(t2)
    t2.set_defaults(func=cmd_table2)

    sw = sub.add_parser("sweep", help="redundancy over a range of lengths")
    sw.add_argument("--kind", required=True, choices=KINDS)
    sw.add_argument("--q", type=int, required=True, help="alphabet order")
    sw.add_argument("--start", type=int, required=True, help="first length")
    sw.add_argument("--stop", type=int, required=True, help="last length (inclusive)")
    sw.add_argument("--step", type=int, default=1, help="length increment (default 1)")
    _add_format(sw)
    sw.set_defaults(func=cmd_sweep)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except WordParseError as exc:
        _fail(str(exc))
        return EXIT_PARSE
    except DecodeError as exc:
        _fail(str(exc))
        return EXIT_DECODE
    except (InfeasibleParamsError, InvalidIndexError, CapacityError, AlphabetError) as exc:
        _fail(str(exc))
        return EXIT_INFEASIBLE


if __name__ == "__main__":
    sys.exit(main())
