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

Every command hands its columns and rows to one emitter, ``_emit``, the
only code that knows the text, json and csv formats.  It prints ints of any
size: it lifts Python's digit limit on int-to-text conversion for the time
it prints, so exact counts past 4300 digits print in every format, while
input parsing keeps the limit.

Each command imports the modules it calls when it runs, and the emitter
imports json and csv only where they are used.  An exact count or
redundancy loads errors and counting, an approximate one errors and
asymptotics, table1 and sweep both, and table2 asymptotics; only encode and
decode load alphabet, codebook and codecs.
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from .errors import (
    KINDS,
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


def __getattr__(name):
    """The figures count, redundancy, table1 and sweep compute, each loaded
    with its module on first use and then bound in this module."""
    if name in ("exact_count", "exact_redundancy"):
        from . import counting as home
    elif name in ("approx_count", "approx_redundancy"):
        from . import asymptotics as home
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(home, name)
    return value


def _figure(name: str):
    # looked up at call time, so that a rebinding of the module's name holds
    return globals().get(name) or __getattr__(name)


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
    from .alphabet import _symbol_set, parse_word

    word = parse_word(text)
    alpha = _symbol_set(q)
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


def _side_json(side):
    from .codebook import SPEC_OF_SIDE

    spec = SPEC_OF_SIDE[type(side)]
    if spec.rounds:
        names = [f.name for f in spec.fields]
        return {"rounds": [dict(zip(names, g)) for g in side.rounds]}
    return dict(_side_fields(side))


def _emit(args: argparse.Namespace, columns: Sequence[str], rows, lines: Sequence[str] = ()):
    """Print a command's result in args.format; the only writer of stdout.

    rows is one dict for a single-result command and a list of dicts for a
    table.  json prints it as one object or a list; csv prints the columns
    as a header, then the rows; text prints, for a single result, the values
    of its ``lines`` columns one per line, and a table as right-aligned
    columns with floats to 4 decimals.  Ints of any size print: the digit
    limit of int-to-text conversion is lifted here and only here.
    """
    limit = getattr(sys, "get_int_max_str_digits", None)  # 3.10.7 and later
    saved = limit() if limit else 0
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        single = isinstance(rows, dict)
        table = [rows] if single else rows
        if args.format == "json":
            import json

            print(json.dumps(rows, sort_keys=True))
        elif args.format == "csv":
            import csv

            writer = csv.writer(sys.stdout, lineterminator="\n")
            writer.writerow(columns)
            writer.writerows([row[c] for c in columns] for row in table)
        elif single:
            for column in lines:
                print(rows[column])
        else:
            cells = [
                [f"{v:.4f}" if isinstance(v, float) else str(v) for v in (row[c] for c in columns)]
                for row in table
            ]
            widths = [max([len(c)] + [len(row[i]) for row in cells]) for i, c in enumerate(columns)]
            for line in [columns, *cells]:
                print("  ".join(cell.rjust(w) for cell, w in zip(line, widths)))
    finally:
        if limit:
            sys.set_int_max_str_digits(saved)


def _round4(x: float) -> float:
    return float(f"{x:.4f}")


def cmd_encode(args: argparse.Namespace) -> int:
    from .alphabet import format_word
    from .codecs import CodecParams, encode

    word = _parse_word_for(_input_text(args), args.q)
    if args.k is not None and args.k != len(word):
        raise InfeasibleParamsError(f"--k {args.k} does not match the word length {len(word)}")
    params = CodecParams(args.kind, args.q, len(word))
    inject = _parse_inject(args.inject) if args.inject else None
    codeword, side = encode(word, params, inject)
    prefix = format_word(codeword.prefix)
    payload = format_word(codeword.payload)
    row = {"codeword": f"{prefix}|{payload}", "prefix": prefix, "payload": payload}
    if args.emit_sideinfo:
        if args.format == "json":
            row["sideinfo"] = _side_json(side)
        else:
            row["sideinfo"] = ",".join(f"{name}={value}" for name, value in _side_fields(side))
    _emit(args, list(row), row, ["codeword", "sideinfo"] if args.emit_sideinfo else ["codeword"])
    return EXIT_OK


def cmd_decode(args: argparse.Namespace) -> int:
    from .alphabet import format_word
    from .codecs import CodecParams, decode

    codeword = _parse_codeword(_input_text(args), args.q)
    if args.k is not None and args.k != len(codeword.payload):
        raise InfeasibleParamsError(
            f"--k {args.k} does not match the payload length {len(codeword.payload)}"
        )
    params = CodecParams(args.kind, args.q, len(codeword.payload))
    _emit(args, ["word"], {"word": format_word(decode(codeword, params))}, ["word"])
    return EXIT_OK


def cmd_figure(args: argparse.Namespace) -> int:
    """count and redundancy: the exact (default) or approximate figure."""
    if args.n < 0:
        raise InfeasibleParamsError(f"word length must be >= 0, got {args.n}")
    mode = "approx" if args.approx else "exact"
    figure = _figure(f"{mode}_{args.command}")
    try:
        value = figure(args.kind, args.n, args.q)
    except OverflowError:  # feasible, but past a double: inf, and a note why
        _fail(
            f"the approximate {args.kind} count at n={args.n}, q={args.q} overflows "
            "a double; use 'redundancy --approx' for its logarithm"
        )
        value = float("inf")
    row = {"kind": args.kind, "q": args.q, "n": args.n, "mode": mode, "value": value}
    _emit(args, list(row), row, ["value"])
    return EXIT_OK


def _redundancy_table(args: argparse.Namespace, kind: str, q: int, lengths) -> int:
    """Exact and approximate redundancy at each feasible length."""
    from .counting import _check_nq

    _check_nq(0, q)  # a bad order fails the command; a length fails alone
    exact_redundancy = _figure("exact_redundancy")
    approx_redundancy = _figure("approx_redundancy")
    rows = []
    for n in lengths:
        try:
            exact = exact_redundancy(kind, n, q)
            approx = approx_redundancy(kind, n, q)
        except InfeasibleParamsError:  # no balanced word of length n
            continue
        rows.append({"n": n, "exact": _round4(exact), "approx": _round4(approx)})
    _emit(args, ["n", "exact", "approx"], rows)
    return EXIT_OK


def cmd_table1(args: argparse.Namespace) -> int:
    return _redundancy_table(args, "cpb", 4, TABLE1_N)


def cmd_table2(args: argparse.Namespace) -> int:
    from .asymptotics import anr

    if args.max_q < 2:
        raise InfeasibleParamsError(f"--max-q must be >= 2, got {args.max_q}")
    rows = [
        {"q": q, **{kind: _round4(float(anr(kind, q))) for kind in KINDS}}
        for q in range(2, args.max_q + 1)
    ]
    _emit(args, ["q", *KINDS], rows)
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.start < 1 or args.stop < args.start:
        raise InfeasibleParamsError(
            f"need 1 <= start <= stop, got start={args.start} stop={args.stop}"
        )
    if args.step < 1:
        raise InfeasibleParamsError(f"--step must be >= 1, got {args.step}")
    return _redundancy_table(args, args.kind, args.q, range(args.start, args.stop + 1, args.step))


def _add_format(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format", choices=("text", "json", "csv"), default="text", help="output format"
    )


def _add_word_source(parser: argparse.ArgumentParser) -> None:
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--word", help="inline word text")
    source.add_argument("--file", help="path to a file holding the word text")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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

    for name, summary in (
        ("count", "count balanced words of one length"),
        ("redundancy", "redundancy of balanced words of one length"),
    ):
        cp = sub.add_parser(name, help=summary)
        cp.add_argument("--kind", required=True, choices=KINDS)
        cp.add_argument("--q", type=int, required=True, help="alphabet order")
        cp.add_argument("--n", type=int, required=True, help="word length")
        mode = cp.add_mutually_exclusive_group()
        mode.add_argument("--exact", action="store_true", help="exact value (default)")
        mode.add_argument("--approx", action="store_true", help="Gaussian approximation")
        _add_format(cp)
        cp.set_defaults(func=cmd_figure)

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


#: the options of encode and decode whose text value may start with '-2'
_TEXT_OPTIONS = ("--word", "--file", "--inject")


def _word_values_joined(argv: Sequence[str]) -> List[str]:
    """argv with '--word -2,+4,0' written as '--word=-2,+4,0' in encode and
    decode, so that argparse reads a word that starts with a negative symbol
    as the value of --word, not as an option; the same for --file and
    --inject, and for a prefix of one of them (but not for '--')."""
    out = list(argv[:1])
    words = out in (["encode"], ["decode"])
    for token in argv[1:]:
        option = out[-1]
        takes_text = len(option) > 2 and any(o.startswith(option) for o in _TEXT_OPTIONS)
        if words and takes_text and token[:1] == "-" and token[1:2].isdigit():
            out[-1] = f"{option}={token}"
        else:
            out.append(token)
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = _word_values_joined(sys.argv[1:] if argv is None else argv)
    if argv[:1] in (["count"], ["redundancy"]):
        # load the query's module before the parser exists: compiled on the
        # smaller heap, it does not raise the process's peak memory
        _figure(("approx_" if "--approx" in argv else "exact_") + argv[0])
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
