"""Record bench/reference.json from the balancedq sources of this checkout.

The benchmark checks codewords and exact values against this file, so it
pins today's outputs.  Regenerate it only when a change means to alter
outputs, and say so in that change:

    python3 bench/make_reference.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from bench import workloads as w  # noqa: E402


def codec_reference(bq) -> dict:
    out = {}
    for workload in ("codec-short", "codec-long"):
        deck = [item for item in w.codec_deck(workload, 0) if item.golden]
        for item in sorted(deck, key=lambda item: item.key):
            cw, _ = bq.encode(item.word, bq.CodecParams(item.kind, item.q, item.k))
            entry = [w.digest(w.word_text(item.word)), w.digest(w.codeword_text(cw))]
            out.setdefault(item.key.rsplit(":", 1)[0], []).append(entry)
    return out


def sweep_reference(bq) -> dict:
    return {
        f"{kind}:{q}": ",".join(
            f"{bq.exact_redundancy(kind, n, q):.10f}"
            for n in range(1, w.SWEEP_MAX_N + 1)
            if w.feasible(kind, n, q)
        )
        for kind in w.KINDS
        for q in w.SWEEP_ORDERS
    }


def point_value(bq, query: w.PointQuery) -> str:
    if query.cmd == "count" and query.mode == "exact":
        return w.digest(str(bq.exact_count(query.kind, query.n, query.q)))
    if query.cmd == "count":
        try:
            return repr(bq.approx_count(query.kind, query.n, query.q))
        except OverflowError:
            return "overflow"
    if query.mode == "exact":
        return repr(bq.exact_redundancy(query.kind, query.n, query.q))
    return repr(bq.approx_redundancy(query.kind, query.n, query.q))


def point_reference(bq) -> dict:
    queries = [
        w.PointQuery(cmd, mode, kind, q, n)
        for kind in w.KINDS
        for q in w.POINT_ORDERS
        for mode in ("exact", "approx")
        for n in w.point_candidates(kind, q, mode)
        for cmd in ("count", "redundancy")
    ]
    # ascending n per (kind, q) lets the counting tables grow once
    queries.sort(key=lambda x: (x.kind, x.q, x.n))
    return {x.key: point_value(bq, x) for x in queries}


def main() -> None:
    bq = w.import_program()
    reference = {
        "codec": codec_reference(bq),
        "sweep": sweep_reference(bq),
        "point": dict(sorted(point_reference(bq).items())),
    }
    with open(w.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=0, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
