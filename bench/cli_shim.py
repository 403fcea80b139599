"""Traced stand-in for ``python -m balancedq.cli`` used by count-point.

It times the import of balancedq.cli and, through bench.tracer, main and the
counting calls main makes; it then runs the CLI unchanged.  The spans go to
stderr as one ``BENCH-TRACE <json>`` line, and the process's peak RSS as a
``BENCH-HWM <KB>`` line, before any traceback; the exit code is the CLI's
own.  With BENCH_ALLOC=1 in the environment it also
records the tracemalloc peak of main.
"""

from __future__ import annotations

import json
import os
import sys
import tracemalloc
from time import monotonic_ns, perf_counter_ns

started = monotonic_ns()

from bench import workloads as w  # noqa: E402
from bench.tracer import Tracer  # noqa: E402


def main() -> None:
    sys.path.insert(0, str(w.SRC))
    t0 = perf_counter_ns()
    import balancedq
    from balancedq import cli

    import_ns = perf_counter_ns() - t0
    tracer = Tracer()
    alloc = os.environ.get("BENCH_ALLOC") == "1"
    if not alloc:
        w.trace_cli(tracer, cli)
    before = w.cache_counts(balancedq)
    if alloc:
        tracemalloc.start()
    code = 1
    try:
        code = cli.main(sys.argv[1:])
    finally:
        record = {
            "startup_ns": started - int(os.environ.get("BENCH_SPAWN_NS", started)),
            "import_ns": import_ns,
            "spans": tracer.spans,
            "missing": tracer.missing,
            "alloc_peak": tracemalloc.get_traced_memory()[1] if alloc else 0,
            "caches": w.cache_deltas(before, w.cache_counts(balancedq)),
        }
        print("BENCH-TRACE " + json.dumps(record), file=sys.stderr, flush=True)
        with open("/proc/self/status", encoding="utf-8") as fh:
            hwm = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
        print("BENCH-HWM", hwm, file=sys.stderr, flush=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
