"""One benchmark process: set up, print READY, run one phase, print its result.

bench/run.py starts it as ``python3 -m bench.worker '<json config>'`` with
the config keys ``workload``, ``seed``, ``seconds`` and ``phase``:

- ``setup``: stop after READY (set-up time is taken by the parent);
- ``plain``: the timed loop, untraced;
- ``traced``: the same loop with layer spans;
- ``alloc``: one pass under tracemalloc, for the allocation peak.

The loops run whole passes over their inputs until ``seconds`` have gone by.
count-sweep runs one whole sweep per process, so that its tables start cold.
"""

from __future__ import annotations

import itertools
import json
import os
import resource
import statistics
import subprocess
import sys
import tracemalloc
from array import array
from time import monotonic_ns, perf_counter

from bench import stats
from bench import workloads as w
from bench.tracer import Tracer, merge_spans


#: Seconds of operations between two host-speed probes.
CALIBRATE_EVERY_S = 0.05
#: Latencies are divided by the median of this many latest host speeds.
SPEED_WINDOW = 5

#: Latency samples kept per input and metric, in a ring allocated whole on
#: first use, so the samples' memory does not depend on how fast the
#: program runs.  Past this many repeats the newest replace the oldest.
KEEP = 64


class Tally:
    """Outcomes and latency samples of one phase."""

    def __init__(self, probe=stats.host_speed) -> None:
        self.outcomes = dict.fromkeys(w.OUTCOMES, 0)
        self.first_wrong = None
        #: metric -> input -> [ring of samples, number stored]
        self.samples = {"op": {}, "encode": {}, "decode": {}}
        self.op_ns = 0
        self.speeds = []
        self._probe = probe
        self._calibrate()

    def add(self, key, outcome, reason, op_ns, encode_ns=None, decode_ns=None) -> None:
        self.outcomes[outcome] += 1
        if outcome == "wrong" and self.first_wrong is None:
            self.first_wrong = f"{key}: {reason}"
        self.op_ns += op_ns
        for name, value in (("op", op_ns), ("encode", encode_ns), ("decode", decode_ns)):
            if value is not None:
                slot = self.samples[name].get(key)
                if slot is None:
                    slot = self.samples[name][key] = [array("q", bytes(8 * KEEP)), 0]
                slot[0][slot[1] % KEEP] = round(value / self._speed)
                slot[1] += 1
        if perf_counter() >= self._calibrate_at:
            self._calibrate()

    def _calibrate(self) -> None:
        self.speeds.append(self._probe())
        self._speed = statistics.median(self.speeds[-SPEED_WINDOW:])
        self._calibrate_at = perf_counter() + CALIBRATE_EVERY_S

    def result(self, wall_s: float) -> dict:
        # peak RSS is read before the samples are copied out for the parent
        return {
            "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "outcomes": self.outcomes,
            "first_wrong": self.first_wrong,
            "samples": {
                name: {key: ring[: min(n, KEEP)].tolist() for key, (ring, n) in groups.items()}
                for name, groups in self.samples.items()
            },
            "op_ns": self.op_ns,
            "wall_s": wall_s,
            "speeds": self.speeds,
        }


# --------------------------------------------------------------------------
# codec-short and codec-long


def setup_codec(bq, cfg):
    deck = w.codec_deck(cfg["workload"], cfg["seed"])
    # warm plan and the lazy tables: one roundtrip per configuration
    seen = set()
    for item in deck:
        if (item.kind, item.q, item.k) not in seen:
            seen.add((item.kind, item.q, item.k))
            params = bq.CodecParams(item.kind, item.q, item.k)
            bq.decode(bq.encode(item.word, params)[0], params)
    return deck


def run_codec(bq, deck, cfg, reference):
    w.check_golden_inputs(deck, reference)
    start = perf_counter()
    tally = Tally()
    while True:
        for item in deck:
            outcome, reason, times = w.codec_op(bq, item, reference)
            tally.add(item.key, outcome, reason, *times)
        if cfg["phase"] == "alloc" or perf_counter() - start >= cfg["seconds"]:
            break
    return tally.result(perf_counter() - start)


# --------------------------------------------------------------------------
# count-sweep


def setup_sweep(bq, cfg):
    return w.sweep_ops(cfg["seed"])


def run_sweep(bq, ops, cfg, reference):
    expected = w.sweep_reference(reference)
    start = perf_counter()
    tally = Tally()
    for op in ops:
        outcome, reason, op_ns = w.sweep_op(bq, op, expected)
        tally.add(op.key, outcome, reason, op_ns)
    return tally.result(perf_counter() - start)


# --------------------------------------------------------------------------
# count-point


#: ``python -m balancedq.cli`` plus a report of the process's own peak RSS.
#: A child's ru_maxrss would also count the parent's pages it held before
#: exec, so the child reads VmHWM, which exec resets, as it exits.
CLI_MAIN = """
import atexit, runpy, sys
def hwm():
    with open("/proc/self/status") as fh:
        kb = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
    print("BENCH-HWM", kb, file=sys.stderr)
atexit.register(hwm)
runpy.run_module("balancedq.cli", run_name="__main__", alter_sys=True)
"""


def cli_command(cfg, argv):
    if cfg["phase"] == "plain":
        return [sys.executable, "-c", CLI_MAIN, *argv]
    return [sys.executable, "-m", "bench.cli_shim", *argv]


def run_cli(cfg, argv):
    """Run one CLI process; returns (rc, stdout, stderr, wall ns, peak RSS KB, trace)."""
    env = dict(os.environ, PYTHONPATH=str(w.SRC))
    if cfg["phase"] == "alloc":
        env["BENCH_ALLOC"] = "1"
    t0 = monotonic_ns()
    env["BENCH_SPAWN_NS"] = str(t0)
    proc = subprocess.run(
        cli_command(cfg, argv), cwd=w.ROOT, env=env, capture_output=True, text=True
    )
    wall = monotonic_ns() - t0
    trace, hwm, kept = None, 0, []
    for line in proc.stderr.splitlines(keepends=True):
        if line.startswith("BENCH-TRACE "):
            trace = json.loads(line[len("BENCH-TRACE ") :])
        elif line.startswith("BENCH-HWM "):
            hwm = int(line.split()[1])
        else:
            kept.append(line)
    return proc.returncode, proc.stdout, "".join(kept), wall, hwm, trace


def setup_point(bq, cfg):
    return w.point_deck(cfg["seed"])


def run_point(bq, deck, cfg, reference):
    tally = Tally(stats.start_speed)
    spans, cli = {}, {"startup_ns": 0, "import_ns": 0, "alloc_peak": 0, "missing": []}
    child_rss, caches = {}, {}
    if cfg["phase"] == "alloc":
        deck = [max(deck, key=lambda x: cfg["heaviest"].get(x.key, 0))]
    start = perf_counter()
    for decks in itertools.count(1):
        for query in deck:
            rc, out, err, wall, rss, trace = run_cli(cfg, query.argv())
            outcome, reason = w.check_point(query, rc, out, err, reference)
            tally.add(query.key, outcome, reason, wall)
            child_rss[query.key] = max(child_rss.get(query.key, 0), rss)
            if trace:
                merge_spans(spans, trace["spans"])
                cli["startup_ns"] += trace["startup_ns"]
                cli["import_ns"] += trace["import_ns"]
                cli["alloc_peak"] = max(cli["alloc_peak"], trace["alloc_peak"])
                cli["missing"] = trace["missing"]
                for name, (hits, misses) in trace["caches"].items():
                    acc = caches.setdefault(name, [0, 0])
                    acc[0] += hits
                    acc[1] += misses
        if cfg["phase"] == "alloc" or (
            decks >= w.POINT_MIN_DECKS and perf_counter() - start >= cfg["seconds"]
        ):
            break
    result = tally.result(perf_counter() - start)
    result.update(
        spans=spans,
        cli=cli,
        child_rss_kb=child_rss,
        children_maxrss_kb=max(child_rss.values()),
        caches=caches,
    )
    return result


WORKLOADS = {
    "codec-short": (setup_codec, run_codec),
    "codec-long": (setup_codec, run_codec),
    "count-sweep": (setup_sweep, run_sweep),
    "count-point": (setup_point, run_point),
}


def main() -> None:
    cfg = json.loads(sys.argv[1])
    setup, run = WORKLOADS[cfg["workload"]]
    in_process = cfg["workload"] != "count-point"
    bq = w.import_program()
    state = setup(bq, cfg)
    print("READY", flush=True)
    print(stats.start_speed() if cfg["workload"] == "count-point" else stats.host_speed(), flush=True)
    if cfg["phase"] == "setup":
        return
    reference = w.load_reference()
    tracer = Tracer()
    if cfg["phase"] == "traced" and in_process:
        trace = w.trace_sweep if cfg["workload"] == "count-sweep" else w.trace_codecs
        trace(tracer, bq)
    before = w.cache_counts(bq)
    if cfg["phase"] == "alloc" and in_process:
        tracemalloc.start()
    result = run(bq, state, cfg, reference)
    if tracemalloc.is_tracing():
        result["alloc_peak"] = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    tracer.restore()
    result.setdefault("spans", {})
    if in_process:
        result["caches"] = w.cache_deltas(before, w.cache_counts(bq))
    merge_spans(result["spans"], tracer.spans)
    result["missing"] = tracer.missing
    print(json.dumps(result))


if __name__ == "__main__":
    main()
