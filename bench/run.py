"""Benchmark of balancedq: four closed-loop workloads, one client, one thread.

    python3 bench/run.py --workload codec-short --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the workload
untraced and then traced, for half the time each, and prints the per-layer
metrics and the tracing overhead.  ``--workload all`` runs every workload in
turn.  Each workload's block of ``name value unit`` lines ends with one JSON
line holding ``correct``, ``attempted``, ``failed`` and ``metrics``.  See
bench/README.md for why each workload exists.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from bench import stats  # noqa: E402
from bench import workloads as w  # noqa: E402
from bench.tracer import merge_spans  # noqa: E402

#: Set-ups per untraced run; setup_s is their median.
SETUPS = 7

# (metric, unit, span, field): the span's field per operation.  Fields are
# 0 calls, 1 total ns, 2 self ns.
SPAN_METRICS = (
    ("codecs.find_us", "us", "codecs.find", 1),
    ("codecs.find_calls", "count", "codecs.find", 0),
    ("codecs.encode_self_us", "us", "codecs.encode", 2),
    ("codecs.decode_self_us", "us", "codecs.decode", 2),
    ("alphabet.validate_us", "us", "alphabet.validate", 1),
    ("codebook.encode_prefix_us", "us", "codebook.encode_prefix", 1),
    ("codebook.decode_prefix_us", "us", "codebook.decode_prefix", 1),
    ("codebook.unrank_self_us", "us", "codebook.unrank", 2),
    ("codebook.rank_self_us", "us", "codebook.rank", 2),
    ("codebook.pack_us", "us", "codebook.pack", 1),
    ("codebook.unpack_us", "us", "codebook.unpack", 1),
    ("counting.lookup_us", "us", "counting.lookup", 1),
    ("counting.lookup_calls", "count", "counting.lookup", 0),
    ("codebook.plan_us", "us", "codebook.plan", 1),
    ("counting.cb_ms", "ms", "counting.cb", 1),
    ("counting.pb_ms", "ms", "counting.pb", 1),
    ("counting.cpb_ms", "ms", "counting.cpb", 1),
    ("counting.sb_ms", "ms", "counting.sb", 1),
    ("counting.census_ms", "ms", "counting.census", 1),
    ("asymptotics.approx_us", "us", "asymptotics.approx", 1),
    ("cli.main_self_ms", "ms", "cli.main", 2),
)
SCALE = {"us": 1e3, "ms": 1e6, "count": 1}


def share_name(metric: str) -> str:
    return metric.rsplit("_", 1)[0] + "_share"


# --------------------------------------------------------------------------
# processes


def spawn(workload: str, seed: int, seconds: float, phase: str, **extra):
    """Run one worker; returns (seconds until READY, its result or None).

    The seconds are divided by the host speed the worker measures right
    after READY.
    """
    cfg = dict(workload=workload, seed=seed, seconds=seconds, phase=phase, **extra)
    t0 = monotonic()
    proc = subprocess.Popen(
        [sys.executable, "-m", "bench.worker", json.dumps(cfg)],
        cwd=w.ROOT,
        stdout=subprocess.PIPE,
        text=True,
    )
    with proc:
        ready_line = proc.stdout.readline()
        ready = monotonic() - t0
        speed = proc.stdout.readline()
        rest = proc.stdout.read()
    if proc.returncode != 0 or ready_line.strip() != "READY":
        raise SystemExit(f"bench: {phase} worker for {workload} exited {proc.returncode}")
    return ready / float(speed), (json.loads(rest.splitlines()[-1]) if phase != "setup" else None)


def run_phase(workload: str, seed: int, seconds: float, phase: str, setups: int = 0, **extra):
    """Results of one phase, plus the set-up times of ``setups`` processes."""
    ready_times, results = [], []
    if workload == "count-sweep":
        # one cold sweep per process, as many as fit in the time
        start = monotonic()
        while not results or (phase != "alloc" and monotonic() - start < seconds):
            ready, result = spawn(workload, seed, seconds, phase, **extra)
            ready_times.append(ready)
            results.append(result)
    else:
        ready, result = spawn(workload, seed, seconds, phase, **extra)
        ready_times.append(ready)
        results.append(result)
    while len(ready_times) < setups:
        ready_times.append(spawn(workload, seed, seconds, "setup")[0])
    return merge(results), ready_times


def merge(results):
    out = {
        "outcomes": dict.fromkeys(w.OUTCOMES, 0),
        "samples": {"op": {}, "encode": {}, "decode": {}},
        "spans": {},
        "caches": {},
        "missing": set(),
        "cli": {"startup_ns": 0, "import_ns": 0, "alloc_peak": 0, "missing": []},
        "child_rss_kb": {},
        "speeds": [],
        "op_ns": 0,
        "wall_s": 0.0,
        "maxrss_kb": 0,
        "children_maxrss_kb": 0,
        "alloc_peak": 0,
        "first_wrong": None,
    }
    for r in results:
        for k, v in r["outcomes"].items():
            out["outcomes"][k] += v
        for name, groups in r["samples"].items():
            for key, values in groups.items():
                out["samples"][name].setdefault(key, []).extend(values)
        merge_spans(out["spans"], r["spans"])
        for key, (hits, misses) in r["caches"].items():
            acc = out["caches"].setdefault(key, [0, 0])
            acc[0] += hits
            acc[1] += misses
        out["missing"].update(r["missing"])
        out["speeds"].extend(r["speeds"])
        if "cli" in r:
            out["cli"] = r["cli"]
            out["missing"].update(r["cli"]["missing"])
            out["child_rss_kb"].update(r["child_rss_kb"])
        for key in ("op_ns", "wall_s"):
            out[key] += r[key]
        for key in ("maxrss_kb", "children_maxrss_kb", "alloc_peak"):
            out[key] = max(out[key], r.get(key, 0))
        out["first_wrong"] = out["first_wrong"] or r["first_wrong"]
    return out


# --------------------------------------------------------------------------
# metrics


def attempted(result) -> int:
    return sum(result["outcomes"].values())


def fail_ratio(outcomes) -> float:
    """Failed or wrong operations over operations attempted."""
    return (sum(outcomes.values()) - outcomes["ok"]) / sum(outcomes.values())


def ops_per_s(op_medians) -> float:
    """Operations per second of operation time, each input at its median latency."""
    return len(op_medians) / sum(op_medians) * 1e9


def medians(result, name="op"):
    """Per-input median latencies in ns, scaled to the reference host speed."""
    return stats.per_input_medians(result["samples"][name])


def end_to_end(workload: str, result, ready_times):
    """Every end-to-end metric as (name, value, unit, detail)."""
    op = medians(result)
    pct, tail = stats.tail(op)
    rss_kb = result["children_maxrss_kb"] if workload == "count-point" else result["maxrss_kb"]
    rows = [
        ("ops_per_s", ops_per_s(op), "1/s",
         f"{attempted(result)} ops checked in {result['wall_s']:.2f} s"),
        ("op_p50_ms", statistics.median(op) / 1e6, "ms", f"{len(op)} per-input medians"),
        ("op_tail_ms", tail / 1e6, "ms",
         f"p{pct:g} of {len(op)} per-input medians, {attempted(result)} samples"),
    ]
    for name in ("encode", "decode"):
        if result["samples"][name]:
            rows.append((f"{name}_p50_us", statistics.median(medians(result, name)) / 1e3, "us", ""))
        else:
            rows.append((f"{name}_p50_us", None, "us", "n/a: no codec operations in this workload"))
    rows += [
        ("peak_rss_mb", rss_kb / 1024, "MB",
         "largest CLI child" if workload == "count-point" else "worker process"),
        ("setup_s", statistics.median(ready_times), "s",
         f"median of {len(ready_times)} set-ups"),
        ("fail_ratio", fail_ratio(result["outcomes"]), "-",
         " ".join(f"{k}={v}" for k, v in result["outcomes"].items())),
        ("host_speed", statistics.median(result["speeds"]), "ratio",
         f"median of {len(result['speeds'])} calibration loops over {stats.REFERENCE_LOOP_NS} ns"),
    ]
    return rows


def hit_ratio(result, cache: str):
    if cache not in result["caches"]:
        return 0.0, "unavailable: the function has no cache_info()"
    hits, misses = result["caches"][cache]
    if hits + misses == 0:
        return 0.0, "not exercised on this workload"
    return hits / (hits + misses), f"{hits} hits, {misses} misses"


def per_layer(workload: str, plain, traced, alloc):
    """Every per-layer metric as (name, value, unit, detail)."""
    ops = attempted(traced)
    wall_ns = traced["op_ns"]
    factor = statistics.median(traced["speeds"])
    rows = []

    def timed(name, unit, total_ns, detail=""):
        rows.append((name, total_ns / factor / ops / SCALE[unit], unit, detail))
        rows.append((share_name(name), total_ns / wall_ns, "ratio", "of operation wall time"))

    for name, unit, span, field in SPAN_METRICS:
        rec = traced["spans"].get(span)
        if unit == "count":
            rows.append((name, (rec[field] if rec else 0) / ops, unit, "per operation"))
        else:
            timed(name, unit, rec[field] if rec else 0, "" if rec else "not exercised")
    cli = traced["cli"]
    timed("cli.startup_ms", "ms", cli["startup_ns"], "" if cli["startup_ns"] else "no CLI processes")
    timed("cli.import_ms", "ms", cli["import_ns"], "" if cli["import_ns"] else "no CLI processes")
    for name, cache in (("codebook.plan_hit_ratio", "plan"), ("counting.polarity_hit_ratio", "polarity")):
        value, detail = hit_ratio(traced, cache)
        rows.append((name, value, "ratio", detail))
    peak = alloc["cli"]["alloc_peak"] if workload == "count-point" else alloc["alloc_peak"]
    rows.append(("counting.alloc_peak_mb", peak / 2**20, "MB", "tracemalloc peak of one pass"))
    ratio = ops_per_s(medians(traced)) / ops_per_s(medians(plain))
    rows.append(("trace.overhead_ratio", ratio, "ratio", "traced over untraced ops_per_s"))
    return rows


# --------------------------------------------------------------------------
# report


def machine_info(seed: int) -> dict:
    commit = None
    if (w.ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=w.ROOT, capture_output=True, text=True, check=True
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            commit = None
    src = hashlib.sha256()
    for path in sorted((w.SRC / "balancedq").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "seed": seed,
        "commit": commit,
        "src_sha256": src.hexdigest()[:16],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
    }


def report(workload: str, seed: int, seconds: float, trace: int, gated) -> None:
    print(f"# workload={workload} seed={seed} seconds={seconds:g} trace={trace}")
    print("# info " + json.dumps(machine_info(seed)))
    if trace:
        half = seconds / 2
        plain, _ = run_phase(workload, seed, half, "plain")
        traced, _ = run_phase(workload, seed, half, "traced")
        extra = {"heaviest": plain["child_rss_kb"]} if workload == "count-point" else {}
        alloc, _ = run_phase(workload, seed, half, "alloc", **extra)
        rows = per_layer(workload, plain, traced, alloc)
        results = (plain, traced, alloc)
        print("# wait_us 0: one client and one thread, so no operation queues")
        if traced["missing"]:
            print("# not traced (absent in this version): " + ", ".join(sorted(traced["missing"])))
    else:
        plain, ready_times = run_phase(workload, seed, seconds, "plain", setups=SETUPS)
        rows = end_to_end(workload, plain, ready_times)
        results = (plain,)
    for name, value, unit, detail in rows:
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{name:32} {shown:>12} {unit:6} {detail}")
    for r in results:
        if r["first_wrong"]:
            print(f"# first wrong operation: {r['first_wrong']}")
    total = sum(attempted(r) for r in results)
    ok = sum(r["outcomes"]["ok"] for r in results)
    metrics = {
        name: {"value": value, "unit": unit}
        for name, value, unit, _ in rows
        if gated is None or name in gated
    }
    print(json.dumps({
        "correct": all(r["outcomes"]["wrong"] == 0 for r in results),
        "attempted": total,
        "failed": total - ok,
        "metrics": metrics,
    }))


def gated_metrics(trace: int):
    """Names BENCHMARK.json asks for, or None to emit every metric."""
    path = w.ROOT / "BENCHMARK.json"
    if not path.is_file():
        return None
    with open(path, encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=w.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (w.SRC / "balancedq" / "__init__.py").is_file() or not w.REFERENCE.is_file():
        print(f"bench: needs the balancedq sources under {w.SRC} and {w.REFERENCE}", file=sys.stderr)
        return 2
    gated = gated_metrics(args.trace)
    for workload in w.WORKLOADS if args.workload == "all" else (args.workload,):
        report(workload, args.seed, args.seconds, args.trace, gated)
    return 0


if __name__ == "__main__":
    sys.exit(main())
