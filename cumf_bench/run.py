#!/usr/bin/env python3
"""Builds and runs the cumf_bench benchmark program; see README.md.

One run (the command BENCHMARK.json names):
    python3 cumf_bench/run.py --workload NAME --seed N --seconds S --trace 0|1
prints the program's report and, as its last line, one JSON object with
`correct`, `attempted`, `failed` and `metrics`: every end-to-end metric of
BENCHMARK.json with --trace 0, every per-layer metric with --trace 1.

Repeated runs, each workload in its own process per run:
    --repeat N      N runs per workload, on seeds --seed .. --seed+N-1;
                    prints each metric's median, quartiles and spread
    --check-repeat  two sets of --repeat runs (at least 5) on the same seeds,
                    run in alternating pairs so drift of the host's speed
                    hits both alike; exits 1 unless every end-to-end spread
                    is within its bound and every second median is within
                    the bound of the first, in either direction
--workload all runs every workload. Standard library only.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build"
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def build():
    """Configures and builds the program (both no-ops when up to date);
    returns its path."""
    cmake_dir = BUILD_DIR / "cmake"
    steps = [["cmake", "-S", str(BENCH_DIR), "-B", str(cmake_dir),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(cmake_dir), "--target", "cumf_bench",
              "-j", str(min(os.cpu_count() or 1, 4))]]
    for cmd in steps:
        # Build output goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return cmake_dir / "cumf_bench"


def self_times(events):
    """Per span name: count, total and self milliseconds. A span's self time
    is its duration minus the spans nested directly inside it on the same
    thread."""
    self_ms = {}  # name -> self time of each span, ms
    total_ms = {}
    by_thread = {}
    for e in events:
        if e.get("ph") == "X":
            by_thread.setdefault(e["tid"], []).append(e)
    for evs in by_thread.values():
        evs.sort(key=lambda e: (e["ts"], -e["dur"]))
        # [end, event, µs covered by direct children, end of that coverage].
        # Spans recorded after the fact (a queue wait starts at enqueue) can
        # overlap without nesting; those count as siblings, and overlapping
        # children are counted once.
        open_spans = []
        for e in evs + [None]:
            end = None if e is None else e["ts"] + e["dur"]
            while open_spans and (e is None or open_spans[-1][0] < end):
                _, done, covered, _ = open_spans.pop()
                self_ms.setdefault(done["name"], []).append(
                    (done["dur"] - covered) / 1e3)
                total_ms[done["name"]] = (total_ms.get(done["name"], 0.0) +
                                          done["dur"] / 1e3)
            if e is None:
                break
            if open_spans:
                parent = open_spans[-1]
                parent[2] += max(0.0, end - max(e["ts"], parent[3]))
                parent[3] = max(parent[3], end)
            open_spans.append([end, e, 0.0, e["ts"]])
    return {name: {"count": len(v), "total_ms": total_ms[name],
                   "self_ms": sum(v), "self_p50_ms": statistics.median(v)}
            for name, v in sorted(self_ms.items())}


def trace_metrics(trace_dir):
    """Per-layer metrics that come from the in-program spans, each the
    median duration of one span name in ms (0 when the trace has none, or
    when a failed run left no trace), and layers.json next to the trace."""
    path = trace_dir / "trace.json"
    events = json.loads(path.read_text())["traceEvents"] if path.exists() else []

    def p50_ms(name):
        durs = [e["dur"] / 1e3 for e in events
                if e.get("ph") == "X" and e["name"] == name]
        return statistics.median(durs) if durs else 0.0

    metrics = {
        "serve.batcher.queue_wait_ms.p50": p50_ms("batch.queue_wait"),
        "serve.live_store.load_ms.p50": p50_ms("store.load"),
        "orch.snapshot_ms.p50": p50_ms("orch.snapshot"),
        "orch.gate_ms.p50": p50_ms("orch.gate"),
        "orch.promote_ms.p50": p50_ms("orch.promote"),
    }
    if events:
        layers = {"spans": self_times(events),
                  "metrics": {k: {"value": v, "unit": "ms"}
                              for k, v in metrics.items()}}
        (trace_dir / "layers.json").write_text(json.dumps(layers, indent=1))
    return metrics


def run_once(exe, workload, seed, seconds, trace, echo=True):
    """Runs the program once; returns its result object with the span-derived
    metrics merged in when traced, or None when it produced no result."""
    work = BUILD_DIR / "work" / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cmd = [str(exe), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--work", str(work)]
    trace_dir = BUILD_DIR / "trace" / workload
    if trace:
        shutil.rmtree(trace_dir, ignore_errors=True)
        trace_dir.mkdir(parents=True)
        cmd += ["--trace", str(trace_dir)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: {workload} did not finish in {RUN_TIMEOUT_S}s",
              file=sys.stderr)
        return None
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    if echo:
        print("\n".join(lines[:-1]))
    try:
        result = json.loads(lines[-1])
    except ValueError:
        print(f"run.py: {workload} exited {proc.returncode} without a result",
              file=sys.stderr)
        return None
    if trace:
        for name, value in trace_metrics(trace_dir).items():
            result["metrics"][name] = {"value": value, "unit": "ms"}
    return result


def select(result, wanted):
    """The result line of a run, with exactly the `wanted` metrics."""
    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            fail(f"{result['workload']}: metric {m['name']} [{m['unit']}] "
                 f"missing or in another unit")
        metrics[m["name"]] = got
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    spread = (q3 - q1) / median if median else 0.0
    return median, q1, q3, spread


def run_sets(exe, workloads, wanted, seed, count, seconds, trace, sets):
    """`count` runs per workload for each of `sets` sets, the sets' runs of
    one seed back to back; returns one {workload: {metric: [values]}} per
    set."""
    values = [{w: {m["name"]: [] for m in wanted} for w in workloads}
              for _ in range(sets)]
    for w in workloads:
        for s in range(seed, seed + count):
            for k in range(sets):
                began = time.monotonic()
                result = run_once(exe, w, s, seconds, trace, echo=False)
                label = f"set {k + 1}: {w} seed {s}"
                if result is None or not result["correct"]:
                    fail(f"{label} failed: "
                         f"{result and result.get('failures')}", 1)
                for name, m in select(result, wanted)["metrics"].items():
                    values[k][w][name].append(m["value"])
                print(f"{label} done in {time.monotonic() - began:.1f}s",
                      file=sys.stderr)
    return values


def print_table(values, wanted):
    for w, per_metric in values.items():
        print(f"\n{w}")
        print(f"  {'metric':<36} {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'spread':>8} {'bound':>6}")
        for m in wanted:
            runs = per_metric[m["name"]]
            median, q1, q3, spread = summarize(runs)
            bound = m.get("bound", "")
            print(f"  {m['name']:<36} {median:14.6g} {q1:14.6g} {q3:14.6g} "
                  f"{spread:8.4f} {bound:>6}")
            print("    runs: " + " ".join(f"{v:.4g}" for v in runs))


def check_repeat(first, second, wanted):
    """Both sets' spreads within bound and each second median within the
    bound of the first, in either direction."""
    ok = True
    print(f"\n{'workload':<20} {'metric':<26} {'spread1':>8} {'spread2':>8} "
          f"{'change':>8} {'bound':>6}")
    for w in first:
        for m in wanted:
            name, bound = m["name"], m["bound"]
            med1, _, _, spread1 = summarize(first[w][name])
            med2, _, _, spread2 = summarize(second[w][name])
            change = (med2 - med1) / med1 if med1 else 0.0
            good = max(abs(change), spread1, spread2) <= bound
            ok = ok and good
            print(f"{w:<20} {name:<26} {spread1:8.4f} {spread2:8.4f} "
                  f"{change:+8.4f} {bound:6.3f} {'ok' if good else 'FAIL'}")
    print("\nthe two sets agree within the bounds" if ok else
          "\nthe two sets do NOT agree within the bounds")
    return ok


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=names + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", type=int, default=1)
    ap.add_argument("--check-repeat", action="store_true")
    args = ap.parse_args()
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    workloads = names if args.workload == "all" else [args.workload]
    exe = build()

    if args.check_repeat:
        if args.trace or args.repeat < 5:
            fail("--check-repeat needs --trace 0 and --repeat of at least 5")
        first, second = run_sets(exe, workloads, wanted, args.seed,
                                 args.repeat, args.seconds, 0, 2)
        print_table(first, wanted)
        print_table(second, wanted)
        sys.exit(0 if check_repeat(first, second, wanted) else 1)
    if args.repeat > 1:
        values, = run_sets(exe, workloads, wanted, args.seed, args.repeat,
                           args.seconds, args.trace, 1)
        print_table(values, wanted)
        print(json.dumps({w: {n: summarize(v) for n, v in per.items()}
                          for w, per in values.items()}))
        return
    if len(workloads) != 1:
        fail("--workload all needs --repeat or --check-repeat")
    result = run_once(exe, workloads[0], args.seed, args.seconds, args.trace)
    if result is None:
        sys.exit(2)
    print(json.dumps(select(result, wanted)))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
