"""Benchmark runner for subtree-density.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each repetition runs in a fresh interpreter (perfbench/worker.py), one at a
time, because a CLI user pays interpreter start, imports and memory on every
run.  Repetitions repeat until S seconds have passed (at least MIN_REPS).
With --trace 0 the last stdout line holds the end-to-end metrics of
BENCHMARK.json; with --trace 1 it holds the per-layer metrics, from
alternating untraced and traced repetitions plus one pass that runs each
check id alone.  The spans of the last traced repetition are written to
.perfbench/spans/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracer  # noqa: E402  (no library import: the runner only starts workers)

WORKLOADS = ("enum-sr", "enum-all", "sample-rooted", "family-stats")
MIN_REPS = 3
TRACE_MIN_REPS = 2          # of each kind, untraced and traced
HARD_LIMIT_S = 140.0        # start no repetition that would end later than this
WORKER_TIMEOUT_S = 170.0
CHECK_IDS = ("C1", "C2", "C3", "C4", "C5", "C7", "C8", "C9", "C10", "C11", "C12")


class BenchError(Exception):
    pass


def _spawn(root: str, workload: str, seed: int, mode: str, started: float) -> dict:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), root, workload, str(seed), mode]
    if mode == "trace":
        spans_dir = os.path.join(root, ".perfbench", "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd.append(os.path.join(spans_dir, f"{workload}-seed{seed}.tsv.gz"))
    timeout = max(5.0, WORKER_TIMEOUT_S - (time.monotonic() - started))
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} repetition of {workload} exceeded {timeout:.0f} s") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{mode} repetition of {workload} exited {proc.returncode}:\n"
                         f"{proc.stderr[-4000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["setup_s"] = out["first_call"] - t0
    out["process_s"] = time.monotonic() - t0
    return out


def _repeat(root, workload, seed, seconds, modes, min_each, started):
    """Run repetitions cycling through `modes` until the window is used."""
    reps = []
    while True:
        mode = modes[len(reps) % len(modes)]
        reps.append(_spawn(root, workload, seed, mode, started))
        elapsed = time.monotonic() - started
        est = statistics.median(r["process_s"] for r in reps)
        # stop at the repetition boundary nearest the end of the window
        if len(reps) >= min_each * len(modes) and len(reps) % len(modes) == 0 \
                and elapsed + est / 2 > seconds:
            return reps
        if len(reps) >= len(modes) and elapsed + est > HARD_LIMIT_S:
            return reps


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def _p90(values):
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]


def end_to_end(reps) -> tuple:
    walls = [r["wall_s"] for r in reps]
    items = [x for r in reps for x in r["items_ms"]]
    if not items:
        raise BenchError(f"no item completed: {reps[0]['problems'][:3]}")
    metrics = {
        "wall_s": statistics.median(walls),
        "item_ms_p50": statistics.median(items),
        "item_ms_p90": _p90(items),
        "peak_rss_mb": statistics.median(r["peak_rss_kb"] for r in reps) / 1024.0,
        "setup_s": statistics.median(r["setup_s"] for r in reps),
    }
    q1, q3 = _quartiles(walls)
    lines = [f"wall_s median={metrics['wall_s']:.4f} q1={q1:.4f} q3={q3:.4f} "
             f"over {len(walls)} repetitions",
             f"item_ms p50={metrics['item_ms_p50']:.4f} p90={metrics['item_ms_p90']:.4f} "
             f"over {len(items)} items ({len(items) // len(reps)} per repetition)"]
    return metrics, lines


def per_layer(plain, traced, checks) -> tuple:
    def med(get, average=statistics.median):
        return average(get(r["layer"]) for r in traced)

    def count(get):
        return med(get, statistics.median_low)

    values = {}
    for name in tracer.Tracer().names:
        values[f"{name}.calls"] = count(lambda l: l["calls"][name])
        values[f"{name}.items"] = count(lambda l: l["items"][name])
        values[f"{name}.self_s"] = med(lambda l: l["self_s"][name])
    for layer in tracer.LAYERS:
        values[f"{layer}.self_s"] = med(lambda l: sum(
            v for k, v in l["self_s"].items() if k.startswith(layer + ".")))
    generated = values["enumeration.rooted_level_sequences.items"]
    values["enumeration.kept_ratio"] = (
        values["enumeration.enumerate_trees.items"] / generated if generated else 0.0)
    for metric, key in (("enumeration.sr_rejected", "sr_rejected"),
                        ("dp.count_bits_max", "count_bits_max"),
                        ("verify.violations", "violations"),
                        ("verify.equality_cases", "equality_cases")):
        values[metric] = count(lambda l: l[key])
    for check in CHECK_IDS:
        values[f"verify.check.{check}.s"] = checks.get(check, 0.0)
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    plain_wall = statistics.median(r["wall_s"] for r in plain)
    values["trace.overhead_s"] = traced_wall - plain_wall
    absent = traced[0]["layer"]["absent"]
    lines = [f"traced wall_s={traced_wall:.4f} untraced wall_s={plain_wall:.4f} "
             f"({len(traced)} traced, {len(plain)} untraced repetitions, "
             f"{traced[0]['layer']['spans']} spans per traced repetition)",
             "absent functions: " + (", ".join(absent) if absent else "none")]
    for layer in tracer.LAYERS:
        share = values[f"{layer}.self_s"] / traced_wall if traced_wall else 0.0
        lines.append(f"layer {layer}: self {values[f'{layer}.self_s']:.4f} s "
                     f"({100 * share:.1f}% of traced wall)")
    return values, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()
    root = os.getcwd()
    try:
        with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json in {root}: {exc}", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(root, "src", "subtree_density", "__init__.py")):
        print(f"error: {root} holds no src/subtree_density; run from a source checkout",
              file=sys.stderr)
        return 2

    try:
        if args.trace:
            reps = _repeat(root, args.workload, args.seed, args.seconds, ("plain", "trace"),
                           TRACE_MIN_REPS, started)
            plain = [r for r in reps if r["mode"] == "plain"]
            traced = [r for r in reps if r["mode"] == "trace"]
            checks = _spawn(root, args.workload, args.seed, "checks", started)["check_s"]
            values, lines = per_layer(plain, traced, checks)
            wanted = spec["per_layer"]
            reps = plain + traced
        else:
            reps = _repeat(root, args.workload, args.seed, args.seconds, ("plain",),
                           MIN_REPS, started)
            values, lines = end_to_end(reps)
            wanted = spec["end_to_end"]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
          f"python={platform.python_version()} nproc={os.cpu_count()} "
          f"repetitions={len(reps)} elapsed_s={time.monotonic() - started:.1f}")
    for line in lines:
        print(line)
    for problem in sorted({p for r in reps for p in r["problems"]}):
        print(f"MISMATCH: {problem}")
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: no value for metrics {missing}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
