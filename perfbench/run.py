"""Benchmark for the proxyauction CLI, driven in-process through cli.main(argv).

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload certify-standard --seed 1 --seconds 35 --trace 0

One process per workload, single-threaded and closed loop: each op (one CLI
command) starts when the previous one returns.

--trace 0 reports the end-to-end metrics. A run repeats rounds (every op of
the workload once per round) for about --seconds; every execution of every op
is one latency sample. A short fixed stdlib Fraction loop, the probe slice,
runs before the first op and after every op. The op timings are reported at
reference host speed: each latency is scaled by REFERENCE_SLICE_S over the
mean of the two slices around it, so the host's speed, which drifts by up to
2.5x over minutes on a shared machine, cancels out. Set-up time is scaled the
same way. The detail line keeps the wall-clock figures.

--trace 1 runs one round untraced and the same round again with spans around
the package's public functions, and reports the per-layer metrics.

Every op's output is checked. The last line of stdout is the result object;
the line before it is a detail report (percentile names, sample counts,
host-drift probe, failures).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"

WORKLOADS = ("auction", "certify-standard", "replicate")
MIN_ROUNDS = 4
SETUP_REPEATS = 11
TAIL_BEYOND = 10
# A round figure near the fastest the probe slice ran on the reference VM (8 to
# 10 ms); op timings are reported as if every slice had taken this long.
REFERENCE_SLICE_S = 0.010


def probe_slice() -> float:
    """Seconds for a fixed stdlib Fraction loop: a sample of the host's speed."""
    t0 = time.perf_counter()
    acc = Fraction(0)
    for k in range(1, 1500):
        acc += Fraction(k % 89, 1 + k % 97) * Fraction(1 + k % 7, 1 + k % 11)
        acc -= int(acc)
    return time.perf_counter() - t0


def at_reference_speed(seconds: float, before: float, after: float) -> float:
    """``seconds`` of wall time scaled by the probe slices timed just before and after."""
    return seconds * 2 * REFERENCE_SLICE_S / (before + after)


def host_probe() -> float:
    """Median of 5 probe slices: the host-drift diagnostic at a run's start and end."""
    return statistics.median(probe_slice() for _ in range(5))


def setup(workload: str, seed: int):
    """Import the package and build one round of ops; returns (ops, seconds)."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import workloads  # imports proxyauction

    ops = workloads.WORKLOADS[workload](ROOT, seed, WORK / "inputs" / workload)
    return ops, time.perf_counter() - t0


def median_setup_s(workload: str, seed: int) -> tuple[float, float]:
    """Median set-up time over fresh interpreters (import is paid once per process).

    Returns the median at reference host speed and the median wall time.
    """
    scaled, wall = [], []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        seconds, before, after = map(float, proc.stdout.split()[-3:])
        scaled.append(at_reference_speed(seconds, before, after))
        wall.append(seconds)
    return statistics.median(scaled), statistics.median(wall)


def run_op(op, failures: list) -> float:
    """Run one op, check its output, and return its latency in seconds."""
    import workloads

    t0 = time.perf_counter()
    try:
        code, stdout = workloads.quiet_main(op.argv)
    except Exception as exc:  # an op that raises counts as failed
        code, stdout = exc, ""
    latency = time.perf_counter() - t0
    try:
        problem = op.check(code, stdout)
    except Exception as exc:  # malformed output counts as failed
        problem = f"{type(exc).__name__}: {exc}"
    if problem is not None:
        failures.append({"op": op.label, "argv": op.argv, "problem": problem})
    return latency


def run_round(ops, failures: list) -> list:
    return [run_op(op, failures) for op in ops]


def timed_loop(ops, seconds: float, failures: list) -> tuple[list, list]:
    """Rounds of op latencies, and the probe slices between the ops.

    Runs for about ``seconds`` and at least MIN_ROUNDS. A round starts only if,
    at the pace of the last one, it ends less than half a round past
    ``seconds``, so a run ends near ``seconds`` on any host. A probe slice runs
    before the first op and after every op: the k-th execution lies between
    slices k and k + 1.
    """
    start = time.perf_counter()
    done, slices = [], [probe_slice()]
    while True:
        began = time.perf_counter()
        latencies = []
        for op in ops:
            latencies.append(run_op(op, failures))
            slices.append(probe_slice())
        done.append(latencies)
        now = time.perf_counter()
        if len(done) >= MIN_ROUNDS and now - start + (now - began) / 2 > seconds:
            return done, slices


def tail(latencies: list, ops: int) -> tuple[float, str]:
    """Latency at the workload's tail percentile, and the percentile's name.

    The percentile is the highest with at least TAIL_BEYOND samples beyond it
    in a run of MIN_ROUNDS rounds of ``ops`` ops; a longer run has more beyond
    it. It is fixed per workload so that a run that fits more rounds, on a
    faster commit or host, is not measured at a higher percentile.
    """
    least = ops * MIN_ROUNDS
    at_most = least - TAIL_BEYOND  # samples at or below the percentile in the shortest run
    rank = -(-at_most * len(latencies) // least)  # nearest rank, from 1
    return sorted(latencies)[rank - 1], f"p{100 * at_most / least:.1f}"


def median_op(latencies: list, ops: int) -> float:
    """The median op's latency: each op's median over the rounds, then the median over ops.

    ``latencies`` holds whole rounds of ``ops`` executions each. The pooled
    median of every execution would be the mean of two extreme samples whenever
    it falls in a gap between two ops' costs, as it does on ``auction``.
    """
    return statistics.median(statistics.median(latencies[k::ops]) for k in range(ops))


def end_to_end(args, ops, detail: dict) -> tuple[dict, int, list]:
    setup_s, setup_wall_s = median_setup_s(args.workload, args.seed)
    failures: list = []
    started = time.perf_counter()
    rounds, slices = timed_loop(ops, args.seconds, failures)
    wall = [x for one_round in rounds for x in one_round]
    # each latency at reference host speed: scaled by the slices around it
    latencies = [at_reference_speed(x, slices[k], slices[k + 1]) for k, x in enumerate(wall)]
    attempted = len(latencies)
    tail_s, tail_name = tail(latencies, len(ops))
    detail.update(
        rounds=len(rounds),
        samples=attempted,
        op_tail_percentile=tail_name,
        op_latencies_ms={op.label: [1000 * x for x in times]
                         for op, times in zip(ops, zip(*rounds))},
        probe_slice_ms={"median": 1000 * statistics.median(slices),
                        "min": 1000 * min(slices), "max": 1000 * max(slices)},
        wall_clock={"setup_s": setup_wall_s,
                    "ops_per_s": attempted / sum(wall),
                    "op_p50_ms": 1000 * median_op(wall, len(ops)),
                    "op_tail_ms": 1000 * tail(wall, len(ops))[0]},
        timed_s=time.perf_counter() - started,
        error_rate=len(failures) / attempted,
    )
    metrics = {
        "setup_s": (setup_s, "s"),
        # ops per second of the closed loop at reference host speed, less the
        # benchmark's own output checks and probe slices
        "ops_per_s": (attempted / sum(latencies), "1/s"),
        "op_p50_ms": (1000 * median_op(latencies, len(ops)), "ms"),
        "op_tail_ms": (1000 * tail_s, "ms"),
        "ok_rate": (1 - len(failures) / attempted, "share"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return metrics, attempted, failures


def per_layer(args, ops, detail: dict) -> tuple[dict, int, list]:
    from tracer import COUNTERS, SPANS, Tracer

    failures: list = []
    untraced_s = sum(run_round(ops, failures))
    tracer = Tracer()
    tracer.install()
    try:
        traced_s = sum(run_round(ops, failures))
    finally:
        tracer.uninstall()

    summary = tracer.summary()
    spans_file = WORK / "spans" / f"{args.workload}-seed{args.seed}.tsv.gz"
    tracer.write(spans_file)
    detail.update(
        samples=2 * len(ops),
        untraced_round_s=untraced_s,
        traced_round_s=traced_s,
        self_s_sum=sum(row["self_s"] for row in summary.values()),
        cli_main_total_s=summary["cli.main"]["total_s"],
        absent_spans=tracer.absent,
        uncounted_spans=sorted(tracer.uncounted),
        waiting_s="0 by construction: one thread, closed loop, nothing runs concurrently",
        q_atoms_note="mechanism.q_atoms is computed by the benchmark from compute_q's arguments",
        spans_file=str(spans_file.relative_to(ROOT)),
        span_count=len(tracer.spans),
    )
    metrics = {}
    for name, _, _ in SPANS:
        row = summary[name]
        metrics[f"{name}.calls"] = (row["calls"], "count")
        metrics[f"{name}.total_s"] = (row["total_s"], "s")
        metrics[f"{name}.self_s"] = (row["self_s"], "s")
        metrics[f"{name}.errors"] = (row["errors"], "count")
    for name in COUNTERS:
        metrics[name] = (tracer.counters.get(name, 0), "count")
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    return metrics, 2 * len(ops), failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    for needed in (ROOT / "src" / "proxyauction" / "cli.py", ROOT / "corpus" / "standard"):
        if not needed.exists():
            sys.stderr.write(f"perfbench: {needed.relative_to(ROOT)} not found; "
                             "run from a proxyauction source checkout\n")
            return 2
    os.chdir(ROOT)  # the ops name their files relative to the checkout root
    if args.setup_only:
        before = probe_slice()
        _, seconds = setup(args.workload, args.seed)
        print(seconds, before, probe_slice())
        return 0

    probe_start = host_probe()
    ops, _ = setup(args.workload, args.seed)
    detail = {"workload": args.workload, "seed": args.seed, "ops_per_round": len(ops)}
    measure = per_layer if args.trace else end_to_end
    metrics, attempted, failures = measure(args, ops, detail)
    detail["host_probe_s"] = {"start": probe_start, "end": host_probe()}
    detail["failures"] = failures[:20]
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
