"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload read-small-1024 --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing installed.
``--trace 1`` runs the same batches untraced and then traced, and
reports the per-layer metrics plus the tracing overhead.  Every metric
is printed as ``name value unit``; the last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--workload all`` runs every workload, each in its own
process, one after another.

The program under test is imported from ``src/`` next to this
directory.  Each run needs nothing but that source tree: it writes only
under ``perfbench/out/`` (spans of traced runs, and the cluster's
nameserver databases while they are in use).
"""

from __future__ import annotations

import argparse
import hashlib
import heapq
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

clock = time.perf_counter

#: Host seconds the calibration kernel takes on an unloaded core of the
#: reference machine (Intel Xeon, 2.0 GHz, Python 3.11).
REFERENCE_CALIBRATION_S = 0.025
CALIBRATION_STEPS = 40_000
#: Operation-count multiplier under ``--smoke``.
SMOKE_SCALE = 0.1


def calibration_kernel() -> float:
    """Fixed pure-Python work shaped like the simulator's inner loops:
    a heap of timed events, dict lookups and float arithmetic."""
    heap = [(float(i % 97), i) for i in range(64)]
    heapq.heapify(heap)
    rates = {i: 1.0 + i % 7 for i in range(256)}
    total = 0.0
    for step in range(CALIBRATION_STEPS):
        when, key = heapq.heappop(heap)
        share = rates[key % 256] / (1.0 + step % 13)
        rates[(key * 31 + step) % 256] = share + 0.5
        total += share
        heapq.heappush(heap, (when + share, key + 1))
    return total


def calibrate() -> float:
    """Host seconds one calibration kernel takes right now."""
    started = clock()
    calibration_kernel()
    return clock() - started


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="host seconds to keep repeating the suite")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one batch at a tenth of the size (the benchmark's tests)")
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # Hermetic: no sanitizer armed from the environment, no telemetry.
    os.environ.pop("REPRO_SIMSAN", None)
    sys.path.insert(0, str(ROOT / "src"))
    from repro.sim import instrument
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args, WORKLOADS)
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if instrument.TELEMETRY is not None or instrument.hooks_armed():
        print("perfbench: telemetry or a sanitizer is armed", file=sys.stderr)
        return 2
    scratch = OUT / f"tmp-{os.getpid()}"
    try:
        if args.trace:
            report = traced_run(workload, args, scratch)
        else:
            report = untraced_run(workload, args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for name, (value, unit) in report["metrics"].items():
        print(f"{name} {value:.6g} {unit}")
    result = {
        "correct": not report["problems"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in report["metrics"].items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args: argparse.Namespace, workloads: dict) -> int:
    """Each workload in a fresh single-threaded process, one at a time."""
    status = 0
    for name in workloads:
        command = [sys.executable, __file__, "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)] + ["--smoke"] * args.smoke
        print(f"== {name}", flush=True)
        status |= subprocess.run(command).returncode
    return status


# ----------------------------------------------------------------------
# Running batches
# ----------------------------------------------------------------------


class Suite:
    """Results and host times of a workload's batches, keyed by batch seed.

    Host times are kept at reference speed: each batch's measured
    seconds are scaled by how fast the calibration kernel ran right
    before and right after it, which takes out the machine's own drift.
    """

    def __init__(self) -> None:
        self.results: Dict[int, list] = {}
        self.digests: Dict[int, str] = {}
        self.setup_s: List[float] = []
        self.run_s: Dict[int, List[float]] = {}
        self.raw_run_s: Dict[int, List[float]] = {}
        self.problems: List[str] = []

    def record(self, seed: int, results: list, batch, setup_s: float,
               run_s: float, speed: float) -> None:
        """Store one execution; ``speed`` scales host seconds to reference."""
        self.setup_s.append(setup_s * speed)
        self.run_s.setdefault(seed, []).append(run_s * speed)
        self.raw_run_s.setdefault(seed, []).append(run_s)
        digest = digest_of(results)
        if seed not in self.results:
            self.results[seed] = results
            self.digests[seed] = digest
            self.problems.extend(batch.check(results))
            self.problems.extend(check_durations(seed, results))
        elif digest != self.digests[seed]:
            self.problems.append(f"seed {seed}: a repeat produced different results")

    def all_results(self) -> list:
        return [r for seed in sorted(self.results) for r in self.results[seed]]


def run_batch(workload, seed: int, args, scratch: Path, suite: Suite,
              tracer=None) -> None:
    """Set up, execute, time and check one batch."""
    if tracer is not None:
        tracer.start_batch()
    calibration_s = calibrate()
    started = clock()
    batch = workload.setup(seed, SMOKE_SCALE if args.smoke else 1.0, scratch)
    setup_s = clock() - started
    try:
        if tracer is not None:
            tracer.paused = False
        started = clock()
        results = batch.execute()
        run_s = clock() - started
        if tracer is not None:
            tracer.paused = True
            run_s -= tracer.check_s - tracer.batch_check_start
        calibration_s = (calibration_s + calibrate()) / 2
        if tracer is not None:
            tracer.finish_batch(batch)
        suite.record(seed, results, batch, setup_s, run_s,
                     REFERENCE_CALIBRATION_S / calibration_s)
    finally:
        batch.close()


def suite_seeds(workload, args) -> List[int]:
    from workloads import sub_seed

    count = 1 if args.smoke else workload.batches
    return [sub_seed(args.seed, i) for i in range(count)]


def untraced_run(workload, args, scratch: Path) -> dict:
    """The whole suite once, then repeats of it until ``--seconds`` pass."""
    seeds = suite_seeds(workload, args)
    suite = Suite()
    deadline = clock() + args.seconds
    for seed in seeds:
        run_batch(workload, seed, args, scratch, suite)
    while clock() < deadline:
        for seed in seeds:
            if clock() >= deadline:
                break
            run_batch(workload, seed, args, scratch, suite)
    return end_to_end_report(workload, suite)


def traced_run(workload, args, scratch: Path) -> dict:
    """The same batches untraced, traced, then untraced again.

    The first untraced pass also warms the interpreter up; the overhead
    ratio compares the traced pass with the second untraced one, whose
    results must match the first (the wrappers were fully removed).
    """
    from tracing import Tracer

    seeds = suite_seeds(workload, args)[: workload.traced_batches]
    before, traced, after = Suite(), Suite(), Suite()
    for seed in seeds:
        run_batch(workload, seed, args, scratch, before)
    tracer = Tracer()
    tracer.install()
    try:
        for seed in seeds:
            run_batch(workload, seed, args, scratch, traced, tracer)
    finally:
        tracer.uninstall()
    # Write the spans out and drop them, so the untraced pass that follows
    # runs without the tracer's memory around.
    OUT.mkdir(parents=True, exist_ok=True)
    tracer.write_spans(OUT / f"{workload.name}.spans.csv.gz")
    for seed in seeds:
        run_batch(workload, seed, args, scratch, after)
    problems = before.problems + traced.problems + after.problems + tracer.problems
    for seed in seeds:
        if traced.digests[seed] != before.digests[seed]:
            problems.append(f"seed {seed}: tracing changed the results")
        if after.digests[seed] != before.digests[seed]:
            problems.append(f"seed {seed}: results changed after tracing was removed")
    if tracer.verifications < 2 * len(seeds):
        problems.append(f"only {tracer.verifications} rate-engine verifications ran")
    untraced_s = sum(after.run_s[seed][0] for seed in seeds)
    traced_s = sum(traced.run_s[seed][0] for seed in seeds)
    # Layer shares compare span times with the batch time they were
    # measured in, so both are unscaled host seconds.
    traced_raw_s = sum(traced.raw_run_s[seed][0] for seed in seeds)
    print("pass host seconds at reference speed: before %.4f traced %.4f after %.4f" % (
        sum(before.run_s[seed][0] for seed in seeds), traced_s, untraced_s))
    metrics = tracer.layer_metrics(traced_raw_s)
    metrics["trace.overhead_ratio"] = (traced_s / untraced_s, "ratio")
    report_dominance(workload, tracer, traced_raw_s)
    if tracer.missing:
        print("untraced targets (not found): " + ", ".join(tracer.missing))
    print_digest(workload, before)
    results = before.all_results()
    return {
        "metrics": metrics,
        "problems": report_problems(problems),
        "attempted": len(results),
        "failed": sum(1 for r in results if not r.ok),
    }


# ----------------------------------------------------------------------
# Metrics and checks
# ----------------------------------------------------------------------


def digest_of(results: list) -> str:
    """SHA-256 over every operation's simulated-time outcome."""
    h = hashlib.sha256()
    for r in results:
        h.update(f"{r.op_id}|{r.kind}|{r.start!r}|{r.end!r}|{r.ok}|{r.detail}\n"
                 .encode())
    return h.hexdigest()


def check_durations(seed: int, results: list) -> List[str]:
    bad = [r.op_id for r in results
           if r.ok and not (math.isfinite(r.end - r.start) and r.end >= r.start)]
    if bad:
        return [f"seed {seed}: {len(bad)} non-finite or negative durations, first {bad[0]}"]
    return []


def report_problems(problems: List[str]) -> List[str]:
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    return problems


def print_digest(workload, suite: Suite) -> None:
    combined = hashlib.sha256(
        "".join(suite.digests[seed] for seed in sorted(suite.digests)).encode()
    ).hexdigest()
    print(f"digest {workload.name} {combined}")


def percentile(values: List[float], q: float) -> float:
    """Inclusive-method percentile, as ``statistics.quantiles`` computes it."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def latencies(results: list, *kinds: str) -> List[float]:
    return [r.end - r.start for r in results if r.ok and r.kind in kinds]


def end_to_end_report(workload, suite: Suite) -> dict:
    results = suite.all_results()
    attempted = len(results)
    failed = sum(1 for r in results if not r.ok)
    # Each batch's host time is the median of its repeats; the suite's
    # throughput is its completed operations over the sum of those times.
    run_s = sum(statistics.median(times) for times in suite.run_s.values())
    raw_s = sum(statistics.median(times) for times in suite.raw_run_s.values())
    reads = sorted(latencies(results, "read"))
    problems = list(suite.problems)
    if not reads:
        problems.append("no read completed")
        reads = [math.nan]
    # The slowest 5% rather than a percentile: on read-small-1024 almost
    # every read takes exactly the line-rate time or twice it, so p95
    # jumps between those values from seed to seed and p99 sits on one.
    slowest = reads[-max(1, len(reads) // 20):]
    metrics: Dict[str, Tuple[float, str]] = {
        "ops_per_s": ((attempted - failed) / run_s, "1/s"),
        "setup_s": (statistics.median(suite.setup_s), "s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
        ),
        "read_mean_sim_s": (statistics.fmean(reads), "s"),
        "read_slowest5pct_mean_sim_s": (statistics.fmean(slowest), "s"),
    }
    appends = latencies(results, "append")
    meta = latencies(results, "create", "stat")
    print(f"ops {attempted} reads {len(reads)} appends {len(appends)} "
          f"meta {len(meta)} batches {len(suite.results)} "
          f"repeats {sum(len(t) for t in suite.run_s.values())}")
    # Reported for the record, not gated (see BENCHMARK.json).
    for name, values, q in (("read", reads, 50), ("read", reads, 95),
                            ("read", reads, 99), ("append", appends, 50),
                            ("append", appends, 95), ("meta", meta, 95)):
        if values:
            print(f"{name}_p{q}_sim_s {percentile(values, q):.6g} s")
    print(f"failed_ratio {failed / attempted:.6g} ratio")
    print(f"unscaled_ops_per_s {(attempted - failed) / raw_s:.6g} 1/s")
    print("batch host seconds at reference speed: " + " ".join(
        f"{seed}:" + ",".join(f"{t:.4f}" for t in times)
        for seed, times in sorted(suite.run_s.items())))
    print_digest(workload, suite)
    return {
        "metrics": metrics,
        "problems": report_problems(problems),
        "attempted": attempted,
        "failed": failed,
    }


def report_dominance(workload, tracer, traced_s: float) -> None:
    """Print each layer's self-time share and test the stated prediction."""
    shares = {name: self_s / traced_s for name, self_s in tracer.self_s.items()}
    print("layer self-time shares: " + ", ".join(
        f"{name} {share:.1%}" for name, share in
        sorted(shares.items(), key=lambda item: -item[1])))
    if workload.dominant:
        predicted = sum(shares[name] for name in workload.dominant)
        rival = max((share, name) for name, share in shares.items()
                    if name not in workload.dominant)
        verdict = "matches" if predicted > rival[0] else "MISMATCH"
        print(f"prediction {verdict}: {'+'.join(workload.dominant)} "
              f"{predicted:.1%} vs largest other layer {rival[1]} {rival[0]:.1%}")
    io_calls = sum(tracer.calls_in_layer(name) for name in ("fs", "rpc", "kvstore"))
    verdict = "matches" if (io_calls > 0) == workload.full_stack else "MISMATCH"
    print(f"prediction {verdict}: fs/rpc/kvstore calls {io_calls} "
          f"(expected {'some' if workload.full_stack else 'none'})")


if __name__ == "__main__":
    sys.exit(main())
