"""The repository benchmark: one command, four workloads, every metric.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload geobft_n64 --seed 1 --seconds 15 \
        --trace 0

Each measured run is a fresh ``perfbench/child.py`` process that imports
``repro`` from this checkout's ``src``, builds the workload, runs it on
the serial engine and audits it; runs repeat, one at a time, until
``--seconds`` have passed (at least ``MIN_RUNS``).  Host times are
corrected for host-speed drift by the probe in ``probe.py``.  ``--trace 0`` prints
the end-to-end metrics (medians over the runs), ``--trace 1`` adds one
traced run and prints the per-layer metrics.  The last stdout line is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

Without ``src/repro`` next to this directory the command exits with
code 2 and prints no result.  See README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from typing import Dict, List, Optional, Tuple

from tracer import LAYERS
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench-out")

WORKLOAD_NAMES = tuple(WORKLOADS)

#: Measured runs per invocation, however short ``--seconds`` is.
MIN_RUNS = 3
MAX_RUNS = 12
#: Set-up samples per invocation (build-only processes fill the gap).
SETUP_SAMPLES = 9
#: Wall-clock budget of one invocation; no run starts past it.
BUDGET_S = 170.0

#: (name, unit, better, bound) of the end-to-end metrics, in report
#: order; ``bound`` is the share of the parent's median by which a change
#: may worsen the metric.  Host times get the widest bound because the
#: host's speed drifts (README.md); the ``sim_*`` metrics are modelled.
END_TO_END: Tuple[Tuple[str, str, str, float], ...] = (
    ("setup_s", "s", "lower", 0.25),
    ("run_s", "s", "lower", 0.25),
    ("host_us_per_txn", "us", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("sim_tput_txn_s", "txn/s", "higher", 0.15),
    ("sim_p50_latency_s", "s", "lower", 0.2),
    ("sim_p95_latency_s", "s", "lower", 0.2),
    ("sim_served_frac", "fraction", "higher", 0.25),
    ("sim_outage_s", "s", "lower", 0.25),
    ("sim_min_replica_progress", "fraction", "higher", 0.25),
)
SIM_METRICS = tuple(m[0] for m in END_TO_END if m[0].startswith("sim_"))

#: Extra per-layer metrics, after ``<layer>.self_s/.share/.calls``.
_LAYER_EXTRAS: Tuple[Tuple[str, str, str], ...] = (
    ("simulator.events", "count", "lower"),
    ("simulator.us_per_event", "us", "lower"),
    ("simulator.max_queue_depth", "count", "lower"),
    ("network.us_per_send", "us", "lower"),
    ("network.msgs_per_txn", "msgs/txn", "lower"),
    ("network.global_msgs_per_txn", "msgs/txn", "lower"),
    ("network.global_bytes_per_txn", "B/txn", "lower"),
    ("chaos.faults_fired", "count", "higher"),
    ("chaos.msgs_dropped", "count", "lower"),
    ("consensus.deliveries", "count", "lower"),
    ("consensus.us_per_delivery", "us", "lower"),
    ("consensus.txns_per_batch", "txn/batch", "higher"),
    ("consensus.view_changes", "count", "lower"),
    ("geobft.global_shares", "count", "lower"),
    ("geobft.remote_view_changes", "count", "lower"),
    ("crypto.sign_calls", "count", "lower"),
    ("crypto.verify_calls", "count", "lower"),
    ("crypto.verify_cache_hit_frac", "fraction", "higher"),
    ("crypto.encode_cache_hit_frac", "fraction", "higher"),
    ("ledger.executed_txns", "count", "higher"),
    ("ledger.us_per_executed_txn", "us", "lower"),
    ("ledger.results_digest_calls", "count", "lower"),
    ("ledger.state_digest_calls", "count", "lower"),
    ("workload.batches", "count", "higher"),
    ("workload.us_per_batch", "us", "lower"),
    ("workload.rejected_txns", "count", "lower"),
    ("workload.retried_batches", "count", "lower"),
    ("workload.abandoned_txns", "count", "lower"),
    ("setup.import_s", "s", "lower"),
    ("setup.build_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.unattributed_share", "fraction", "lower"),
)


def per_layer() -> Tuple[Tuple[str, str, str], ...]:
    """(name, unit, better) of every per-layer metric, in report order."""
    common = tuple(
        metric for layer in LAYERS for metric in (
            (f"{layer}.self_s", "s", "lower"),
            (f"{layer}.share", "fraction", "lower"),
            (f"{layer}.calls", "count", "lower")))
    return common + _LAYER_EXTRAS


def now() -> float:
    return time.monotonic()  # repro: allow[no-wallclock] benchmark clock


def spawn(workload: str, seed: int, mode: str, timeout: float,
          trace_out: Optional[str] = None) -> Dict[str, object]:
    """Run one child process; a crash becomes a record with a problem."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--workload", workload, "--seed", str(seed), "--mode", mode,
           "--spawned-at", repr(now())]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        return {"mode": mode, "problems": [
            f"{mode} run exceeded {timeout:.0f} s and was killed"]}
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        tail = done.stderr.strip().splitlines()[-3:]
        return {"mode": mode, "problems": [
            f"{mode} run exited with code {done.returncode}: "
            + " | ".join(tail)]}
    return json.loads(lines[-1])


def quartile_spread(values: List[float]) -> float:
    """(Q3 - Q1) / median, the spread the bounds are judged against."""
    if len(values) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else 0.0


def judge(runs: List[Dict[str, object]]) -> Tuple[bool, int, int, List[str]]:
    """(correct, attempted, failed, problems) over the measured runs.

    An operation is one simulated transaction offered (open loop) or
    submitted (closed loop) in a run's measurement window.  A run fails
    when it raised, failed an audit, or disagrees with the other runs at
    this seed on the deployment digest or any ``sim_*`` metric; all of a
    failed run's operations count as failed.
    """
    problems: List[str] = []
    known = [r["sim"]["window_attempted_txns"] for r in runs if "sim" in r]
    per_run = max(known) if known else 1
    signatures = Counter(_signature(r) for r in runs if "sim" in r)
    majority: Optional[tuple] = None
    if signatures:
        (top, count), = signatures.most_common(1)
        if list(signatures.values()).count(count) == 1:
            majority = top
    attempted = failed = 0
    for i, run in enumerate(runs):
        ops = run["sim"]["window_attempted_txns"] if "sim" in run else per_run
        attempted += ops
        bad = list(run.get("problems", []))
        if "sim" in run and _signature(run) != majority:
            bad.append("digest or sim_* metrics disagree with the other "
                       "runs at this seed")
        if bad:
            failed += ops
            problems.extend(f"run {i + 1} ({run.get('mode')}): {p}"
                            for p in bad)
    return not problems, max(1, attempted), failed, problems


def _signature(run: Dict[str, object]) -> tuple:
    sim = run["sim"]
    return (run["digest"],) + tuple(sim[name] for name in SIM_METRICS)


def measure(workload: str, seed: int, seconds: float, min_runs: int,
            started: float) -> List[Dict[str, object]]:
    """Plain runs until ``seconds`` have passed and ``min_runs`` exist."""
    runs: List[Dict[str, object]] = []
    while True:
        elapsed = now() - started
        remaining = BUDGET_S - elapsed
        if runs and remaining < _longest(runs):
            break
        runs.append(spawn(workload, seed, "plain", remaining))
        if len(runs) >= MAX_RUNS:
            break
        if len(runs) >= min_runs and now() - started >= seconds:
            break
    return runs


def _longest(runs: List[Dict[str, object]]) -> float:
    return max(float(r.get("setup_wall_s", 0.0))
               + float(r.get("run_wall_s", 0.0)) for r in runs) * 1.5


def end_to_end(runs: List[Dict[str, object]],
               setups: List[float]) -> Dict[str, List[float]]:
    ok = [r for r in runs if "sim" in r]
    samples: Dict[str, List[float]] = {
        "setup_s": setups,
        "run_s": [r["run_s"] for r in ok],
        "host_us_per_txn": [r["host_us_per_txn"] for r in ok],
        "peak_rss_mb": [r["peak_rss_mb"] for r in ok],
    }
    for name in SIM_METRICS:
        samples[name] = [r["sim"][name] for r in ok]
    return samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="ResilientDB reproduction benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM becomes an exception, so subprocess.run kills and reaps the
    # running child instead of leaving it orphaned.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    started = now()
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no repro package under {ROOT}/src; run from the "
              "root of a checkout", file=sys.stderr)
        return 2

    runs = measure(args.workload, args.seed, args.seconds,
                   1 if args.trace else MIN_RUNS, started)
    if not any("sim" in r for r in runs):
        for run in runs:
            print("; ".join(run.get("problems", [])), file=sys.stderr)
        print("perfbench: no run completed", file=sys.stderr)
        return 3
    setups = [r["setup_s"] for r in runs if "setup_s" in r]
    while (not args.trace and len(setups) < SETUP_SAMPLES
           and now() - started < BUDGET_S - 10):
        extra = spawn(args.workload, args.seed, "setup", 30.0)
        if "setup_s" not in extra:
            runs.append(extra)
            break
        setups.append(extra["setup_s"])

    trace_path = None
    if args.trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        trace_path = os.path.join(
            OUT_DIR, f"{args.workload}-seed{args.seed}.trace.json")
        runs.append(spawn(args.workload, args.seed, "traced",
                          BUDGET_S - (now() - started), trace_path))

    correct, attempted, failed, problems = judge(runs)
    for problem in problems:
        print(f"FAILED {problem}", file=sys.stderr)
    plain = [r for r in runs if r.get("mode") == "plain" and "sim" in r]
    sim = plain[0]["sim"]
    print(f"workload {args.workload} seed {args.seed}: {len(plain)} runs, "
          f"digest {plain[0]['digest'][:16]}, "
          f"{sim['latency_samples']} latency samples, run_s "
          + " ".join(f"{r['run_s']:.3f}" for r in plain)
          + " (wall " + " ".join(f"{r['run_wall_s']:.3f}" for r in plain)
          + ")")

    metrics: Dict[str, Dict[str, object]] = {}
    if args.trace:
        traced = runs[-1]
        if "layers" not in traced:
            print("perfbench: the traced run failed", file=sys.stderr)
            return 3
        run_s = statistics.median(r["run_s"] for r in plain)
        layers = dict(traced["layers"])
        layers["simulator.us_per_event"] = run_s * 1e6 / traced["events"]
        layers["setup.import_s"] = statistics.median(
            r["import_s"] for r in plain)
        layers["setup.build_s"] = statistics.median(
            r["build_s"] for r in plain)
        # The traced run has no speed probe: compare wall with wall.
        layers["trace.overhead_frac"] = (
            traced["run_wall_s"]
            / statistics.median(r["run_wall_s"] for r in plain))
        for name, unit, _ in per_layer():
            metrics[name] = {"value": layers[name], "unit": unit}
            print(f"  {name:<34} {layers[name]:>14.6g} {unit}")
        print(f"spans of a slice after warmup: {trace_path}")
    else:
        samples = end_to_end(runs, setups)
        for name, unit, _, _ in END_TO_END:
            values = samples[name]
            median = statistics.median(values)
            metrics[name] = {"value": median, "unit": unit}
            print(f"  {name:<26} {median:>14.6g} {unit:<9} "
                  f"spread {quartile_spread(values):6.2%}  n={len(values)}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
