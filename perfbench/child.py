"""Run one benchmark workload once, in a fresh process, and report it.

Usage (``run.py`` spawns this; it is not meant to be typed)::

    python3 perfbench/child.py --workload NAME --seed N --mode MODE \
        --spawned-at MONOTONIC_S [--trace-out PATH]

``MODE`` is ``plain`` (timed, untraced), ``traced`` (the same run under
the per-layer tracer) or ``setup`` (build only, for set-up samples).
The last stdout line is one JSON record; a run that fails its audit
still prints a record, with its problems listed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from typing import Dict, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Seconds between host-speed probe jobs (probe.py) while setting up and
#: while running; set-up is short, so it is sampled more densely.
SETUP_PROBE_S = 0.01
RUN_PROBE_S = 0.05


def import_repro():
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import repro
    origin = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    if origin != SRC:
        raise ImportError(f"repro was imported from {origin}, not {SRC}")
    return repro


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer, deployment, result, run_s: float
                  ) -> Dict[str, float]:
    """Per-layer numbers of one traced run (see README.md for the map)."""
    from tracer import LAYERS
    out: Dict[str, float] = {}
    self_s = tracer.layer_self_s()
    calls = tracer.layer_calls()
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_s[layer]
        out[f"{layer}.share"] = _ratio(self_s[layer], run_s)
        out[f"{layer}.calls"] = calls[layer]
    metrics = deployment.metrics
    completed = result.completed_txns
    sim = deployment.sim
    out["simulator.events"] = sim.events_processed
    out["simulator.max_queue_depth"] = sim.max_queue_depth

    telemetry = deployment.network.telemetry()
    sends = telemetry["sends"] + telemetry["self_sends"]
    out["network.us_per_send"] = _ratio(self_s["network"] * 1e6, sends)
    out["network.msgs_per_txn"] = _ratio(
        metrics.local_messages + metrics.global_messages, completed)
    out["network.global_msgs_per_txn"] = _ratio(metrics.global_messages,
                                                completed)
    out["network.global_bytes_per_txn"] = _ratio(metrics.global_bytes,
                                                 completed)

    timeline = deployment.timeline
    out["chaos.faults_fired"] = (
        sum(1 for _, phase, _ in timeline.activation_log() if phase == "on")
        if timeline is not None else 0)
    out["chaos.msgs_dropped"] = (telemetry["suppressed_sends"]
                                 + telemetry["in_flight_drops"]
                                 + telemetry["receiver_drops"])

    deliveries = tracer.calls_of("BaseReplica.deliver")
    executed = metrics.total_executed_txns()
    blocks = sum(r.ledger.height for r in deployment.replicas.values())
    out["consensus.deliveries"] = deliveries
    out["consensus.us_per_delivery"] = _ratio(self_s["consensus"] * 1e6,
                                              deliveries)
    out["consensus.txns_per_batch"] = _ratio(executed, blocks)
    out["consensus.view_changes"] = tracer.calls_of(
        "PbftEngine.start_view_change")

    counts = metrics.message_counts().get("GlobalShare", {})
    out["geobft.global_shares"] = counts.get("local", 0) + counts.get(
        "global", 0)
    rvcs = 0
    for replica in deployment.replicas.values():
        manager = getattr(replica, "remote_view_changes", None)
        if manager is not None:
            rvcs += sum(manager.vc_count(c)
                        for c in deployment.cluster_members)
    out["geobft.remote_view_changes"] = rvcs

    cache = deployment.verification_cache.stats()
    encoding = deployment.encoding_cache_delta()
    out["crypto.sign_calls"] = tracer.calls_of("Signer.sign")
    out["crypto.verify_calls"] = (tracer.calls_of("KeyRegistry.verify")
                                  + tracer.calls_of("MacAuthenticator.verify"))
    out["crypto.verify_cache_hit_frac"] = _ratio(
        cache["hits"], cache["hits"] + cache["misses"])
    out["crypto.encode_cache_hit_frac"] = _ratio(
        encoding["encode_hits"],
        encoding["encode_hits"] + encoding["encode_misses"])

    out["ledger.executed_txns"] = executed
    out["ledger.us_per_executed_txn"] = _ratio(self_s["ledger"] * 1e6,
                                               executed)
    out["ledger.results_digest_calls"] = tracer.calls_of(
        "ExecutionEngine.results_digest")
    out["ledger.state_digest_calls"] = tracer.calls_of(
        "ExecutionEngine.state_digest")

    batches = (tracer.calls_of("YcsbWorkload.next_batch")
               + tracer.calls_of("PaymentWorkload.next_batch"))
    out["workload.batches"] = batches
    out["workload.us_per_batch"] = _ratio(self_s["workload"] * 1e6, batches)
    out["workload.rejected_txns"] = metrics.measured_rejected_txns
    out["workload.retried_batches"] = metrics.measured_retried_batches
    out["workload.abandoned_txns"] = metrics.measured_abandoned_txns

    attributed = sum(self_s[layer] for layer in LAYERS)
    out["trace.unattributed_share"] = _ratio(run_s - attributed, run_s)
    return out


def run_once(workload_name: str, seed: int, mode: str, spawned_at: float,
             trace_out: Optional[str] = None) -> Dict[str, object]:
    """Build, run and audit one workload; returns the run record.

    ``spawned_at`` is the ``time.monotonic()`` reading taken when the
    parent started this process, so ``setup_s`` includes interpreter
    start-up and ``import repro``.
    """
    from probe import SpeedProbe, corrected
    probe = SpeedProbe().start(SETUP_PROBE_S) if mode != "traced" else None
    start = time.monotonic()  # repro: allow[no-wallclock] set-up clock
    import_repro()
    imported = time.monotonic()  # repro: allow[no-wallclock] set-up clock
    from workloads import (WORKLOADS, audit, build_deployment,
                           sim_metrics)
    workload = WORKLOADS[workload_name]
    tracer = None
    if mode == "traced":
        from tracer import Tracer
        warmup = workload.build(seed).warmup
        tracer = Tracer(slice_from=warmup).install()
    deployment, log = build_deployment(workload, seed)
    built = time.monotonic()  # repro: allow[no-wallclock] set-up clock
    setup_samples = []
    if probe is not None:
        probe.stop()
        setup_samples = probe.take()
    record: Dict[str, object] = {
        "workload": workload_name, "seed": seed, "mode": mode,
        "setup_wall_s": built - spawned_at,
        "setup_s": corrected(built - spawned_at, setup_samples),
        "import_s": imported - start, "build_s": built - imported,
        "problems": [],
    }
    if mode == "setup":
        return record
    if tracer is not None:
        tracer.reset()
    if probe is not None:
        probe.start(RUN_PROBE_S)
    run_start = time.perf_counter()  # repro: allow[no-wallclock] run clock
    try:
        result = deployment.run()
    finally:
        run_end = time.perf_counter()  # repro: allow[no-wallclock] run clock
        if tracer is not None:
            tracer.uninstall()
        if probe is not None:
            probe.stop()
    run_wall_s = run_end - run_start
    run_samples = probe.take() if probe is not None else []
    run_s = corrected(run_wall_s, run_samples)
    from repro import deployment_digest
    record["run_wall_s"] = run_wall_s
    record["run_s"] = run_s
    record["probe_samples"] = len(run_samples)
    record["host_us_per_txn"] = run_s * 1e6 / max(1, result.completed_txns)
    record["events"] = deployment.sim.events_processed
    record["problems"] = audit(deployment, result)
    record["digest"] = deployment_digest(deployment, result)
    record["sim"] = sim_metrics(workload, deployment, result, log)
    if tracer is not None:
        layers = layer_metrics(tracer, deployment, result, run_s)
        record["layers"] = layers
        if trace_out:
            tracer.write_chrome_trace(trace_out, run_start, {
                "workload": workload_name, "seed": seed, "run_s": run_s,
                "layers": layers})
    record["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                             .ru_maxrss / 1024.0)
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("plain", "traced", "setup"),
                        required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--trace-out")
    args = parser.parse_args(argv)
    sys.path.insert(0, HERE)
    record = run_once(args.workload, args.seed, args.mode,
                      spawned_at=args.spawned_at, trace_out=args.trace_out)
    print(json.dumps(record, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
