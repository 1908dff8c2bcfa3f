"""The benchmark's four workloads and the checks run on every run.

Each workload is built through the public ``repro`` API from the
benchmark seed alone: the seed becomes ``ExperimentConfig.seed`` (which
seeds the simulator, the YCSB generators, the open-loop arrival
streams and the chaos context), the start instants of the closed-loop
clients and, for ``payment_open2x``, the seeds of the payment
generators, which the ``payment_network`` scenario would otherwise fix
at ``100 + i``.

Why each workload exists is recorded in ``README.md`` next to this
file; the short form is in ``WORKLOADS[name].why``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

#: Percentiles need this many samples strictly beyond them before the
#: benchmark reports them.
MIN_TAIL_SAMPLES = 10

#: Shared-account table of the payment workload (the scenario default).
PAYMENT_ACCOUNTS = 200


@dataclass(frozen=True)
class Workload:
    """One named benchmark input: a config builder plus optional faults."""

    name: str
    why: str
    #: Open loop (offered load) or closed loop (client batches).
    open_loop: bool
    build: Callable[[int], object]
    #: Builds the FaultTimeline for a built deployment, or ``None``.
    faults: Optional[Callable[[object], object]] = None
    #: Installs the seeded payment generators on a built deployment.
    payments: bool = False


def _geobft_n64(seed: int):
    from repro import ExperimentConfig
    # The ``scale`` campaign's n=64 point: 4 clusters of 16 replicas,
    # closed loop of 4 clients x 8 outstanding batches per cluster.
    return ExperimentConfig(
        protocol="geobft", num_clusters=4, replicas_per_cluster=16,
        cluster_sizes=[16, 16, 16, 16], batch_size=100,
        duration=1.2, warmup=0.3, seed=seed, record_count=10_000,
        fast_crypto=True)


def _pbft_realcrypto(seed: int):
    from repro import ExperimentConfig
    # ``point_config("pbft", 4, 4)`` with real HMAC/SHA-256 crypto.  1.0 s
    # simulated keeps more than ten latency samples beyond the p95.
    return ExperimentConfig(
        protocol="pbft", num_clusters=4, replicas_per_cluster=4,
        batch_size=100, duration=1.0, warmup=0.3, seed=seed,
        record_count=10_000, fast_crypto=False)


def _payment_open2x(seed: int):
    from repro import ExperimentConfig, TrafficSpec
    # The overload campaign's geobft x2 payment point: 1.2M users offer
    # 2 x 125k txn/s as Poisson arrivals.  Records grow on every
    # transfer, so the run is kept short to bound memory.
    users = 1_200_000
    spec = TrafficSpec(process="poisson", users=users,
                       rate_per_user=2.0 * 125_000 / users, tick=0.02,
                       deadline=0.75, max_retries=2, retry_backoff=0.25,
                       window=20_000)
    return ExperimentConfig(
        protocol="geobft", num_clusters=2, replicas_per_cluster=4,
        batch_size=100, duration=0.5, warmup=0.2, seed=seed,
        record_count=10_000, fast_crypto=True, traffic=spec)


def _geobft_faults(seed: int):
    from repro import ExperimentConfig
    # Figure 12's primary-crash point: 4.5 s simulated, 0.6 s
    # view-change timeout and 1.2 s client retry.
    return ExperimentConfig(
        protocol="geobft", num_clusters=4, replicas_per_cluster=4,
        batch_size=100, duration=4.5, warmup=0.4, seed=seed,
        record_count=10_000, fast_crypto=True, view_change_timeout=0.6,
        client_retry_timeout=1.2, checkpoint_interval=6)


def _fault_timeline(deployment):
    from repro import CrashFault, FaultTimeline, LinkDelayFault, PartitionFault
    clients = [client.node_id for client in deployment.clients]
    return FaultTimeline([
        # Seeded jitter on the client access links only: without it the
        # median batch takes the same fixed commit path under every seed.
        LinkDelayFault(jitter_ms=0.05, a=clients, at=0.0,
                       name="client-access-jitter"),
        # At 0.8 s (Figure 12's instant) the recovery splits by seed into
        # two regimes, 1.8 s or 3.1 s without service, which no bound on
        # the seed-to-seed spread can hold; at 0.7 s every seed tried
        # takes the slow path.
        CrashFault("primary:1", at=0.7, name="crash-primary-1"),
        CrashFault("replica:2.3", at=1.2, until=1.6,
                   name="crash-recover-backup-2"),
        PartitionFault(["cluster:3"], ["cluster:1", "cluster:2", "cluster:4"],
                       at=2.2, until=2.8, name="isolate-heal-cluster-3"),
    ], name="perfbench-faults")


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("geobft_n64",
             "GeoBFT 4x16 closed loop, fast crypto: simulator calendar and "
             "16-way local fan-out dominate",
             open_loop=False, build=_geobft_n64),
    Workload("pbft_realcrypto",
             "flat PBFT over 16 replicas in 4 regions with real HMAC/SHA-256: "
             "all-to-all WAN phases and the only real crypto",
             open_loop=False, build=_pbft_realcrypto),
    Workload("payment_open2x",
             "GeoBFT 2x4 open loop at 2x saturation with read-modify-write "
             "payments: ledger and open-loop admission dominate",
             open_loop=True, build=_payment_open2x, payments=True),
    Workload("geobft_faults",
             "GeoBFT 4x4 with primary crash, backup crash-recover and cluster "
             "isolate-heal: view change, remote view change and recovery",
             open_loop=False, build=_geobft_faults, faults=_fault_timeline),
)}


#: Closed-loop clients start at seeded instants in [0, START_SPREAD_S).
#: Without it every seed gives the same simulated timing (the seed would
#: only relabel YCSB keys); 0.1 ms is far below every latency measured.
START_SPREAD_S = 1e-4


class CompletionLog:
    """Client completions of one run, observed at ``Metrics``.

    Keeps, per region (cluster), the instants at which that region's
    clients completed a request, plus the post-warmup batch latencies
    and committed transactions.
    """

    def __init__(self, metrics):
        self.warmup = metrics.warmup
        self.instants: Dict[int, List[float]] = {}
        self.latencies: List[float] = []
        self.committed = 0
        self._record = metrics.record_completed
        # Clients call ``metrics.record_completed``; the instance
        # attribute shadows the method for this deployment only.
        metrics.record_completed = self.record

    def record(self, client, txns: int, latency: float, now: float) -> None:
        self._record(client, txns, latency, now)
        self.instants.setdefault(client.cluster, []).append(now)
        if now >= self.warmup:
            self.latencies.append(latency)
            self.committed += txns


def payment_seed(seed: int, index: int) -> int:
    """Seed of the ``index``-th payment generator for benchmark ``seed``."""
    return seed * 10_007 + index


def _stagger_start(sim, client, delay: float) -> None:
    start = client.start
    client.start = lambda: sim.schedule(delay, start)


def build_deployment(workload: Workload, seed: int):
    """Build the deployment and install its inputs and faults.

    Returns ``(deployment, CompletionLog)``.
    """
    from repro import Deployment, PaymentWorkload
    deployment = Deployment(workload.build(seed))
    log = CompletionLog(deployment.metrics)
    if workload.payments:
        for i, client in enumerate(deployment.clients):
            # The drivers expose no public setter; the payment_network
            # scenario swaps the same attribute.
            client._workload = PaymentWorkload(
                client.region, seed=payment_seed(seed, i),
                accounts=PAYMENT_ACCOUNTS)
    if not workload.open_loop:
        rng = random.Random(seed)
        offsets = sorted(rng.uniform(0.0, START_SPREAD_S)
                         for _ in deployment.clients)
        for client, offset in zip(deployment.clients, offsets):
            _stagger_start(deployment.sim, client, offset)
    if workload.faults is not None:
        workload.faults(deployment).install(deployment)
    return deployment, log


# ----------------------------------------------------------------------
# Modelled (simulated-time) metrics and correctness
# ----------------------------------------------------------------------

class SampleGuardError(RuntimeError):
    """A percentile was requested with too few samples beyond it."""


def percentile(values: List[float], q: float, name: str) -> float:
    """Nearest-rank ``q`` percentile, refusing thin tails.

    The rank is ``ceil(q * n)``; the samples beyond it must number at
    least :data:`MIN_TAIL_SAMPLES`, otherwise :class:`SampleGuardError`.
    """
    ordered = sorted(values)
    n = len(ordered)
    rank = max(1, math.ceil(q * n))
    beyond = n - rank
    if beyond < MIN_TAIL_SAMPLES:
        raise SampleGuardError(
            f"{name}: {n} latency samples leave {beyond} beyond the "
            f"p{q * 100:g}; at least {MIN_TAIL_SAMPLES} are required")
    return ordered[rank - 1]


def honest_live_replicas(deployment) -> List[Tuple[object, object]]:
    """(node, replica) pairs neither crashed at the end nor Byzantine."""
    timeline = deployment.timeline
    byzantine = (timeline.byzantine_nodes() if timeline is not None
                 else frozenset())
    failures = deployment.network.failures
    return [(node, replica) for node, replica in deployment.replicas.items()
            if not failures.is_crashed(node) and node not in byzantine]


def sim_metrics(workload: Workload, deployment, result,
                log: CompletionLog) -> Dict[str, object]:
    """The modelled end-to-end metrics of one finished run."""
    metrics = deployment.metrics
    end = deployment.sim.now
    if workload.open_loop:
        attempted = metrics.measured_offered_txns
    else:
        attempted = metrics.measured_submitted_txns
    # Time without service as a region's users see it: the longest
    # post-warmup interval in which none of that region's clients
    # completed a request, over every region.
    outage = 0.0
    for instants in log.instants.values():
        points = [log.warmup] + [t for t in instants if t >= log.warmup]
        points.append(end)
        outage = max(outage, max(b - a for a, b in zip(points, points[1:])))
    heights = [replica.ledger.height
               for _, replica in honest_live_replicas(deployment)]
    top = max(heights)
    return {
        "sim_tput_txn_s": result.throughput_txn_s,
        "sim_p50_latency_s": percentile(log.latencies, 0.50,
                                        f"{workload.name} p50"),
        "sim_p95_latency_s": percentile(log.latencies, 0.95,
                                        f"{workload.name} p95"),
        "sim_served_frac": log.committed / attempted if attempted else 0.0,
        "sim_outage_s": outage,
        "sim_min_replica_progress": min(heights) / top if top else 0.0,
        "latency_samples": len(log.latencies),
        "window_attempted_txns": attempted,
    }


def audit(deployment, result) -> List[str]:
    """Safety, liveness and deep ledger audits; returns the problems."""
    from repro.errors import LedgerError
    problems = []
    report = deployment.invariants
    if report is None:
        problems.append("run() produced no invariant report")
    else:
        if not report.safety_ok:
            problems.append("safety audit failed")
        if not report.liveness_ok:
            problems.append("liveness audit failed: "
                            + "; ".join(report.liveness_failures))
    for node, replica in honest_live_replicas(deployment):
        try:
            replica.ledger.verify(deep=True)
        except LedgerError as exc:
            problems.append(f"deep ledger audit failed on {node}: {exc!r}")
    if result.completed_txns <= 0:
        problems.append("no client transaction committed")
    return problems
