"""Self-tests of the benchmark: seeds, sample guard, tracer sensitivity.

Run from the root of a checkout::

    python3 -m pytest -q perfbench/test_perfbench.py

The layer-sensitivity test plants a fixed host delay in each layer's
boundary calls, through the tracer's own wrappers, on a shortened form
of the workload that layer is heavy in, and checks that the layer's
self time and the run time both grow by what was planted.  It takes
about a minute.
"""

from __future__ import annotations

import dataclasses
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from probe import NOMINAL_PROBE_S, SpeedProbe, corrected  # noqa: E402
from tracer import BOUNDARIES, LAYERS, BoundaryMissing, Tracer  # noqa: E402
from workloads import (WORKLOADS, SampleGuardError, build_deployment,  # noqa
                       payment_seed, percentile)

#: Simulated seconds of the shortened workloads.
SHORT = {"geobft_n64": 0.5, "pbft_realcrypto": 0.5, "payment_open2x": 0.3,
         "geobft_faults": 1.7}

#: The workload each layer is heavy in (README.md, per-layer table).
HEAVY = {"simulator": "geobft_n64", "network": "geobft_n64",
         "chaos": "geobft_faults", "consensus": "pbft_realcrypto",
         "geobft": "geobft_n64", "crypto": "pbft_realcrypto",
         "ledger": "payment_open2x", "workload": "payment_open2x",
         "metrics": "geobft_n64"}

#: Host seconds planted per layer, as a multiple of the unplanted traced
#: run: large enough to stand out of run-to-run host noise.
PLANT_FACTOR = 1.0


def shortened(name: str):
    workload = WORKLOADS[name]
    build = workload.build
    return dataclasses.replace(
        workload,
        build=lambda seed: dataclasses.replace(build(seed),
                                               duration=SHORT[name]))


def run_short(name: str, seed: int = 1, tracer=None):
    """(deployment, result, run_s) of a shortened run, traced if asked."""
    if tracer is not None:
        tracer.install()
    try:
        deployment, _ = build_deployment(shortened(name), seed)
        if tracer is not None:
            tracer.reset()
        start = time.perf_counter()  # repro: allow[no-wallclock] test timing
        result = deployment.run()
        run_s = time.perf_counter() - start  # repro: allow[no-wallclock]
    finally:
        if tracer is not None:
            tracer.uninstall()
    return deployment, result, run_s


def digest(name: str, seed: int) -> str:
    from repro import deployment_digest
    deployment, result, _ = run_short(name, seed)
    return deployment_digest(deployment, result)


# ----------------------------------------------------------------------
# Seeds
# ----------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_equal_seeds_agree_and_different_seeds_differ(name):
    first = digest(name, 5)
    assert digest(name, 5) == first
    assert digest(name, 6) != first


def test_payment_generators_follow_the_benchmark_seed():
    def first_batches(seed):
        deployment, _ = build_deployment(shortened("payment_open2x"), seed)
        return [client._workload.next_batch(3) for client in
                deployment.clients]

    assert first_batches(1) == first_batches(1)
    assert first_batches(1) != first_batches(2)
    assert payment_seed(1, 0) != payment_seed(2, 0)
    # Not the payment_network scenario's fixed seeds (100 + i).
    from repro import PaymentWorkload
    deployment, _ = build_deployment(shortened("payment_open2x"), 1)
    fixed = PaymentWorkload(deployment.clients[0].region, seed=100,
                            accounts=200).next_batch(3)
    assert first_batches(1)[0] != fixed


def test_tracing_does_not_change_the_run():
    from repro import deployment_digest
    traced = run_short("geobft_faults", 2, tracer=Tracer())
    plain = run_short("geobft_faults", 2)
    assert (deployment_digest(*traced[:2])
            == deployment_digest(*plain[:2]))


def test_the_speed_probe_does_not_change_the_run():
    from repro import deployment_digest
    probe = SpeedProbe().start(0.005)
    try:
        probed = run_short("geobft_n64", 3)
    finally:
        probe.stop()
    assert len(probe.take()) > 10
    plain = run_short("geobft_n64", 3)
    assert (deployment_digest(*probed[:2])
            == deployment_digest(*plain[:2]))


def test_the_correction_cancels_a_uniform_slowdown():
    samples = [NOMINAL_PROBE_S] * 20
    base = corrected(2.0, samples)
    assert base == pytest.approx(2.0 - 20 * NOMINAL_PROBE_S)
    # Everything, probe included, runs at half speed.
    assert corrected(4.0, [2 * NOMINAL_PROBE_S] * 20) == pytest.approx(base)
    # The program does twice the work on an unchanged host.
    assert corrected(2.0 * 2 - 20 * NOMINAL_PROBE_S, samples) == (
        pytest.approx(2 * base))
    assert corrected(1.5, []) == 1.5


# ----------------------------------------------------------------------
# Latency-sample guard
# ----------------------------------------------------------------------

def test_percentile_needs_ten_samples_beyond_it():
    values = [float(i) for i in range(1, 201)]
    assert percentile(values, 0.95, "p95") == 190.0
    with pytest.raises(SampleGuardError, match="9 beyond"):
        percentile(values[:199], 0.95, "p95")
    with pytest.raises(SampleGuardError):
        percentile(values[:19], 0.50, "p50")


# ----------------------------------------------------------------------
# Tracer boundaries
# ----------------------------------------------------------------------

def test_every_layer_has_a_boundary():
    assert {layer for layer, _, _ in BOUNDARIES} == set(LAYERS)


def test_a_missing_boundary_is_named():
    bogus = BOUNDARIES + (("network", "repro.net.network",
                           "Network.send_everywhere"),)
    with pytest.raises(BoundaryMissing,
                       match=r"repro\.net\.network:Network\.send_everywhere"):
        Tracer(bogus).install()


def test_a_removed_public_function_is_named(monkeypatch):
    from repro.net.network import Network
    monkeypatch.delattr(Network, "multicast")
    with pytest.raises(BoundaryMissing,
                       match=r"repro\.net\.network:Network\.multicast"):
        Tracer().install()
    # All or nothing: a failed install leaves no wrapper behind.
    from repro.net.simulator import Simulation
    assert not hasattr(Simulation.post, "__wrapped__")


def test_uninstall_restores_every_boundary():
    import importlib
    tracer = Tracer().install()
    tracer.uninstall()
    for _, module, qualname in BOUNDARIES:
        owner = importlib.import_module(module)
        for part in qualname.split("."):
            owner = getattr(owner, part)
        assert not hasattr(owner, "__wrapped__"), qualname


# ----------------------------------------------------------------------
# Layer sensitivity
# ----------------------------------------------------------------------

@pytest.mark.parametrize("layer", LAYERS)
def test_a_planted_delay_shows_in_its_layer_and_in_run_s(layer):
    name = HEAVY[layer]
    # The unplanted run goes right before the planted one, so host-speed
    # drift between the two stays small.
    base = Tracer()
    _, _, base_run = run_short(name, tracer=base)
    index = LAYERS.index(layer)
    boundary_calls = sum(
        count for (owner, _, _), count in zip(BOUNDARIES, base.boundary_calls)
        if owner == layer)
    assert boundary_calls > 0, f"{layer} is never called on {name}"
    target = PLANT_FACTOR * base_run
    planted = Tracer(plant={layer: target / boundary_calls})
    _, _, run_s = run_short(name, tracer=planted)
    assert planted.planted_s >= 0.9 * target
    grown = planted.self_s[index] - base.self_s[index]
    # The layer's self time grows by the planted total, give or take
    # host noise on the layer's own (unplanted) work.
    slack = 0.2 * planted.planted_s + 0.3 * base.self_s[index]
    assert abs(grown - planted.planted_s) <= slack, (
        f"{layer}: self time grew {grown:.3f} s for "
        f"{planted.planted_s:.3f} s planted")
    assert run_s - base_run >= 0.8 * planted.planted_s, (
        f"{layer}: run_s grew {run_s - base_run:.3f} s for "
        f"{planted.planted_s:.3f} s planted")


# ----------------------------------------------------------------------
# The command outside a checkout
# ----------------------------------------------------------------------

def test_the_command_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "geobft_n64",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def test_benchmark_json_matches_the_command():
    import json
    import run
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"),
              encoding="utf-8") as fh:
        doc = json.load(fh)
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {w["name"]: w["why"] for w in doc["workloads"]} == {
        name: WORKLOADS[name].why for name in run.WORKLOAD_NAMES}
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in doc["per_layer"]] == list(run.per_layer())
