"""Self-tests of the benchmark, on workloads shrunk to a few time units.

Run with ``PYTHONPATH=src python -m pytest perfbench -q``.
"""

import json
import os
import re

import pytest

import run
from run import layers, workloads
from repro.consensus.paxos import GroupConsensus

#: Shrinks every workload's arrival window to a few time units.
TINY = 0.02

def _benchmark():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _names(section):
    return [metric["name"] for metric in _benchmark()[section]]


def test_metric_names_are_well_formed_and_documented():
    names = _names("end_to_end") + _names("per_layer")
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", name), name
    assert _names("end_to_end") == list(workloads.design()["end_to_end"])
    assert _names("per_layer") == list(workloads.design()["per_layer"])
    assert ([w["name"] for w in _benchmark()["workloads"]]
            == list(workloads.WORKLOADS) == list(workloads.design()["workloads"]))


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_workload_emits_every_metric(workload, trace):
    result = run.measure(workload, seed=1, seconds=0, trace=trace,
                         scale=TINY)
    assert result["correct"], result["failures"]
    assert result["failed"] == 0
    declared = _names("per_layer" if trace else "end_to_end")
    assert set(declared) <= set(result["metrics"])
    if not trace:
        assert all(result["metrics"][name] > 0 for name in declared)
    # The traced repetitions put every wrapped entry point back.
    assert GroupConsensus.propose.__qualname__ == "GroupConsensus.propose"


def test_an_undelivered_cast_counts_as_failed():
    prepared = workloads.build_a1_hot(seed=1, profile=False, scale=TINY)
    workloads.run(prepared)
    clean = workloads.outcome(prepared)
    assert clean.failed == 0
    prepared.system.cast(sender=0, dest_groups=(0, 1), mid="undelivered")
    hit = workloads.outcome(prepared)
    assert (hit.attempted, hit.failed) == (clean.attempted + 1, 1)
    metrics = workloads.pooled_metrics([hit])
    assert metrics["completed_ops_frac"] == clean.completed / hit.attempted


def test_traced_self_times_must_add_up():
    class Profiler:
        def timings(self):
            return {"kernel": 0.5, "protocol": 0.2}

    times, problem = layers.self_times(Profiler(), 0.7)
    assert (times["sim.self_s"], problem) == (0.5, None)
    assert "sum to" in layers.self_times(Profiler(), 1.0)[1]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_one_seed_gives_one_behaviour(workload):
    first = run.measure(workload, seed=3, seconds=0, trace=0, scale=TINY)
    again = run.measure(workload, seed=3, seconds=0, trace=0, scale=TINY)
    assert first["digest"] == again["digest"]
    host = {"ops_per_s", "setup_s", "peak_rss_mb"}
    simulated = {k: v for k, v in first["metrics"].items() if k not in host}
    assert simulated == {k: v for k, v in again["metrics"].items()
                         if k not in host}
    other = run.measure(workload, seed=4, seconds=0, trace=0, scale=TINY)
    assert other["digest"] != first["digest"]
