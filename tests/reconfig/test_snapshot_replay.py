"""The reconfig checker's handoff-fidelity check on a real elastic run.

``perfbench/run.py --workload store_rebalance --seed 13`` runs subrun
13023.  There, k00000 moves back and forth between groups, and post-move
writer t00133 (two increments of k00000) executes at group 2 right
after rc00005's handoff.  The global serial order places t00133 before
t00134, a predecessor of rc00005 that touches only k00004.  The one-copy
replay used to wait for every predecessor before it captured k00000 at
rc00005, so it read t00133's increments too and reported a false
``snapshot_divergence`` (544 migrated, 557 "expected").  The replay now
waits only on predecessors that touch the key.

The scenario is rebuilt through ``ScenarioSpec`` from the benchmark's
design record, so it stays the run the benchmark makes.
"""

import dataclasses
import json
import os

import pytest

from repro.campaigns.runner import build_scenario_system, run_checkers
from repro.campaigns.spec import ScenarioSpec
from repro.reconfig.checker import ReconfigViolation, check_reconfig
from repro.store.spec import StoreSpec

DESIGN = os.path.join(os.path.dirname(__file__), "..", "..", "perfbench",
                      "design.json")
SUBRUN_SEED = 13023


@pytest.fixture(scope="module")
def finished_run():
    with open(DESIGN) as fh:
        cfg = json.load(fh)["workloads"]["store_rebalance"]["config"]
    spec = ScenarioSpec(
        name="store_rebalance", protocol=cfg["protocol"],
        group_sizes=tuple(cfg["group_sizes"]),
        store=StoreSpec(**cfg["store"]),
        checkers=("properties", "serializability", "convergence",
                  "reconfig"),
    )
    system, _, _ = build_scenario_system(spec, SUBRUN_SEED)
    system.run_quiescent(max_events=50_000_000)
    return spec, system


def test_subrun_13023_checkers_green(finished_run):
    spec, system = finished_run
    verdicts = run_checkers(system, spec)
    assert verdicts == {name: "ok" for name in spec.checkers}
    # The move the false report named did complete, with k00000 in it.
    cluster = system.store_cluster
    assert "rc00005" in check_reconfig(cluster)["completed"]
    snapshots = [dict(store.handoffs["rc00005"].snapshot)
                 for store in cluster.stores.values()
                 if "rc00005" in store.handoffs]
    assert snapshots and all(s.get("k00000") == 544 for s in snapshots)


def test_tampered_handoff_raises_snapshot_divergence(finished_run):
    """Mutating one completed handoff must still trip the check."""
    _, system = finished_run
    cluster = system.store_cluster
    store = next(s for s in cluster.stores.values()
                 if "rc00005" in s.handoffs)
    original = store.handoffs["rc00005"]
    assert not original.aborted
    tampered = tuple((k, v + 1) for k, v in original.snapshot)
    store.handoffs["rc00005"] = dataclasses.replace(
        original, snapshot=tampered)
    try:
        with pytest.raises(ReconfigViolation) as caught:
            check_reconfig(cluster)
    finally:
        store.handoffs["rc00005"] = original
    assert caught.value.context["kind"] == "snapshot_divergence"
    assert caught.value.context["reconfig_id"] == "rc00005"
