"""The serializability and reconfig checkers share one one-copy replay.

Both checkers read the same replay of the same finished run, so
:func:`repro.store.checker.finished_replay` computes it once and keeps
it on the cluster.  These tests pin that sharing changes no verdict:
green, with a tampered handoff snapshot, and with a tampered replica
state, the shared replay says what two independent replays say.
"""

import dataclasses

import pytest

from repro.campaigns.runner import build_scenario_system, run_checkers
from repro.campaigns.spec import ScenarioSpec
from repro.reconfig.checker import ReconfigViolation, check_reconfig
from repro.store.checker import (
    StreamingSerializabilityChecker,
    check_serializability,
    finished_replay,
)
from repro.store.spec import StoreSpec

SPEC = ScenarioSpec(
    name="elastic", protocol="a1", group_sizes=(2,) * 8,
    store=StoreSpec(n_keys=48, placement="ring", rate=1.5, duration=80.0,
                    multi_partition_fraction=0.4, zipf_skew=1.0,
                    popularity="global", service_time=2.5,
                    rebalance_interval=10.0, rebalance_threshold=1.3),
    checkers=("serializability", "reconfig"),
)


@pytest.fixture
def cluster():
    system, _, _ = build_scenario_system(SPEC, 1)
    system.run_quiescent()
    return system.store_cluster


def _independent(cluster):
    """Both verdicts, each from a replay of its own."""
    verdicts = {}
    for name in SPEC.checkers:
        cluster.replay = None
        verdicts.update(run_checkers(cluster.system,
                                     dataclasses.replace(SPEC,
                                                         checkers=(name,))))
    cluster.replay = None
    return verdicts


def _count_finalizes(monkeypatch):
    calls = []
    original = StreamingSerializabilityChecker.finalize

    def counted(self, cluster):
        calls.append(cluster)
        return original(self, cluster)

    monkeypatch.setattr(StreamingSerializabilityChecker, "finalize", counted)
    return calls


def test_one_replay_serves_both_checkers(cluster, monkeypatch):
    calls = _count_finalizes(monkeypatch)
    shared = run_checkers(cluster.system, SPEC)
    assert shared == {"serializability": "ok", "reconfig": "ok"}
    assert len(calls) == 1
    summary = check_reconfig(cluster)
    assert len(calls) == 1
    assert summary["completed"]  # the run did migrate keys
    assert _independent(cluster) == shared
    assert len(calls) == 3
    assert check_reconfig(cluster) == summary


def test_shared_replay_equals_a_fresh_one(cluster):
    order, reconfigs = finished_replay(cluster)
    fresh = StreamingSerializabilityChecker(cluster.system.topology)
    fresh.ingest_journals(cluster)
    assert fresh.finalize(cluster) == order == check_serializability(cluster)
    assert fresh.reconfig_replay == reconfigs
    assert reconfigs  # the run did migrate keys


def test_tampered_snapshot_fails_alike(cluster):
    run_checkers(cluster.system, SPEC)  # the replay is now shared
    rid = check_reconfig(cluster)["completed"][0]
    store = next(s for s in cluster.stores.values() if rid in s.handoffs)
    original = store.handoffs[rid]
    store.handoffs[rid] = dataclasses.replace(
        original, snapshot=tuple((k, v + 1) for k, v in original.snapshot))
    shared = run_checkers(cluster.system, SPEC)
    assert shared["serializability"] == "ok"
    assert shared["reconfig"].startswith("FAIL: ")
    assert _independent(cluster) == shared
    with pytest.raises(ReconfigViolation) as caught:
        check_reconfig(cluster)
    assert caught.value.context["kind"] == "snapshot_divergence"
    assert caught.value.context["reconfig_id"] == rid


def test_failed_replay_is_shared_too(cluster, monkeypatch):
    """A replay that fails fails both checkers with the same text,
    from one finalize, as two independent replays do."""
    store = next(s for s in cluster.stores.values() if s.state)
    key = sorted(store.state)[0]
    store.state[key] = ("tampered", store.state[key])
    calls = _count_finalizes(monkeypatch)
    shared = run_checkers(cluster.system, SPEC)
    assert len(calls) == 1
    assert shared["serializability"].startswith("FAIL: state divergence")
    assert shared["reconfig"] == shared["serializability"]
    assert _independent(cluster) == shared


def test_a_run_that_goes_on_is_replayed_afresh(cluster, monkeypatch):
    calls = _count_finalizes(monkeypatch)
    _, reconfigs = finished_replay(cluster)
    assert finished_replay(cluster)[1] is reconfigs
    assert len(calls) == 1
    cluster.system.sim.call_at(cluster.system.sim.now + 1.0, lambda: None)
    cluster.system.run_quiescent()
    assert finished_replay(cluster)[1] is not reconfigs
    assert len(calls) == 2
