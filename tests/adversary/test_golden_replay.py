"""Golden-file replay: committed artifacts must reproduce exactly.

Three adversary artifacts are committed under ``golden/``:

* ``broken_fifo_counterexample.json`` — the shrunk counterexample for
  the intentionally broken FIFO-sequencer fixture (one injected fault,
  two singleton groups, a prefix-order violation);
* ``a1_partition_green.json`` — a green A1 run under the
  partition-spike adversary;
* ``a1_leader_crash.json`` — a green A1 run whose group-0 leader
  crashes, the one golden run that fires lazy-relay and consensus
  retry timers.

Replaying them asserts the engine's full determinism contract across
code changes: same seeds -> same schedule -> same checker verdicts and
same per-process delivery orders, byte for byte.  If a legitimate
engine change alters scheduling (e.g. a new RNG stream consumer on the
hot path), regenerate the artifacts deliberately — see
``tests/adversary/golden/README.md``.
"""

import json
import os

import pytest

from repro.adversary.artifact import SCHEMA, load_artifact, replay_file
from repro.adversary.spec import AdversarySpec
from repro.campaigns.runner import build_scenario_system
from repro.campaigns.spec import ScenarioSpec
from repro.cli import main

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
BROKEN = os.path.join(GOLDEN_DIR, "broken_fifo_counterexample.json")
GREEN = os.path.join(GOLDEN_DIR, "a1_partition_green.json")
CRASH = os.path.join(GOLDEN_DIR, "a1_leader_crash.json")


@pytest.mark.parametrize("path", [BROKEN, GREEN, CRASH])
def test_golden_artifacts_have_valid_schema(path):
    data = load_artifact(path)
    assert data["schema"] == SCHEMA
    assert data["expected"]["delivery_orders"]


def test_broken_fifo_counterexample_reproduces():
    result = replay_file(BROKEN)
    assert result.reproduced, result.diffs
    assert result.case.violation is not None
    assert result.case.violation.checker == "properties"
    assert "prefix order" in result.case.violation.message
    # The committed reproducer is minimal: a single injected fault.
    data = json.loads(open(BROKEN).read())
    assert data["expected"]["total_faults"] <= 5
    assert result.case.total_faults == data["expected"]["total_faults"]


def test_green_partition_run_reproduces():
    result = replay_file(GREEN)
    assert result.reproduced, result.diffs
    assert result.case.violation is None
    assert result.case.verdicts == {"properties": "ok"}


def test_leader_crash_run_reproduces():
    result = replay_file(CRASH)
    assert result.reproduced, result.diffs
    assert result.case.violation is None
    assert result.case.verdicts == {"properties": "ok"}


def test_leader_crash_run_fires_relays_and_retries():
    """The artifact pins the timer paths only if the crash really takes
    the run off the failure-free path: relays and higher ballots."""
    data = load_artifact(CRASH)
    system, _, _ = build_scenario_system(
        ScenarioSpec.from_dict(data["scenario"]), data["seed"],
        adversary=AdversarySpec.from_dict(data["adversary"]))
    system.run_quiescent()
    by_kind = system.network.stats.by_kind
    # 12 casts to 2 groups of 3 make 72 first-hand R-MCast copies; every
    # further copy is a relay of a message from a suspected sender.
    assert by_kind["amc.rmc.data"] == 72 + 19
    # Ballot 0 needs no prepare: each prepare is a ballot above 0, run
    # by a new leader or a retry after the old one crashed.
    assert by_kind["amc.cons.prepare"] == 12


def test_cli_replay_verb_on_golden_files(capsys):
    assert main(["replay", BROKEN, GREEN, CRASH]) == 0
    out = capsys.readouterr().out
    assert out.count("reproduced bit-identically") == 3


def test_cli_replay_rejects_non_artifact(tmp_path, capsys):
    bogus = tmp_path / "bogus.json"
    bogus.write_text("{}")
    assert main(["replay", str(bogus)]) == 2
    assert "not an adversary artifact" in capsys.readouterr().err
