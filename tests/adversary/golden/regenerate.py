"""Regenerate the golden adversary artifacts (run from the repo root).

Only do this after an *intentional* scheduling change; the golden
replay tests exist to catch accidental ones.  See README.md here.
"""

import os

from repro.adversary import get_adversary, run_case, shrink
from repro.adversary.artifact import replay_file, write_artifact
from repro.adversary.selftest import (
    PROTOCOL_NAME,
    register_selftest_protocol,
)
from repro.campaigns.spec import (
    CrashSpec,
    DestinationSpec,
    ScenarioSpec,
    WorkloadSpec,
)

GOLDEN_DIR = os.path.dirname(os.path.abspath(__file__))


def main() -> None:
    register_selftest_protocol()

    broken = ScenarioSpec(
        name="golden-broken-fifo",
        protocol=PROTOCOL_NAME,
        group_sizes=(2, 2),
        workload=WorkloadSpec(kind="poisson", rate=2.0, duration=15.0),
        checkers=("properties",),
    )
    case = run_case(broken, get_adversary("delay-reorder"), seed=1)
    assert not case.ok, "the broken fixture must fail under delay-reorder"
    outcome = shrink(case)
    path = os.path.join(GOLDEN_DIR, "broken_fifo_counterexample.json")
    write_artifact(outcome.minimal, path,
                   shrink_summary=outcome.summary())
    print(f"wrote {path}: {outcome.minimal.describe()}")

    green = ScenarioSpec(
        name="golden-a1-partition",
        protocol="a1",
        group_sizes=(2, 2),
        workload=WorkloadSpec(
            kind="periodic", period=1.5, count=10,
            destinations=DestinationSpec(kind="uniform-k", k=2),
        ),
        checkers=("properties",),
    )
    gcase = run_case(green, get_adversary("partition-spike"), seed=7)
    assert gcase.ok, gcase.violation
    path = os.path.join(GOLDEN_DIR, "a1_partition_green.json")
    write_artifact(gcase, path)
    print(f"wrote {path}: {gcase.describe()}")

    crash = ScenarioSpec(
        name="golden-a1-leader-crash",
        protocol="a1",
        group_sizes=(3, 3),
        workload=WorkloadSpec(
            kind="periodic", period=1.5, count=12,
            destinations=DestinationSpec(kind="uniform-k", k=2),
        ),
        crashes=CrashSpec(kind="explicit", crashes=((0, 4.2),)),
        checkers=("properties",),
    )
    ccase = run_case(crash, get_adversary("none"), seed=7)
    assert ccase.ok, ccase.violation
    path = os.path.join(GOLDEN_DIR, "a1_leader_crash.json")
    write_artifact(ccase, path)
    print(f"wrote {path}: {ccase.describe()}")

    for name in ("broken_fifo_counterexample.json",
                 "a1_partition_green.json",
                 "a1_leader_crash.json"):
        result = replay_file(os.path.join(GOLDEN_DIR, name))
        assert result.reproduced, result.diffs
        print(f"{name}: {result.describe()}")


if __name__ == "__main__":
    main()
