"""Golden event-log digests: a speed change must leave every log byte-identical.

    python3 -m pytest perfbench/tests -q -k demo   # two-node demo, seconds
    python3 -m pytest perfbench/tests -q           # plus every workload, ~2 min

The digests are sha256 over ``events.ndjson`` as ``advertsim compare``
writes it, at each scenario's default seed, pinned in ``golden.json``.
Only a change that alters simulated behaviour on purpose re-pins them,
and it says why in CHANGES.md.
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

from advertsim.cli import load_scenario, main  # noqa: E402
from advertsim.simnet import Scenario, run_scenario  # noqa: E402
from child import STRATEGIES, file_sha256  # noqa: E402
from run import WORKLOADS  # noqa: E402

GOLDEN = json.loads((BENCH / "golden.json").read_text(encoding="utf-8"))
# EventLog.sha256()[:16] of scenarios/regime_16node.json at seed 1 on
# Python 3.11.7, as recorded in ROADMAP.md before this benchmark existed
REFERENCE_POINT = {
    "BASELINE_FULL_BLOCK": "f26b00fad2c70a0f",
    "ADVERT_PROTOCOL": "d431c9d8e28f39d3",
    "LATE_ADVERT": "8135af0e75aa2387",
}


def compare_digests(scenario: Path, seed: int, out: Path) -> dict[str, str]:
    argv = ["compare", "--scenario", str(scenario), "--strategies", ",".join(STRATEGIES),
            "--seed", str(seed), "--out", str(out)]
    assert main(argv) == 0
    root = out / f"{load_scenario(scenario).name}-compare"
    return {s: file_sha256(root / s / "events.ndjson") for s in STRATEGIES}


def test_demo_digests(tmp_path):
    demo = GOLDEN["demo"]
    assert compare_digests(ROOT / demo["scenario"], demo["seed"], tmp_path) == demo["digests"]


def test_demo_file_digest_is_event_log_sha256():
    demo = GOLDEN["demo"]
    base = load_scenario(ROOT / demo["scenario"]).to_dict()
    for strategy in STRATEGIES:
        sc = Scenario.from_dict({**base, "seed": demo["seed"], "relay_strategy": strategy})
        assert run_scenario(sc).sha256() == demo["digests"][strategy]


def test_regime_pins_reference_point():
    pinned = GOLDEN["workloads"]["regime"]
    assert pinned["seed"] == 1
    assert {s: d[:16] for s, d in pinned["digests"].items()} == REFERENCE_POINT


def test_every_workload_is_pinned():
    assert sorted(GOLDEN["workloads"]) == sorted(WORKLOADS)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_digests(workload, tmp_path):
    pinned = GOLDEN["workloads"][workload]
    assert compare_digests(WORKLOADS[workload][0], pinned["seed"], tmp_path) == pinned["digests"]
