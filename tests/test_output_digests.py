"""Pinned sha256 digests of the outputs of ``advertsim compare``.

Each strategy's ``events.ndjson`` is pinned, so that a simulator change
that moves any log line fails here; the 30 s forky case is the one that
parks full blocks and evicts parked seeds. ``summary.json``, ``blocks.csv``
and ``comparison.json`` are pure functions of the event logs; pinning them
byte for byte makes a change to the metrics code that moves any printed
number fail here too. The processing-delay case is the one where post-find
pulls reach the critical path: a ``txreq`` is stamped at its send time (now
plus the processing delay), which can fall after a find not yet processed,
and slow links land many pulled transactions after the find. The 10 s
forky case starts from a 4,000-transaction warm pool, so its blocks carry
up to 1,999 transactions each and fork. The forky-cold and ring cases are
the benchmark's two gated workloads at full length. Only a change that
alters the simulated behaviour or a metric on purpose re-pins them.
"""

import hashlib
import json
from pathlib import Path

import pytest

from advertsim.cli import EXIT_OK, main
from advertsim.simnet import RelayStrategy

REPO_ROOT = Path(__file__).resolve().parent.parent
STRATEGIES = ",".join(s.value for s in RelayStrategy)

# perfbench/golden.json (read only) pins events.ndjson of the demo at its
# seed and of each benchmark workload at seed 1; the cases of the same runs
# read those pins from it rather than keep copies
GOLDEN = json.loads((REPO_ROOT / "perfbench" / "golden.json").read_text(encoding="utf-8"))
# case name: (golden entry, the scenario file it is for)
GOLDEN_CASES = {
    "demo": (GOLDEN["demo"], REPO_ROOT / GOLDEN["demo"]["scenario"]),
    "forky-cold": (GOLDEN["workloads"]["forky-cold"], REPO_ROOT / "perfbench" / "workloads" / "forky-cold.json"),
    "ring": (GOLDEN["workloads"]["ring"], REPO_ROOT / "perfbench" / "workloads" / "ring.json"),
}

# name: (scenario file, seed, field overrides, digests by output file)
CASES = {
    "demo": (
        REPO_ROOT / "scenarios" / "two_node_demo.json",
        42,
        {},
        {
            "comparison.json": "d4753513646ac33266d6ca1572dab24a31ca3695d809a17f5d25816fc4ad1049",
            "BASELINE_FULL_BLOCK/summary.json": "3cfa15c2c997e037bfe49f7e4bf04cf936b94668a83c07e8d6c7e23b8d511549",
            "BASELINE_FULL_BLOCK/blocks.csv": "d3a644e02237a79cb767773775aa4c89aa3b492dbfbf0c122bc99ae845076ae4",
            "ADVERT_PROTOCOL/summary.json": "9b024e01af59ea3562a285d146185fcbad0bc22a0e8114e952369645dd8c217d",
            "ADVERT_PROTOCOL/blocks.csv": "6b8fb3c79f141d5a9d5df17fd5f603b9a59c2d427991b2bbe0dbbbc31f2a428b",
            "LATE_ADVERT/summary.json": "af7d5117981e633d6ecf436b8d37325e4cc57810c4298b5676d19b0cab6e8346",
            "LATE_ADVERT/blocks.csv": "b659cfed14d0372b88ad27817e8e10126c6ead4325ea68c6fbb4e434e95b5097",
        },
    ),
    # the benchmark's forky-cold workload (a file the tests only read), cut to 30 s
    "forky-cold-30s": (
        REPO_ROOT / "perfbench" / "workloads" / "forky-cold.json",
        1,
        {"horizon_seconds": 30.0},
        {
            "comparison.json": "4f7a4ea4a37e2f05c288cc2ae9ddbfeafaa66aa47915b62a4e0b6bda1cf86450",
            "BASELINE_FULL_BLOCK/summary.json": "fec711263fba9f687c6c404ffe64f20775a239d1464ff632d2863f03c7ef020b",
            "BASELINE_FULL_BLOCK/blocks.csv": "8db373ade8a1a8cd57ef2a322b4b061fcf2a52b69b2ad64c6f079e0a3d39efd8",
            "ADVERT_PROTOCOL/summary.json": "6992102040d1b0d184540d4e7a22c74882b67c0c28e07247fbcc16169a0247f2",
            "ADVERT_PROTOCOL/blocks.csv": "3ac5c0b2f3dd9e34a352c66b664a7a0ca2d04338dc629698153174066a3df445",
            "LATE_ADVERT/summary.json": "ae5ef660e33705e56d1a827998457ac67486a44d1475d13148950bf534aa4a74",
            "LATE_ADVERT/blocks.csv": "574f7d5c74ea9f263d4949b1487fab794be7d5875f5f14a2fd5d37837c074248",
            "BASELINE_FULL_BLOCK/events.ndjson": "ef932c2c3fece834ff7396ece2652199d5e5981d8f2eb54957fbf1146896faad",
            "ADVERT_PROTOCOL/events.ndjson": "1c36f6cdaec58cb1c0fadfad69b32195632345051b9366dc34261a756a719aa7",
            "LATE_ADVERT/events.ndjson": "54cb7189aaa445759b5a205778ab0351cc948bc67efb53deea15ed4623b0f06b",
        },
    ),
    # the same workload with a processing delay and slow links, so that
    # post-find pulls count toward the critical path
    "forky-cold-30s-delay": (
        REPO_ROOT / "perfbench" / "workloads" / "forky-cold.json",
        1,
        {
            "horizon_seconds": 30.0,
            "processing_delay_seconds": 0.01,
            "link_bandwidth": {"kind": "constant", "value": 20_000},
        },
        {
            "comparison.json": "d194429c0049d5a8dec9eb416f97d3e28bce4969a096010fbf0707ce923819e3",
            "BASELINE_FULL_BLOCK/summary.json": "87b5fc901eab0b63677d39d9c492153471620041be35246f042ff47a121d3faa",
            "BASELINE_FULL_BLOCK/blocks.csv": "e524330846d9fc2f222b03064f196c38eb1feffeb44ab9a86e7603944e1d3be0",
            "ADVERT_PROTOCOL/summary.json": "42d38ea05786d4c3e5204a0e7c1f5df68f1295eb944092d38471d33c5f4eaa7e",
            "ADVERT_PROTOCOL/blocks.csv": "e4d1c9bd2ad0cd55ecc20681d5d6208002655d82757650201226810de82eb634",
            "LATE_ADVERT/summary.json": "4ba3ded8ba3407d43550a0b078d7821bf8a08e3ea0ba68b97b677c601e29942f",
            "LATE_ADVERT/blocks.csv": "c70d33ba412f9e68a582d481c46d368b9e6b9d88ae0a58b4747741500c652502",
            "BASELINE_FULL_BLOCK/events.ndjson": "a7df0753db3596eec078d10342ccca5d28267c42474c74796836ff2b3f3c05bf",
            "ADVERT_PROTOCOL/events.ndjson": "862dcdb34d9abe7f7cb5c3c7d1b4403688c7b6b4977926989e6409a933b50767",
            "LATE_ADVERT/events.ndjson": "4c2a9718bcec1a2092989c6bdc654182f56089456594a356ab8c23c754e361ae",
        },
    ),
    # the same workload on 2 kB/s links: transactions lag adverts and seeds,
    # so a seed's first try finds advertised transactions missing and asks
    # its sender for them, under ADVERT as well as LATE
    "forky-cold-30s-thin": (
        REPO_ROOT / "perfbench" / "workloads" / "forky-cold.json",
        1,
        {
            "horizon_seconds": 30.0,
            "link_bandwidth": {"kind": "constant", "value": 2_000},
        },
        {
            "comparison.json": "a2d04075af4de71ab9836b9d5d37be520a1628fd718cc75794188d6f0e1dc486",
            "BASELINE_FULL_BLOCK/summary.json": "bd6157f832deeed6338ba7dbd5f0ce3a9a84584e35c264ad83b4bd3d483019ee",
            "BASELINE_FULL_BLOCK/blocks.csv": "f93cd0926900d2dc1774e93d208b76913515807d252d4b19718bddb1d892e9cf",
            "ADVERT_PROTOCOL/summary.json": "ab3ddaa65442960fa18deb1a5e8c3dc75906c2d0e66bf24c2ab0dca357109c3b",
            "ADVERT_PROTOCOL/blocks.csv": "2d220ff393faf54c952132470cfe737b23e6d56e2863c479e77dfd40860f35a5",
            "LATE_ADVERT/summary.json": "2547c54edc234f5dae6575db19f462b68f483b6a27b34177d974ec636314dc50",
            "LATE_ADVERT/blocks.csv": "d208896b751331caeeb77c0408f3edce1a81ac43340a531b14fc46ebdb906d0c",
            "BASELINE_FULL_BLOCK/events.ndjson": "7ebea7130262e39694ee9ae86916913b51783acd232882891b6d721587310a9f",
            "ADVERT_PROTOCOL/events.ndjson": "6646ec099a6ef9d44a116fdf3be7bb50a588d74ccece9f4574b2e09adc4197ff",
            "LATE_ADVERT/events.ndjson": "dff3af6f85a0e098ef31303c5f0e91ac5f5cd926692356082420938fdd52f3af",
        },
    ),
    # the benchmark's forky workload (read only), cut to 10 s: large blocks with forks
    "forky-10s": (
        REPO_ROOT / "perfbench" / "workloads" / "forky.json",
        1,
        {"horizon_seconds": 10.0},
        {
            "comparison.json": "df5961b2f85cf0c8095c465f0254d5f305bc2d74d8c50a4b1f4ccee72d518085",
            "BASELINE_FULL_BLOCK/summary.json": "df61960fc61476ea4770b0e2d88aa363c0d15bf29cd0facaf64e79d6cf50012d",
            "BASELINE_FULL_BLOCK/blocks.csv": "af73c60a103f8cdf3be1c662424bb645e1a079ae5fec7ef518e38fcb5e9d25da",
            "ADVERT_PROTOCOL/summary.json": "0cb36769a77f74f6bd874d2b8c28629cb232ed793c918574b91ee8667ba807dc",
            "ADVERT_PROTOCOL/blocks.csv": "253a636216e64763257108b8d8b6453acdf216f2cabca8d4feee0c938dc90694",
            "LATE_ADVERT/summary.json": "3a4b04f8ee31c91c5f07f9a5a5e0ab669daa358648865b9099ad06efc4ec09b7",
            "LATE_ADVERT/blocks.csv": "2958cd78a44ea08d5906823745b3bf11f0591e2fc11d2369690625779dd0f8ea",
            "BASELINE_FULL_BLOCK/events.ndjson": "c71db91e017eb83ef1f147f9e578a4faf58740db1c4811fb62bf908c38eea584",
            "ADVERT_PROTOCOL/events.ndjson": "d28b341dfa3a6c1102124135dc46f9f805a07dc88df7138cee0b644feb1c85a2",
            "LATE_ADVERT/events.ndjson": "fbf4cb292b64c27ec2d93a009f26932fcd1c645328ce612399c0e483ab710d13",
        },
    ),
    # the benchmark's forky-cold workload (read only), at its full 60 s: the
    # gated workload, whose 30 s cuts above miss its second half
    "forky-cold": (
        REPO_ROOT / "perfbench" / "workloads" / "forky-cold.json",
        1,
        {},
        {
            "comparison.json": "0018d6fd7d50892e3154ea608171b3ea70e2482f29fcf71a3ef2a4ed947f0911",
            "BASELINE_FULL_BLOCK/summary.json": "ef4cf1fd8028e67bfe14807b1d55ae32052334ddd78f4cc9dc23f3dd6f0f5f0f",
            "BASELINE_FULL_BLOCK/blocks.csv": "dc9044b0aa112a482d73e67e7aff7ac733cda1aec82cd3fb4fca06dc12f37867",
            "ADVERT_PROTOCOL/summary.json": "e49b72f99c825bedb30185de317452cfe362991c86a5de50d3ca9ca61ba14bf1",
            "ADVERT_PROTOCOL/blocks.csv": "3852764768360b642641d96b6f335a36554e85ebf7317bf11162749ab5eb8edc",
            "LATE_ADVERT/summary.json": "fd4d940a2287edfd03d26cb1fdb132fa27759de3ba48117b6a97735914068fe6",
            "LATE_ADVERT/blocks.csv": "310425bd8fc6f60f6743fe691d6ac29d0299e018eb1208bef3e9c6e5ca476b95",
        },
    ),
    # the benchmark's ring workload (read only), at its full 60 s: the second
    # gated workload, an 8-node ring with about 60 tiny blocks per strategy
    "ring": (
        REPO_ROOT / "perfbench" / "workloads" / "ring.json",
        1,
        {},
        {
            "comparison.json": "bd78af362cbcd314ef97500c5c9e8bbe05c19a647bab30c66599e176307b998c",
            "BASELINE_FULL_BLOCK/summary.json": "032b02abd79f68c670ab97d706efa53312c8024f91b425835da791607d6ce246",
            "BASELINE_FULL_BLOCK/blocks.csv": "a7b8a117f62d6e5efdf079a3db184b5e50833c7e6dc9ee0dd4ed82150efb6458",
            "ADVERT_PROTOCOL/summary.json": "e6574eb6e8203927dd18ca94b41b6e59bc60d7c260a43112663491cf8ffa1271",
            "ADVERT_PROTOCOL/blocks.csv": "629ccaf2a3c5e4751af08f66326f154f6dfbe5be20f86249a143dab4393c8cc3",
            "LATE_ADVERT/summary.json": "86ca5228f97351c906e03831e5f5f5101129e29e360633f79a57b2068452f38c",
            "LATE_ADVERT/blocks.csv": "f3065fddcd4daab76b883de4370f8a920f86bb2ae49ce00b0dd8ea3c6455248d",
        },
    ),
}


@pytest.mark.parametrize("case", list(CASES))
def test_compare_outputs_match_pinned_digests(case, tmp_path):
    source, seed, overrides, pinned = CASES[case]
    if case in GOLDEN_CASES:
        golden, golden_source = GOLDEN_CASES[case]
        assert (source, seed, overrides) == (golden_source, golden["seed"], {})
        pinned = {**pinned, **{f"{s}/events.ndjson": d for s, d in golden["digests"].items()}}
    scenario = {**json.loads(source.read_text(encoding="utf-8")), **overrides}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario), encoding="utf-8")
    out = tmp_path / "out"
    argv = ["compare", "--scenario", str(path), "--seed", str(seed), "--strategies", STRATEGIES,
            "--out", str(out)]
    assert main(argv) == EXIT_OK
    root = out / f"{scenario['name']}-compare"
    digests = {name: hashlib.sha256((root / name).read_bytes()).hexdigest() for name in pinned}
    assert digests == pinned
