"""Simulator: delays, dedup, topologies, determinism, causality, and flooding."""

import ast
import collections
import gc
import hashlib
import heapq
import json
import math
import random
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from advertsim import simnet
from advertsim.core import Transaction, TxResponse, block_hash, hash_bytes, serialized_size, txid
from advertsim.metrics import summarize
from advertsim.protocol import Advert, AdvertRegistry, make_advert as select_list
from advertsim.simnet import (
    FAUCET_ADDRESS,
    FAUCET_VALUE,
    EventLog,
    Link,
    LogRecord,
    RelayStrategy,
    Scenario,
    ScenarioError,
    _Sim,
    build_topology,
    gossip_dedup_key,
    run_scenario,
)

from conftest import rand_address, rand_hash


def _mini(strategy="ADVERT_PROTOCOL", **overrides):
    base = dict(
        node_count=4,
        topology={"kind": "ring"},
        hash_rate=10.0,
        difficulty_bits=6,
        tx_rate=2.0,
        tx_size_bytes=500,
        initial_mempool_txs=40,
        horizon_seconds=25.0,
        seed=7,
        relay_strategy=RelayStrategy(strategy),
        name="mini",
    )
    base.update(overrides)
    return Scenario(**base)


class TestTransmissionDelay:
    def test_full_block_over_megabit_link(self):
        link = Link(latency=0.05, bandwidth=1_000_000.0)
        # exercise through a real message: 2000 x 500B txs + 200B coinbase
        from test_core import _block_of

        block = _block_of(2000)
        assert serialized_size(block) == 1_000_280
        assert link.delay(serialized_size(block)) == pytest.approx(1.05028, abs=1e-9)

    def test_seed_over_same_link(self):
        from test_core import _block_of
        from advertsim.protocol import make_block_seed

        link = Link(latency=0.05, bandwidth=1_000_000.0)
        seed = make_block_seed(_block_of(3))
        assert link.delay(serialized_size(seed)) == pytest.approx(0.0503, abs=1e-9)

    def test_zero_size_message_costs_latency_only(self):
        link = Link(latency=0.125, bandwidth=10.0)
        from advertsim.core import TxResponse

        assert link.delay(serialized_size(TxResponse(txs=()))) == 0.125


class TestGossipDedupKey:
    def test_same_content_same_key(self):
        rng = random.Random(1)
        addr, tip = rand_address(rng), rand_hash(rng)
        hashes = (rand_hash(rng), rand_hash(rng))
        a1 = Advert(coinbase_address=addr, tx_hashes=hashes, prev_block_hash=tip)
        a2 = Advert(coinbase_address=addr, tx_hashes=hashes, prev_block_hash=tip)
        assert gossip_dedup_key(a1) == gossip_dedup_key(a2)

    def test_one_tx_hash_difference_changes_key(self):
        rng = random.Random(2)
        addr, tip = rand_address(rng), rand_hash(rng)
        h1, h2, h3 = (rand_hash(rng) for _ in range(3))
        a1 = Advert(coinbase_address=addr, tx_hashes=(h1, h2), prev_block_hash=tip)
        a2 = Advert(coinbase_address=addr, tx_hashes=(h1, h3), prev_block_hash=tip)
        assert gossip_dedup_key(a1) != gossip_dedup_key(a2)

    def test_families_never_collide(self):
        rng = random.Random(3)
        tx = Transaction(inputs=((rand_hash(rng), 0),), outputs=((rand_address(rng), 1),))
        advert = Advert(coinbase_address=rand_address(rng), tx_hashes=(), prev_block_hash=rand_hash(rng))
        assert gossip_dedup_key(tx) != gossip_dedup_key(advert)


class TestTopologies:
    def test_ring(self):
        assert build_topology({"kind": "ring"}, 2, random.Random(0)) == [(0, 1)]
        edges = build_topology({"kind": "ring"}, 5, random.Random(0))
        assert len(edges) == 5
        assert all(a < b for a, b in edges)

    def test_complete(self):
        edges = build_topology({"kind": "complete"}, 5, random.Random(0))
        assert len(edges) == 10

    def test_random_regular_degree_and_connectivity(self):
        edges = build_topology({"kind": "random_regular", "degree": 4}, 16, random.Random(9))
        degree = {i: 0 for i in range(16)}
        for a, b in edges:
            degree[a] += 1
            degree[b] += 1
        assert set(degree.values()) == {4}

    @pytest.mark.parametrize("n, d", [(12, 6), (8, 6), (10, 7), (12, 8), (12, 10), (64, 8)])
    def test_random_regular_of_high_degree_is_simple_connected_and_regular(self, n, d):
        # the pairing model's rejection loop fails on each of these at seed 1;
        # build_topology raises on a disconnected result
        edges = build_topology({"kind": "random_regular", "degree": d}, n, random.Random(1))
        assert len(edges) == n * d // 2
        assert len(set(edges)) == len(edges) and all(a < b for a, b in edges)
        degree = [0] * n
        for a, b in edges:
            degree[a] += 1
            degree[b] += 1
        assert set(degree) == {d}

    def test_explicit_edges(self):
        spec = {"kind": "edges", "edges": [[0, 1], [1, 2]]}
        assert build_topology(spec, 3, random.Random(0)) == [(0, 1), (1, 2)]

    def test_disconnected_rejected(self):
        with pytest.raises(ScenarioError):
            build_topology({"kind": "edges", "edges": [[0, 1], [2, 3]]}, 4, random.Random(0))

    def test_self_link_rejected(self):
        with pytest.raises(ScenarioError, match="self-links are not allowed"):
            build_topology({"kind": "edges", "edges": [[0, 1], [1, 1]]}, 2, random.Random(0))

    def test_oversized_degree_degenerates_to_complete(self):
        edges = build_topology({"kind": "random_regular", "degree": 16}, 4, random.Random(0))
        assert len(edges) == 6  # K4

    def test_odd_stub_count_rejected(self):
        with pytest.raises(ScenarioError):
            build_topology({"kind": "random_regular", "degree": 3}, 7, random.Random(0))


class TestScenarioValidation:
    # a link's latency must be >= 0 and its bandwidth > 0; the scenario is
    # the one place that checks them
    @pytest.mark.parametrize(
        "field, spec",
        [
            ("link_bandwidth", {"kind": "constant", "value": -5.0}),
            ("link_bandwidth", {"kind": "constant", "value": 0.0}),
            ("link_bandwidth", {"kind": "uniform", "low": 0.0, "high": 1.0}),
            ("link_latency", {"kind": "constant", "value": -1.0}),
            ("link_latency", {"kind": "uniform", "low": -1.0, "high": 1.0}),
        ],
        ids=["bandwidth-negative", "bandwidth-zero", "bandwidth-uniform-low-zero",
             "latency-negative", "latency-uniform-low-negative"],
    )
    def test_negative_bandwidth_names_field(self, field, spec):
        sc = _mini(**{field: spec})
        with pytest.raises(ScenarioError) as exc:
            sc.validate()
        assert exc.value.field == field

    def test_unknown_field_rejected(self):
        with pytest.raises(ScenarioError) as exc:
            Scenario.from_dict({"node_count": 2, "warp_speed": 9})
        assert exc.value.field == "warp_speed"

    def test_minimal_dict_fills_defaults(self):
        sc = Scenario.from_dict({"node_count": 2, "topology": {"kind": "ring"}})
        assert sc.horizon_seconds == 300.0
        assert sc.relay_strategy is RelayStrategy.ADVERT_PROTOCOL
        assert sc.block_size_cap_bytes == 1_000_000
        assert sc.to_dict()["schema_version"] == 1

    def test_hash_rate_list_length_checked(self):
        with pytest.raises(ScenarioError):
            _mini(hash_rate=[1.0, 2.0]).validate()

    def test_run_samples_the_topology_once(self, monkeypatch):
        calls = self._count_samples(monkeypatch)
        sc = _mini(horizon_seconds=1.0, topology={"kind": "random_regular", "degree": 2})
        run_scenario(sc)
        assert len(calls) == 1
        assert sc.validate() == build_topology(sc.topology, sc.node_count, random.Random(f"{sc.seed}/topology"))

    @staticmethod
    def _count_samples(monkeypatch) -> list:
        """Count ``build_topology`` calls from an empty topology cache on."""
        import advertsim.simnet as simnet

        simnet._edges.cache_clear()
        calls = []
        real = simnet.build_topology

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(simnet, "build_topology", counting)
        return calls

    def test_compare_samples_the_topology_once(self, monkeypatch, tmp_path):
        from advertsim.cli import EXIT_OK, main

        calls = self._count_samples(monkeypatch)
        path = tmp_path / "mini.json"
        path.write_text(json.dumps(_mini(horizon_seconds=1.0).to_dict()), encoding="utf-8")
        strategies = ",".join(s.value for s in RelayStrategy)
        argv = ["compare", "--scenario", str(path), "--seed", "3", "--strategies", strategies,
                "--out", str(tmp_path / "out")]
        assert main(argv) == EXIT_OK
        # the check of the file with its overrides applied; every run reuses it
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "sweep, distinct",
        [
            ("seed=3,4,5", 3),
            ("node_count=4,6", 2),
            ("tx_rate=1.0,2.0,3.0", 1),
            # more values than a bounded cache of 64 would hold: the sweep
            # validates every value before its first run
            pytest.param("seed=" + ",".join(str(s) for s in range(3, 73)), 70, id="seed=3..72-70"),
        ],
    )
    def test_sweep_samples_each_topology_once(self, monkeypatch, tmp_path, sweep, distinct):
        from advertsim.cli import EXIT_OK, main

        calls = self._count_samples(monkeypatch)
        path = tmp_path / "mini.json"
        path.write_text(json.dumps(_mini(horizon_seconds=1.0).to_dict()), encoding="utf-8")
        argv = ["sweep", "--scenario", str(path), "--seed", "3", "--sweep", sweep, "--out", str(tmp_path / "out")]
        assert main(argv) == EXIT_OK
        # the base scenario (4 nodes, seed 3) is one of the swept topologies
        assert len(calls) == distinct

    def test_memoized_topology_is_a_fresh_list(self):
        sc = _mini(topology={"kind": "random_regular", "degree": 2}, node_count=6)
        first = sc.validate()
        first.clear()
        assert sc.validate() == build_topology(sc.topology, 6, random.Random(f"{sc.seed}/topology"))

    @pytest.mark.parametrize(
        "topology",
        [{"kind": "ring", "note": {1, 2}}, {"kind": object()}, {"kind": "ring", 1: "mixed key types"}],
        ids=["set-value", "object-kind", "mixed-keys"],
    )
    def test_topology_that_is_not_json_data_is_rejected(self, topology):
        # the topology is sampled once per canonical JSON form, so a spec with
        # none fails validation, not the run's meta line
        with pytest.raises(ScenarioError) as e:
            _mini(topology=topology).validate()
        assert e.value.field == "topology"

    def test_explicit_edges_must_be_a_list(self):
        # the JSON form of a tuple is a list, but the spec as given is checked
        with pytest.raises(ScenarioError, match="'edges' list") as e:
            _mini(topology={"kind": "edges", "edges": ((0, 1), (1, 2), (2, 3))}).validate()
        assert e.value.field == "topology"
        ring = [(0, 1), (1, 2), (2, 3)]
        assert _mini(topology={"kind": "edges", "edges": ring}).validate() == ring

    def test_strategy_must_be_a_member(self):
        # an equal string fails the simulator's identity tests and would run
        # a mix of the three strategies
        sc = Scenario(node_count=4, topology={"kind": "complete"}, relay_strategy="ADVERT_PROTOCOL")
        for check in (sc.validate, lambda: run_scenario(sc)):
            with pytest.raises(ScenarioError) as exc:
                check()
            assert exc.value.field == "relay_strategy"
        sc.relay_strategy = RelayStrategy.ADVERT_PROTOCOL
        sc.validate()

    def test_nonpositive_rates_rejected(self):
        with pytest.raises(ScenarioError):
            _mini(hash_rate=0.0).validate()
        with pytest.raises(ScenarioError):
            _mini(tx_rate=-1.0).validate()


class TestSingleNode:
    def test_every_block_accepted_instantly(self):
        sc = Scenario(
            node_count=1,
            topology={"kind": "ring"},
            hash_rate=10.0,
            difficulty_bits=4,
            tx_rate=1.0,
            initial_mempool_txs=10,
            horizon_seconds=20.0,
            seed=3,
            relay_strategy=RelayStrategy.ADVERT_PROTOCOL,
        )
        log = run_scenario(sc)
        found = [r for r in log if r.kind == "block_found"]
        accepts = [r for r in log if r.kind == "block_accept"]
        assert len(found) > 0
        assert {r.oid for r in found} == {r.oid for r in accepts}
        by_oid = {r.oid: r.t for r in found}
        assert all(r.t == by_oid[r.oid] for r in accepts)
        assert not [r for r in log if r.kind == "send"]


class TestTwoNodeAdvert:
    def test_post_mine_wire_is_seed_only(self):
        sc = Scenario(
            node_count=2,
            topology={"kind": "ring"},
            hash_rate=[0.05, 1e-9],  # node 0 mean 20 s; node 1 never mines
            difficulty_bits=0,
            tx_rate=0.0,
            initial_mempool_txs=12,
            horizon_seconds=70.0,
            seed=5,
            relay_strategy=RelayStrategy.ADVERT_PROTOCOL,
        )
        log = run_scenario(sc)
        finds = [r for r in log if r.kind == "block_found"]
        assert finds
        accepts = {
            (r.oid, r.src): r for r in log if r.kind == "block_accept"
        }
        for f in finds:
            remote = accepts.get((f.oid, 1))
            assert remote is not None
            # the post-mine critical path is the 300-byte seed, nothing else
            assert remote.val == 300.0
            window = [
                r
                for r in log
                if r.kind == "send" and f.t <= r.t <= remote.t
            ]
            seed_sends = [r for r in window if r.msg == "seed"]
            assert len(seed_sends) == 1 and seed_sends[0].size == 300
            # everything else in the window is next-block advert pipelining,
            # issued exactly at a find or at an acceptance, never between
            others = [r for r in window if r.msg != "seed"]
            assert all(r.msg == "advert" for r in others)
            assert all(r.t == f.t or r.t == remote.t for r in others)


class TestLateAdvertRace:
    def test_seed_waits_for_bigger_advert(self):
        # 20 txs -> advert 700 B > seed 300 B, so the seed lands first and
        # must sit in the pending buffer until its advert arrives
        sc = Scenario(
            node_count=2,
            topology={"kind": "ring"},
            hash_rate=[0.05, 1e-9],
            difficulty_bits=0,
            tx_rate=0.0,
            initial_mempool_txs=20,
            horizon_seconds=60.0,
            seed=6,
            relay_strategy=RelayStrategy.LATE_ADVERT,
        )
        log = run_scenario(sc)
        finds = [r for r in log if r.kind == "block_found"]
        assert finds
        f = finds[0]
        delivers = {
            r.msg: r.t
            for r in log
            if r.kind == "deliver" and r.dst == 1 and f.t <= r.t <= f.t + 1.0
        }
        accept_t = next(
            r.t for r in log if r.kind == "block_accept" and r.src == 1 and r.oid == f.oid
        )
        assert delivers["seed"] < delivers["advert"]  # the race is real
        assert accept_t == delivers["advert"]  # resolved by the pending buffer
        pb = next(
            r.val for r in log if r.kind == "block_accept" and r.src == 1 and r.oid == f.oid
        )
        advert_size = 8 + 20 + 32 + 32 * 20
        assert pb == advert_size + 300


FORKY_COLD = Path(__file__).resolve().parent.parent / "perfbench" / "workloads" / "forky-cold.json"
RING = FORKY_COLD.with_name("ring.json")


class TestOwnAdvertFloods:
    """The strategy alone decides when a miner sends its own advert.

    ADVERT floods one at the start and one per tip adoption, LATE one per
    find, BASELINE none. An own advert's ``send`` carries path bytes equal
    to its size; a relay adds the bytes of the hops before it.
    """

    @pytest.mark.parametrize("delay", [0.0, 0.01])
    @pytest.mark.parametrize("strategy", [s.value for s in RelayStrategy])
    def test_own_advert_floods_per_node(self, strategy, delay):
        data = json.loads(FORKY_COLD.read_text(encoding="utf-8"))
        data.update(horizon_seconds=20.0, processing_delay_seconds=delay, relay_strategy=strategy)
        sim = _Sim(Scenario.from_dict(data))
        log = sim.run()
        floods = collections.Counter()
        sends = collections.Counter()
        events = collections.Counter()
        for r in log:
            if r.kind == "send" and r.msg == "advert":
                assert r.val >= r.size
                if r.val == r.size:
                    floods[r.src, r.oid] += 1
                    sends[r.src] += 1
            elif r.kind in ("tip_adopt", "block_found"):
                events[r.src, r.kind] += 1
        assert any(kind == "block_found" for _, kind in events)
        for node in sim.nodes:
            nid = node.nid
            if strategy == "ADVERT_PROTOCOL":
                expected = 1 + events[nid, "tip_adopt"]
            elif strategy == "LATE_ADVERT":
                expected = events[nid, "block_found"]
            else:
                expected = 0
            own = [oid for src, oid in floods if src == nid]
            assert len(own) == expected, nid
            # each flood reaches every neighbour once
            assert sends[nid] == expected * len(node.neighbors)
            assert all(floods[nid, oid] == len(node.neighbors) for oid in own)


class TestOwnAdvertInSession:
    # BASELINE registers no advert at all, so only the two advert strategies
    # can hold an own one
    @pytest.mark.parametrize("strategy", ["ADVERT_PROTOCOL", "LATE_ADVERT"])
    def test_registry_holds_received_adverts_only(self, strategy):
        """A node's own advert lives in its session; its registry answers only
        for seeds it receives, which never carry its own address."""
        data = json.loads(FORKY_COLD.read_text(encoding="utf-8"))
        data.update(horizon_seconds=20.0, relay_strategy=strategy)
        sim = _Sim(Scenario.from_dict(data))
        sim.run()
        assert any(node.registry.entries for node in sim.nodes)
        for node in sim.nodes:
            address = node.address
            assert all(a != address for a, _ in node.registry.entries), node.nid


class TestContentCheckedOncePerNetwork:
    @pytest.mark.parametrize("strategy", [s.value for s in RelayStrategy])
    def test_merkle_root_twice_per_found_block(self, strategy, monkeypatch):
        """Once in ``mine``, once when the finder adds the block: every other
        node then finds it in the network's record."""
        import advertsim.mining as mining
        import advertsim.protocol as protocol

        calls = []
        real = protocol.merkle_root

        def counting(leaves):
            calls.append(len(leaves))
            return real(leaves)

        monkeypatch.setattr(protocol, "merkle_root", counting)
        monkeypatch.setattr(mining, "merkle_root", counting)
        data = json.loads(FORKY_COLD.read_text(encoding="utf-8"))
        data.update(horizon_seconds=20.0, relay_strategy=strategy)
        log = run_scenario(Scenario.from_dict(data))
        found = sum(r.kind == "block_found" for r in log)
        accepted = sum(r.kind == "block_accept" for r in log)
        assert accepted > 4 * found  # most blocks are checked at many nodes
        assert len(calls) == 2 * found  # ``mine`` finds every block at its first extra nonce

    @pytest.mark.parametrize("strategy", [s.value for s in RelayStrategy])
    def test_block_delta_once_per_found_block(self, strategy, monkeypatch):
        """Once, when the finder adds the block and records it for the network."""
        import advertsim.protocol as protocol

        calls = []
        real = protocol._block_delta
        monkeypatch.setattr(protocol, "_block_delta", lambda block, chain: calls.append(1) or real(block, chain))
        data = json.loads(FORKY_COLD.read_text(encoding="utf-8"))
        data.update(horizon_seconds=20.0, relay_strategy=strategy)
        log = run_scenario(Scenario.from_dict(data))
        found = sum(r.kind == "block_found" for r in log)
        assert len(calls) == found


class TestConvergence:
    """Forky and cold, cut to 20 s: every strategy must converge (ROADMAP item 1)."""

    @pytest.mark.parametrize(
        "strategy",
        [
            "BASELINE_FULL_BLOCK",
            pytest.param(
                "ADVERT_PROTOCOL",
                marks=pytest.mark.xfail(strict=True, reason="ROADMAP item 1: advert eviction partitions the network"),
            ),
            "LATE_ADVERT",
        ],
    )
    def test_every_node_accepts_early_blocks_and_keeps_up(self, strategy):
        data = json.loads(FORKY_COLD.read_text(encoding="utf-8"))
        data.update(horizon_seconds=20.0, seed=1, relay_strategy=strategy)
        sim = _Sim(Scenario.from_dict(data))
        log = sim.run()
        cutoff = sim.sc.horizon_seconds - 10.0
        early = [r.oid for r in log if r.kind == "block_found" and r.t < cutoff]
        top = max(r.val for r in log if r.kind == "block_found")
        acceptors = collections.defaultdict(set)
        for r in log:
            if r.kind == "block_accept":
                acceptors[r.oid].add(r.src)
        stranded = [oid for oid in early if len(acceptors[oid]) < len(sim.nodes)]
        gap = max(top - node.chain.height for node in sim.nodes)
        assert early
        assert not stranded, f"{len(stranded)} of {len(early)} early blocks miss a node"
        assert gap <= 2, f"a node ends {gap:g} blocks below the highest block found"


class TestTipAdoptFollowsItsAccept:
    """A tip change adopts the block just accepted, by extension or by reorg,
    so a ``tip_adopt`` record names the block of the ``block_accept`` before it."""

    @pytest.mark.parametrize("strategy", [s.value for s in RelayStrategy])
    def test_each_adoption_is_the_accepted_block(self, strategy, monkeypatch):
        import advertsim.simnet as simnet

        outcomes = collections.Counter()
        real = simnet.on_block_accepted

        def checking(chain, pool, registry, block):
            outcome = real(chain, pool, registry, block)
            if outcome.tip_changed:
                assert chain.tip_hash == block_hash(block)
            outcomes[outcome.kind] += 1
            return outcome

        monkeypatch.setattr(simnet, "on_block_accepted", checking)
        log = run_scenario(_forky_cold(horizon_seconds=20.0, relay_strategy=strategy))
        records = list(log)
        heights = {r.oid: r.val for r in records if r.kind == "block_found"}
        adopts = 0
        for i, r in enumerate(records):
            if r.kind == "tip_adopt":
                prev = records[i - 1]
                assert prev.kind == "block_accept" and (prev.t, prev.src, prev.oid) == (r.t, r.src, r.oid)
                assert r.val == heights[r.oid]  # the chain's height is the adopted block's
                adopts += 1
        assert adopts == outcomes["extended"] + outcomes["reorged"]
        assert outcomes["reorged"] and outcomes["side"]  # forky: both kinds of tip change, and side blocks


class TestDeterminismAndCausality:
    @pytest.mark.parametrize("strategy", [s.value for s in RelayStrategy])
    def test_equal_seeds_equal_logs(self, strategy):
        sc = _mini(strategy)
        assert run_scenario(sc).sha256() == run_scenario(sc).sha256()

    def test_different_seeds_differ(self):
        assert run_scenario(_mini()).sha256() != run_scenario(_mini(seed=8)).sha256()

    def test_causality_and_monotone_log(self):
        # forky and cold, cut to 10 s, with a processing delay: pulls, parked
        # seeds and reorgs run
        data = json.loads(FORKY_COLD.read_text(encoding="utf-8"))
        data.update(horizon_seconds=10.0, processing_delay_seconds=0.01)
        forky = [Scenario.from_dict({**data, "relay_strategy": s.value}) for s in RelayStrategy]
        # short links of unequal, low bandwidth: the transfer time is a large
        # share of each delay, so that another order of the delay arithmetic,
        # such as size * (1 / bandwidth), shows in the last bit of some arrival
        uneven = Scenario.from_dict({
            **data,
            "link_latency": {"kind": "uniform", "low": 0.0, "high": 0.01},
            "link_bandwidth": {"kind": "uniform", "low": 5_000.0, "high": 50_000.0},
        })
        for sc in [_mini()] + forky + [uneven]:
            sim = _Sim(sc)
            log = sim.run()
            # a send is stamped once the processing delay has passed
            times = [r.t for r in log if r.kind != "send" or not sc.processing_delay_seconds]
            assert times == sorted(times)
            sends = {r.mid: r for r in log if r.kind == "send"}
            delivers = [r for r in log if r.kind == "deliver"]
            assert delivers
            for d in delivers:
                s = sends[d.mid]
                assert d.t >= s.t
                assert d[2:] == s[2:]  # every column but t and kind
                # bit for bit the link's own arrival time
                assert d.t == s.t + sim.nodes[s.src].neighbors[s.dst].delay(s.size)

    def test_log_serialization_roundtrip(self, tmp_path):
        log = run_scenario(_mini())
        path = tmp_path / "events.ndjson"
        log.write(path)
        back = EventLog.read(path)
        assert back.meta == log.meta
        assert list(back) == list(log)
        assert back.sha256() == log.sha256()


class _ArrivalSim(_Sim):
    """Notes the clock, the heap key a copy popped under, at each handled delivery,
    by the copy's own id: its flood's first id plus the node's place among the
    flood's destinations."""

    def __init__(self, sc):
        super().__init__(sc)
        self.handled = {}

    def _on_deliver(self, node, sent, msg):
        self.handled[sent.mid + sent.dst.index(node.nid)] = self.now
        super()._on_deliver(node, sent, msg)


class TestDeliveryRebuiltFromItsSend:
    """A simulated log holds each delivery as its flood's ``mid``. Iterating the
    log rebuilds the ``deliver`` record of the flood's copy that arrives next:
    that copy's send columns at the time it was queued for,
    ``t + link.delay(size)`` bit for bit."""

    # forky-cold cut to 10 s, with no processing delay; and the pinned
    # forky-cold-30s-delay case. Both pull (txreq, txresp) under ADVERT and
    # leave copies in flight at the horizon
    CASES = {
        "no-delay": {"horizon_seconds": 10.0},
        "delay": {
            "horizon_seconds": 30.0,
            "processing_delay_seconds": 0.01,
            "link_bandwidth": {"kind": "constant", "value": 20_000},
        },
    }

    @pytest.mark.parametrize("strategy", [s.value for s in RelayStrategy])
    @pytest.mark.parametrize("case", list(CASES))
    def test_each_delivery_is_its_send_at_the_arrival_time(self, case, strategy, tmp_path):
        sc = _forky_cold(relay_strategy=strategy, **self.CASES[case])
        sim = _ArrivalSim(sc)
        log = sim.run()
        records = list(log)
        assert len(records) == len(log.records)
        sends, delivers = {}, []
        for r in records:
            if r.kind == "send":
                sends[r.mid] = r
            elif r.kind == "deliver":
                delivers.append(r)
        assert len(delivers) == sum(type(e) is int for e in log.records) > 0
        for d in delivers:
            s = sends[d.mid]  # logged before its delivery
            assert d[2:] == s[2:]  # every column but t and kind
            assert d.t == s.t + sim.nodes[s.src].neighbors[s.dst].delay(s.size)
        # the time each handled copy popped from the heap under
        assert sim.handled and all(sim.handled[d.mid] == d.t for d in delivers if d.mid in sim.handled)
        if strategy == "ADVERT_PROTOCOL":
            assert {"txreq", "txresp"} <= {d.msg for d in delivers}
        # a send still in flight at the horizon: one line, and no delivery
        in_flight = sends.keys() - {d.mid for d in delivers}
        assert in_flight
        for mid in in_flight:
            s = sends[mid]
            assert s.t + sim.nodes[s.src].neighbors[s.dst].delay(s.size) > sc.horizon_seconds
        path = tmp_path / "events.ndjson"
        log.write(path)
        written = collections.Counter(json.loads(line)[6] for line in list(log.lines())[1:])
        assert all(written[mid] == 1 for mid in in_flight)
        assert list(EventLog.read(path)) == records


class TestDeliveryOrder:
    """The log hands out a flood's deliveries in the order the simulator's heap
    pops its copies: by arrival time, equal times by copy index."""

    CASES = {
        # constant links: thousands of adjacent equal-time deliveries, and
        # two-copy floods whose copies arrive at one time
        "ring": (RING, {}),
        "forky-cold-20s": (FORKY_COLD, {"horizon_seconds": 20.0}),
        "forky-cold-20s-delay": (
            FORKY_COLD,
            {
                "horizon_seconds": 20.0,
                "processing_delay_seconds": 0.01,
                "link_bandwidth": {"kind": "constant", "value": 20_000},
            },
        ),
    }

    @pytest.mark.parametrize("strategy", [s.value for s in RelayStrategy])
    @pytest.mark.parametrize("case", list(CASES))
    def test_deliveries_follow_the_heap(self, case, strategy, monkeypatch):
        path, overrides = self.CASES[case]
        data = json.loads(path.read_text(encoding="utf-8"))
        data.update(overrides, relay_strategy=strategy)
        popped = []

        def noting_heappop(heap):
            entry = heapq.heappop(heap)
            if type(entry[2]) is int:  # a copy: (arrival, seq, k, record, msg)
                popped.append((entry[0], entry[3].dst[entry[2]]))
            return entry

        monkeypatch.setattr(simnet, "heappop", noting_heappop)
        log = run_scenario(Scenario.from_dict(data))
        delivered = [(r.t, r.dst) for r in log if r.kind == "deliver"]
        assert popped and delivered == popped
        if case == "ring":
            assert sum(a[0] == b[0] for a, b in zip(delivered, delivered[1:])) > 1000


class _FloodNotingSim(_Sim):
    """Notes each ``_send`` call that sends copies: where its entries start in
    ``log.records``, how many it adds, and whom it sends to."""

    def __init__(self, sc):
        super().__init__(sc)
        self.floods = []

    def _send(self, node, msg, family, oid, cpb, size, exclude=-1, to=-1):
        start = len(self.log.records)
        super()._send(node, msg, family, oid, cpb, size, exclude, to)
        count = len(self.log.records) - start
        if count:
            self.floods.append((start, count, node, exclude, to))


class TestFloodHeldOnce:
    """A simulated log holds the copies of one ``_send`` call as one ``send``
    record, entered once per copy and back to back; iterating or writing
    the log gives each copy its own destination and id."""

    # forky-cold cut to 10 s; and the pinned forky-cold-30s-thin case, where
    # seeds pull from their senders: each txreq and txresp is a flood of one
    CASES = {
        "10s": {"horizon_seconds": 10.0},
        "thin": {"horizon_seconds": 30.0, "link_bandwidth": {"kind": "constant", "value": 2_000}},
    }

    @pytest.mark.parametrize("strategy", [s.value for s in RelayStrategy])
    @pytest.mark.parametrize("case", list(CASES))
    def test_one_record_per_send_call(self, case, strategy, tmp_path):
        sim = _FloodNotingSim(_forky_cold(relay_strategy=strategy, **self.CASES[case]))
        log = sim.run()
        entries = log.records
        records = list(log)
        assert len(records) == len(entries)
        assert sum(count for _, count, *_ in sim.floods) == sum(r.kind == "send" for r in records)
        for start, count, node, exclude, to in sim.floods:
            held = entries[start]
            # one object, once per copy and back to back
            assert all(e is held for e in entries[start : start + count])
            before = entries[start - 1] if start else None
            after = entries[start + count] if start + count < len(entries) else None
            assert before is not held and after is not held
            copies = records[start : start + count]
            dsts = [r.dst for r in copies]
            if to >= 0:
                assert dsts == [to]
            else:
                assert dsts == sorted(dsts) and exclude not in dsts
                assert dsts == [d for d in node.neighbors if d != exclude]
            assert [r.mid for r in copies] == list(range(held.mid, held.mid + count))
            for r in copies:
                assert r.src == node.nid
                assert r[:3] == held[:3] and r[4:6] == held[4:6] and r[7:] == held[7:]
        # a delivery is the very mid object of a flood logged before it, and a
        # flood has no more delivery entries than copies
        logged, delivered = {}, collections.Counter()
        for e in entries:
            if type(e) is int:
                assert e in logged and e is logged[e].mid
                delivered[e] += 1
                assert delivered[e] <= len(logged[e].dst)
            elif e.kind == "send":
                logged[e.mid] = e
        assert len({id(e) for e in entries if type(e) is int}) <= len(sim.floods)
        if strategy == "ADVERT_PROTOCOL" or (case == "thin" and strategy == "LATE_ADVERT"):
            assert any(to >= 0 for *_, to in sim.floods)  # pulls ran
        path = tmp_path / "events.ndjson"
        log.write(path)
        with open(path, encoding="utf-8") as f:
            assert len(entries) == sum(1 for _ in f) - 1  # the first line is the meta
        assert list(EventLog.read(path)) == records


class TestDistinct:
    """``EventLog.distinct`` yields each record but the deliveries once, with
    the number of copies it stands for, from a held log and a plain one alike."""

    def test_held_and_read_back_logs_agree(self, tmp_path):
        oid = "0123456789abcdef"
        # node 0 reaches 2, then 3, then 1 (latencies 0.01, 0.03 and 0.05 s)
        log = EventLog({"schema": 1}, TestLogFormat._star_links())
        tx = LogRecord(0.1, "tx_arrival", 0, -1, "", 500, -1, "fedcba9876543210", "", 0.0)
        found = LogRecord(0.5, "block_found", 0, -1, "", 1000, 2, oid, "abcdef0123456789", 1.0)
        flood = LogRecord(0.5, "send", 0, (1, 2, 3), "seed", 300, 7, oid, "", 300.0)
        pull = LogRecord(0.52, "send", 2, (0,), "txreq", 40, 10, oid, "", 0.0)
        accept = LogRecord(0.6, "block_accept", 2, -1, "", 0, -1, oid, "", 300.0)
        adopt = LogRecord(0.6, "tip_adopt", 2, -1, "", 0, -1, oid, "", 1.0)
        log.records.extend([tx, found, flood, flood, flood, 7, pull, 7, accept, adopt, 10, 7])
        distinct = list(log.distinct())
        assert distinct == [(tx, 1), (found, 1), (flood, 3), (pull, 1), (accept, 1), (adopt, 1)]
        assert all(r is e for (r, _), e in zip(distinct, [tx, found, flood, pull, accept, adopt]))

        path = tmp_path / "events.ndjson"
        log.write(path)
        reread = EventLog.read(path)
        assert sum(r.kind == "deliver" for r in reread.records) == 4
        plain = list(reread.distinct())
        assert all(copies == 1 and r.kind != "deliver" for r, copies in plain)
        assert [r.dst for r, _ in plain if r.kind == "send"] == [1, 2, 3, 0]

        def family_bytes(pairs):
            fam = collections.Counter()
            for r, copies in pairs:
                if r.kind == "send":
                    fam[r.msg] += r.size * copies
            return fam

        assert family_bytes(plain) == family_bytes(distinct) == {"seed": 900, "txreq": 40}
        assert [r for r, _ in plain if r.kind != "send"] == [r for r, _ in distinct if r.kind != "send"]


class TestHeldFormLayering:
    def test_only_simnet_reads_log_records(self):
        # the held form is EventLog's alone: every other module reads a log
        # by iterating it, or through distinct()
        package = Path(simnet.__file__).resolve().parent
        modules = sorted(p for p in package.glob("*.py") if p.name != "simnet.py")
        assert "metrics.py" in [p.name for p in modules]
        readers = [
            f"{p.name}:{node.lineno}"
            for p in modules
            for node in ast.walk(ast.parse(p.read_text(encoding="utf-8"), filename=str(p)))
            if isinstance(node, ast.Attribute) and node.attr == "records"
        ]
        assert readers == []


class TestSeenTable:
    """The network's ``seen`` table flags node *d* for gossip id *o* exactly
    when *d* sent a gossip flood with id *o* or was delivered a copy of one."""

    CASES = {
        "20s": {"horizon_seconds": 20.0},
        "thin": {"horizon_seconds": 30.0, "link_bandwidth": {"kind": "constant", "value": 2_000}},
    }

    @pytest.mark.parametrize("strategy", [s.value for s in RelayStrategy])
    @pytest.mark.parametrize("case", list(CASES))
    def test_flags_are_the_nodes_that_sent_or_got_each_id(self, case, strategy):
        sim = _Sim(_forky_cold(relay_strategy=strategy, **self.CASES[case]))
        log = sim.run()
        gossip = {"tx", "advert", "seed", "block"}
        expected = {(r.src, r.oid) for r in log if r.kind == "send" and r.msg in gossip}
        expected |= {(r.dst, r.oid) for r in log if r.kind == "deliver" and r.msg in gossip}
        flagged = {(d, oid) for oid, flags in sim.seen.items() for d, flag in enumerate(flags) if flag}
        assert flagged == expected
        assert all(len(flags) == sim.sc.node_count for flags in sim.seen.values())
        # pulls carry the oid "", which is never flagged
        pulls = {r.msg for r in log if r.kind == "deliver" and r.oid == ""}
        assert pulls <= {"txreq", "txresp"}
        if strategy == "ADVERT_PROTOCOL":
            assert pulls
        assert not any(sim.seen.get("", b""))

    def test_nodes_hold_no_seen_set(self):
        assert "seen" not in simnet._Node.__slots__


class TestNoReferenceCycles:
    """A run, its written log and its summary make no reference cycles, so the
    CLI may pause the cyclic collector for a whole command."""

    @pytest.mark.parametrize("strategy", [s.value for s in RelayStrategy])
    def test_run_write_and_summarize_make_no_cycles(self, strategy, tmp_path):
        demo = json.loads((Path(__file__).resolve().parent.parent / "scenarios" / "two_node_demo.json").read_text())
        # forky, cold, thin links and a processing delay: pulls, parked seeds and reorgs run
        forky = json.loads(FORKY_COLD.read_text(encoding="utf-8"))
        forky.update(
            horizon_seconds=10.0,
            link_bandwidth={"kind": "constant", "value": 20_000.0},
            processing_delay_seconds=0.01,
        )
        for data in (demo, forky):
            sc = Scenario.from_dict({**data, "relay_strategy": strategy})
            gc.collect()
            gc.disable()
            log = run_scenario(sc)
            log.write(tmp_path / "events.ndjson")
            summary = summarize(log)
            assert summary["blocks_found"] > 0
            assert gc.collect() == 0


# finite floats, zeros of both signs and repeats common; inf and nan are put
# in by _log_records, rarely, as they make the writer respell every later chunk
_FLOATS = st.one_of(st.sampled_from([0.0, -0.0, 1.5]), st.floats(allow_nan=False, allow_infinity=False))
_INTS = st.integers(min_value=-1, max_value=2**70)
_WORDS = st.sampled_from(["", "tx", "advert", "seed", "block", "txreq", "txresp"])
_IDS = st.one_of(st.just(""), st.text("0123456789abcdef", min_size=16, max_size=16))
# one strategy per LogRecord column, in order
_COLUMNS = (
    _FLOATS,
    st.sampled_from(["send", "deliver", "tx_arrival", "block_found", "block_accept", "tip_adopt"]),
    _INTS,
    _INTS,
    _WORDS,
    _INTS,
    _INTS,
    _IDS,
    _IDS,
    _FLOATS,
)
_FILLER = LogRecord(0.5, "tip_adopt", 0, -1, "", 0, -1, "0123456789abcdef", "", 1.0)


@st.composite
def _log_records(draw) -> list:
    """Records with the declared column types, rich in send/deliver pairs:
    exact pairs (the deliver holding its send's columns, as ``run`` builds
    it), pairs with one column changed (a fresh value, or 0.0 against
    -0.0), a deliver before its send or with no send, now and then an inf
    or a nan, and, when split, filler that puts the chunk boundary anywhere
    in the list, sometimes with one non-finite value on both sides of it."""

    def record(kind=None):
        cols = [draw(s) for s in _COLUMNS]
        if kind is not None:
            cols[1] = kind
        return LogRecord(*cols)

    records = []
    for _ in range(draw(st.integers(0, 12))):
        if not draw(st.booleans()):
            records.append(record())
            continue
        send = record("send")
        cols = [draw(st.one_of(st.just(send.t), _FLOATS)), "deliver", *send[2:]]
        if draw(st.booleans()):
            if draw(st.booleans()):
                j = draw(st.integers(2, 9))
                cols[j] = draw(_COLUMNS[j])
            else:
                zero = draw(st.sampled_from([0.0, -0.0]))
                send = send._replace(val=zero)
                cols[9] = -zero
        deliver = LogRecord(*cols)
        order = draw(st.sampled_from(["send first", "deliver first", "no send"]))
        if order == "send first":
            records += [send, *[record() for _ in range(draw(st.integers(0, 2)))], deliver]
        elif order == "deliver first":
            records += [deliver, send]
        else:
            records.append(deliver)
    if records and draw(st.integers(0, 3)) == 0:
        i = draw(st.integers(0, len(records) - 1))
        bad = draw(st.sampled_from([math.inf, -math.inf, math.nan]))
        records[i] = records[i]._replace(**{draw(st.sampled_from(["t", "val"])): bad})
    if records and draw(st.booleans()):
        k = draw(st.integers(0, len(records)))  # records[:k] end the first chunk
        records[:0] = [_FILLER] * (1024 - k)
        if len(records) > 1024 and draw(st.integers(0, 3)) == 0:
            # the writer may reuse the text of the chunk's last time or val
            column = draw(st.sampled_from(["t", "val"]))
            bad = draw(st.sampled_from([math.inf, -math.inf, math.nan]))
            for i in (1023, 1024):
                records[i] = records[i]._replace(**{column: bad})
    return records


class TestLogFormat:
    """Each record line is written byte for byte as json writes the record."""

    @staticmethod
    def _assert_written_as_json(log: EventLog, tmp_path) -> None:
        lines = list(log.lines())
        assert lines[0] == json.dumps({"meta": log.meta}, sort_keys=True, separators=(",", ":"))
        assert lines[1:] == [json.dumps(list(r), separators=(",", ":")) for r in log]
        data = "".join(line + "\n" for line in lines).encode()
        digest = hashlib.sha256(data).hexdigest()
        path = tmp_path / "events.ndjson"
        assert log.write(path) == digest == log.sha256()
        assert path.read_bytes() == data

    @pytest.mark.parametrize("strategy", [s.value for s in RelayStrategy])
    def test_simulated_logs_match_json(self, strategy, tmp_path):
        demo = json.loads(
            (Path(__file__).resolve().parent.parent / "scenarios" / "two_node_demo.json").read_text()
        )
        assert demo["seed"] == 42
        forky = Scenario(
            node_count=16,
            topology={"kind": "random_regular", "degree": 4},
            hash_rate=10.0,
            difficulty_bits=6,
            tx_rate=10.0,
            horizon_seconds=30.0,
            seed=1,
            relay_strategy=RelayStrategy(strategy),
            link_latency={"kind": "uniform", "low": 0.05, "high": 0.5},
        )
        self._assert_written_as_json(
            run_scenario(Scenario.from_dict({**demo, "relay_strategy": strategy})), tmp_path
        )
        log = run_scenario(forky)
        assert len(log.records) > 10_000  # many chunks
        self._assert_written_as_json(log, tmp_path)

    def test_edge_values_match_json(self, tmp_path):
        oid, ref = "0123456789abcdef", "fedcba9876543210"
        # the meta line may hold any text, "inf" and quotes included
        log = EventLog({"schema": 1, "name": "edge \"inf\" nan"})
        log.records.extend([
            LogRecord(-0.0, "send", 0, 1, "tx", 500, 2**53 + 1, oid, "", 1e-07),
            LogRecord(0.1 + 0.2, "deliver", 1, 0, "seed", 300, 10**20, oid, "", 1e16),
            LogRecord(1e16, "block_found", 3, -1, "", 1000, 2, oid, ref, 7.0),
            LogRecord(5e-324, "tip_adopt", 2, -1, "", 0, -1, oid, "", 1.7976931348623157e308),
            LogRecord(123456.789, "block_accept", 2, -1, "", 0, -1, oid, "", 0.0),
        ])
        self._assert_written_as_json(log, tmp_path)

    def test_equal_but_distinct_objects_match_json(self, tmp_path):
        # the writer reuses a size or val text only for the previous record's
        # very object: equal objects, 0.0 and -0.0 among them, are each printed
        oid = "0123456789abcdef"
        vals = [float("0.0"), -float("0.0"), float("0.0"), float("1e16"), float("1e16"), float("-0.0"), 0.1 + 0.2]
        sizes = [int("1" + "0" * 20), int("1" + "0" * 20), int("500"), int("500"), 0, 0, int("-1")]
        log = EventLog({"schema": 1})
        for i, (size, val) in enumerate(zip(sizes, vals)):
            log.records.append(LogRecord(0.5, "send", 0, 1, "tx", size, i, oid, "", val))
            log.records.append(LogRecord(0.75, "deliver", 0, 1, "tx", size, i, oid, "", val))  # the same objects
        assert [v is w for v, w in zip(vals, vals[1:])] == [False] * (len(vals) - 1)
        self._assert_written_as_json(log, tmp_path)

    @pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_value_written_as_json_does(self, bad, tmp_path):
        # repr() would print inf/nan; the line must still be json's Infinity/NaN
        oid = "0123456789abcdef"
        log = EventLog({"schema": 1})
        log.records.extend(
            LogRecord(float(i), "block_accept", 0, -1, "", 0, -1, oid, "", bad if i == 700 else 1.5)
            for i in range(1500)
        )
        self._assert_written_as_json(log, tmp_path)
        assert json.dumps(bad) in list(log.lines())[701]

    def test_non_finite_value_with_a_delivery_entry_matches_json(self, tmp_path):
        # the chunk holding the inf is respelled, its delivery entry written as
        # the rebuilt record, not as the bare int it is held as. A simulated
        # log holds a send as its flood's record, here a flood of one copy
        oid = "0123456789abcdef"
        link = Link(0.05, 1_000_000.0)
        log = EventLog({"schema": 1}, [{1: link}, {0: link}])
        log.records.extend([
            LogRecord(0.5, "send", 0, (1,), "seed", 300, 7, oid, "", 300.0),
            LogRecord(0.5, "block_accept", 0, -1, "", 0, -1, oid, "", float("inf")),
            7,
            LogRecord(0.6, "block_accept", 1, -1, "", 0, -1, oid, "", 300.0),
        ])
        self._assert_written_as_json(log, tmp_path)
        deliver = json.loads(list(log.lines())[3])
        assert deliver == [0.5 + link.delay(300), "deliver", 0, 1, "seed", 300, 7, oid, "", 300.0]

    def test_non_finite_time_reused_across_a_chunk_boundary(self, tmp_path):
        # the second inf reuses the first's text, formatted in the chunk before
        oid = "0123456789abcdef"
        log = EventLog({"schema": 1})
        log.records.extend(
            LogRecord(math.inf if i in (1023, 1024) else float(i), "block_accept", 0, -1, "", 0, -1, oid, "", 1.5)
            for i in range(1030)
        )
        self._assert_written_as_json(log, tmp_path)
        assert list(log.lines())[1025].startswith("[Infinity,")

    @staticmethod
    def _star_links() -> list[dict[int, Link]]:
        """Node 0 linked to nodes 1, 2 and 3 at latencies 0.05, 0.01 and 0.03 s:
        a flood from 0 to all three arrives at 2, then 3, then 1."""
        latency = {1: 0.05, 2: 0.01, 3: 0.03}
        links: list[dict[int, Link]] = [{} for _ in range(4)]
        for d, lat in latency.items():
            links[0][d] = links[d][0] = Link(lat, 1_000_000.0)
        return links

    @pytest.mark.parametrize("dsts", [(1,), (1, 2, 3)])
    @pytest.mark.parametrize("bad", [float("inf"), float("nan")])
    def test_non_finite_val_of_a_flood_delivered_in_the_next_chunk(self, bad, dsts, tmp_path):
        # the deliveries' lines are the send's tail, formatted a chunk earlier;
        # a wider flood's copies arrive out of index order, and all but the
        # last are delivered before the chunk boundary
        oid = "0123456789abcdef"
        n = len(dsts)
        log = EventLog({"schema": 1}, self._star_links())
        filler = [LogRecord(float(i), "tip_adopt", 0, -1, "", 0, -1, oid, "", 1.0) for i in range(1024)]
        send = LogRecord(1020.0, "send", 0, dsts, "seed", 300, 7, oid, "", bad)
        log.records.extend([*filler[: 1025 - 2 * n], *[send] * n, *[7] * (n - 1), *filler[:9], 7])
        assert log.records[1023] == (send if n == 1 else 7)  # the last record of the first chunk
        self._assert_written_as_json(log, tmp_path)
        delivered = [line for line in log.lines() if '"deliver"' in line]
        assert [json.loads(line)[3] for line in delivered] == sorted(dsts, key=lambda d: log.links[0][d].latency)
        assert all(line.endswith("," + json.dumps(bad) + "]") for line in delivered)

    def test_writer_reads_only_the_held_records(self, monkeypatch, tmp_path):
        # an inf in the first chunk, a nan in the second, and a flood sent in
        # the second and delivered in the third: the writer formats every
        # line from ``records`` and never iterates the log
        oid = "0123456789abcdef"
        log = EventLog({"schema": 1}, self._star_links())
        filler = [LogRecord(float(i), "tip_adopt", 0, -1, "", 0, -1, oid, "", 1.0) for i in range(2048)]
        send = LogRecord(2040.0, "send", 0, (1, 2, 3), "seed", 300, 7, oid, "", 300.0)
        log.records.extend([
            *filler[:500],
            LogRecord(500.0, "block_accept", 1, -1, "", 0, -1, oid, "", math.inf),
            *filler[501:1500],
            LogRecord(1500.0, "block_accept", 2, -1, "", 0, -1, oid, "", math.nan),
            *filler[1501:2045],
            send, send, send,
            7, 7, 7,
        ])

        def iterate(self):
            raise AssertionError("the writer iterated the log")

        monkeypatch.setattr(EventLog, "__iter__", iterate)
        lines = list(log.lines())
        path = tmp_path / "events.ndjson"
        digest = log.write(path)
        assert log.sha256() == digest
        monkeypatch.undo()
        expected = [json.dumps({"meta": log.meta}, sort_keys=True, separators=(",", ":"))]
        expected += [json.dumps(list(r), separators=(",", ":")) for r in log]
        assert lines == expected
        assert path.read_bytes() == "".join(line + "\n" for line in expected).encode()
        assert digest == hashlib.sha256(path.read_bytes()).hexdigest()
        assert [json.loads(line)[3] for line in lines[-3:]] == [2, 3, 1]

    def test_delivery_whose_arrival_overflows_written_as_infinity(self, tmp_path):
        oid = "0123456789abcdef"
        link = Link(0.05, 5e-324)  # 300 bytes take inf seconds
        log = EventLog({"schema": 1}, [{1: link}, {0: link}])
        log.records.extend([LogRecord(0.5, "send", 0, (1,), "seed", 300, 7, oid, "", 300.0), 7])
        self._assert_written_as_json(log, tmp_path)
        assert list(log.lines())[2].startswith('[Infinity,"deliver",')

    @settings(max_examples=150, deadline=None)
    @given(_log_records())
    def test_any_records_match_json(self, records):
        log = EventLog({"schema": 1})
        log.records.extend(records)
        with tempfile.TemporaryDirectory() as d:
            self._assert_written_as_json(log, Path(d))


class TestFloodCompleteness:
    def test_every_advert_and_block_reaches_every_node(self):
        sc = Scenario(
            node_count=8,
            topology={"kind": "ring"},
            hash_rate=10.0,
            difficulty_bits=8,  # sparse finds, horizon >> diameter * delay
            tx_rate=1.0,
            initial_mempool_txs=30,
            horizon_seconds=60.0,
            seed=11,
            relay_strategy=RelayStrategy.ADVERT_PROTOCOL,
        )
        log = run_scenario(sc)
        finds = [r for r in log if r.kind == "block_found" and r.t < 50.0]
        assert finds
        accepts = {}
        for r in log:
            if r.kind == "block_accept":
                accepts.setdefault(r.oid, set()).add(r.src)
        for f in finds:
            assert accepts[f.oid] == set(range(8)), f"block {f.oid} did not reach everyone"
        # adverts flooded at t=0 reach all other nodes
        advert_delivery = {}
        for r in log:
            if r.kind == "deliver" and r.msg == "advert":
                advert_delivery.setdefault(r.oid, set()).add(r.dst)
        t0_adverts = {r.oid for r in log if r.kind == "send" and r.msg == "advert" and r.t == 0.0}
        assert len(t0_adverts) == 8
        for oid in t0_adverts:
            assert len(advert_delivery[oid]) == 7 or len(advert_delivery[oid]) == 8

    def test_convergence_and_conservation(self):
        sc = Scenario(
            node_count=8,
            topology={"kind": "ring"},
            hash_rate=10.0,
            difficulty_bits=8,
            tx_rate=2.0,
            initial_mempool_txs=4000,
            horizon_seconds=120.0,
            seed=5,
            relay_strategy=RelayStrategy.BASELINE_FULL_BLOCK,
        )
        log = run_scenario(sc)
        blocks = {r.oid for r in log if r.kind == "block_found"}
        tips = {}
        accepts = {}
        for r in log:
            if r.kind == "tip_adopt":
                tips[r.src] = r.oid
            elif r.kind == "block_accept":
                accepts.setdefault(r.src, set()).add(r.oid)
        assert len(set(tips.values())) == 1  # quiescent network agrees on the tip
        for node_accepts in accepts.values():
            assert node_accepts <= blocks  # never accept a block nobody found


class _CountingSim(_Sim):
    """The simulator as shipped, counting its pending-seed tries and buffer evictions."""

    def __init__(self, sc: Scenario) -> None:
        super().__init__(sc)
        self.tries = 0
        self.evictions = 0

    def _handle_relayed_block(self, node, msg, sent):
        self.evictions += len(node.pending) >= self.sc.pending_seed_buffer
        super()._handle_relayed_block(node, msg, sent)

    def _try_seed(self, node, pend):
        self.tries += 1
        super()._try_seed(node, pend)


class _FullScanSim(_CountingSim):
    """Reference, the rule that ignores what a parked entry lacked: an advert
    retries every parked seed under its key, pulling from the seed's sender;
    an accepted block retries every entry that is its child; a new
    transaction retries every parked entry."""

    def __init__(self, sc: Scenario) -> None:
        super().__init__(sc)
        self.tx_tries = 0
        self.tx_advances = 0  # tx-triggered tries that resolved their seed

    def _wake(self, node, arrived):
        parked = list(node.pending.items())
        is_tx = False
        if type(arrived) is tuple:  # an advert key
            parked = [(h, p) for h, p in parked if (p.msg.coinbase_address, p.msg.header.prev_block_hash) == arrived]
        elif node.chain.knows(arrived):  # an accepted block
            parked = [(h, p) for h, p in parked if p.msg.header.prev_block_hash == arrived]
        else:
            is_tx = True
        for h, pend in parked:
            if node.pending.get(h) is not pend:
                continue  # resolved or evicted by an earlier try of this scan
            self._try_seed(node, pend)
            if is_tx:
                self.tx_tries += 1
                self.tx_advances += h not in node.pending


class TestPendingSeedRetryOracle:
    """Retrying a parked entry only when what its last try lacked arrives changes no log line."""

    @pytest.mark.parametrize(
        "strategy, bandwidth, delay, buffer, txs_unblock",
        [
            # on fast links a transaction always lands before a seed naming
            # it: ADVERT's tx-triggered retries all find the seed unchanged
            # (LATE makes none there)
            ("ADVERT_PROTOCOL", 1_000_000.0, 0.0, 32, False),
            # on thin links the 300 B seed outruns the 500 B transactions it names
            ("ADVERT_PROTOCOL", 2_000.0, 0.0, 32, True),
            ("LATE_ADVERT", 2_000.0, 0.0, 32, True),
            # full blocks park only on their parent; no transaction unblocks one
            ("BASELINE_FULL_BLOCK", 2_000.0, 0.0, 32, False),
            # post-find pulls reach the critical path; every transaction
            # still lands before the seed naming it
            ("ADVERT_PROTOCOL", 20_000.0, 0.01, 32, False),
            # a buffer of 2 evicts between wake-ups
            ("ADVERT_PROTOCOL", 2_000.0, 0.0, 2, True),
            ("LATE_ADVERT", 2_000.0, 0.0, 2, True),
        ],
        ids=[
            "ADVERT-fast-links",
            "ADVERT-thin-links",
            "LATE-thin-links",
            "BASELINE-thin-links",
            "ADVERT-delay",
            "ADVERT-evicting",
            "LATE-evicting",
        ],
    )
    def test_filtered_retries_match_full_scan(self, strategy, bandwidth, delay, buffer, txs_unblock):
        # forky and cold: stale rate near 0.5, so seeds park on their
        # parents and adverts
        sc = Scenario(
            node_count=16,
            topology={"kind": "random_regular", "degree": 4},
            hash_rate=10.0,
            difficulty_bits=6,
            tx_rate=10.0,
            initial_mempool_txs=0,
            horizon_seconds=30.0,
            seed=1,
            relay_strategy=RelayStrategy(strategy),
            link_latency={"kind": "uniform", "low": 0.05, "high": 0.5},
            link_bandwidth={"kind": "constant", "value": bandwidth},
            processing_delay_seconds=delay,
            pending_seed_buffer=buffer,
        )
        ref = _FullScanSim(sc)
        ref_lines = list(ref.run().lines())
        real = _CountingSim(sc)
        log = real.run()
        assert list(log.lines()) == ref_lines
        assert ref.tx_tries > 0
        if txs_unblock:
            assert ref.tx_advances > 0
        assert real.tries < ref.tries
        if buffer == 2:
            assert real.evictions > 0
        accepts = collections.Counter((r.src, r.oid) for r in log if r.kind == "block_accept")
        assert accepts and max(accepts.values()) == 1


def _forky_cold(**overrides) -> Scenario:
    data = json.loads(FORKY_COLD.read_text(encoding="utf-8"))
    data.update(overrides)
    return Scenario.from_dict(data)


def _faucet_id(i: int):
    return hash_bytes(b"advertsim-faucet-tx:%d" % i)


class TestFaucetMintedOnDemand:
    """A faucet output is hashed when drawn and credited to every chain as a genesis output."""

    def test_only_drawn_ids_are_hashed(self, monkeypatch):
        import advertsim.simnet as simnet

        simnet.drop_workload()
        minted = []
        real = simnet.hash_bytes

        def counting(data):
            if data.startswith(b"advertsim-faucet-tx:"):
                minted.append(data)
            return real(data)

        monkeypatch.setattr(simnet, "hash_bytes", counting)
        sim = _Sim(_mini(horizon_seconds=5.0))
        assert len(minted) == sim.sc.initial_mempool_txs == sim.faucet_next
        log = sim.run()
        arrivals = sum(r.kind == "tx_arrival" for r in log)
        assert arrivals > 0
        assert minted == [b"advertsim-faucet-tx:%d" % i for i in range(sim.sc.initial_mempool_txs + arrivals)]
        assert len(minted) < sim.n_faucet == log.meta["faucet_outputs"]

    @pytest.mark.parametrize("strategy", [s.value for s in RelayStrategy])
    def test_every_chain_holds_each_minted_output_until_spent(self, strategy):
        sim = _Sim(_forky_cold(horizon_seconds=10.0, initial_mempool_txs=30, relay_strategy=strategy))
        sim.run()
        minted = [(_faucet_id(i), 0) for i in range(sim.faucet_next)]
        spent_somewhere = False
        for node in sim.nodes:
            chain = node.chain
            spent = set()
            h = chain.tip_hash
            while h != chain.genesis_hash:
                block = chain.checked[h][0]
                spent.update(op for tx in block.transactions for op in tx.inputs)
                h = block.header.prev_block_hash
            spent_somewhere |= bool(spent)
            for op in minted:
                assert (op in chain.utxo) == (op not in spent)
                if op in chain.utxo:
                    assert chain.utxo[op] == (FAUCET_ADDRESS, FAUCET_VALUE)
        assert spent_somewhere

    def test_arrivals_stop_at_n_faucet(self):
        sim = _Sim(_mini(horizon_seconds=25.0))
        sim.n_faucet = sim.faucet_next + 5
        log = sim.run()
        assert sum(r.kind == "tx_arrival" for r in log) == 5
        assert sim.faucet_next == sim.n_faucet
        # the meta line still reports the cap the scenario sizes
        assert log.meta["faucet_outputs"] == 40 + int(2.0 * 25.0 * 3) + 64


class TestWarmPoolFilledOnce:
    def test_each_pool_lists_the_warm_txs_in_arrival_order(self):
        sim = _Sim(_mini(initial_mempool_txs=50))
        order = [(_faucet_id(i), 0) for i in range(50)]
        for node in sim.nodes:
            pool = node.mempool
            assert [tx.inputs[0] for tx in pool.txs.values()] == order
            assert list(pool.spent_outpoints) == order
            assert list(pool.spent_outpoints.values()) == list(pool.txs)
            assert list(node.tx_store) == list(pool.txs)
            assert set(node.chain.utxo) == set(order)

    def test_pools_are_independent(self):
        sim = _Sim(_mini(initial_mempool_txs=50))
        first, second = sim.nodes[0], sim.nodes[1]
        pool = second.mempool
        before = (list(pool.txs.items()), list(pool.spent_outpoints.items()), list(second.tx_store.items()))
        op = (_faucet_id(50), 0)
        first.chain.utxo[op] = (FAUCET_ADDRESS, FAUCET_VALUE)
        extra = Transaction(inputs=(op,), outputs=((rand_address(random.Random(0)), FAUCET_VALUE),))
        assert first.mempool.add(extra, first.chain.utxo)
        first.tx_store[txid(extra)] = extra
        first.mempool.remove(next(iter(first.mempool.txs)))
        assert len(first.mempool.txs) == 50 and len(first.tx_store) == 51
        assert (list(pool.txs.items()), list(pool.spent_outpoints.items()), list(second.tx_store.items())) == before


    def test_each_warm_tx_is_serialized_once(self, monkeypatch):
        # its size floor and its id are computed from the same bytes
        import advertsim.core as core
        import advertsim.simnet as simnet

        simnet.drop_workload()
        calls = []
        real = core.serialize

        def counting(obj):
            if type(obj) is Transaction:
                calls.append(obj)
            return real(obj)

        monkeypatch.setattr(core, "serialize", counting)
        sim = _Sim(_mini(initial_mempool_txs=50))
        assert len(calls) == 50
        assert [txid(tx) for tx in calls] == list(sim.nodes[0].mempool.txs)


# one sweep per field of the workload key, over two values
_KEY_SWEEPS = [
    ("seed", "3,4"),
    ("initial_mempool_txs", "30,40"),
    ("tx_size_bytes", "500,600"),
    ("tx_rate", "1.0,2.0"),
    ("node_count", "4,6"),
]


class TestWorkloadSharedPerKey:
    """Every run of one workload key reads one warm pool and one arrival stream."""

    def test_cached_workload_gives_the_log_of_a_cleared_cache(self):
        import advertsim.simnet as simnet

        sc = _mini(horizon_seconds=8.0)
        simnet.drop_workload()
        cleared = run_scenario(sc).sha256()
        # a shorter run draws part of the stream; the full run extends it
        run_scenario(_mini(horizon_seconds=3.0, relay_strategy=RelayStrategy.LATE_ADVERT))
        assert run_scenario(sc).sha256() == cleared
        assert run_scenario(sc).sha256() == cleared
        run_scenario(_mini(horizon_seconds=8.0, seed=8))  # another key in between
        assert run_scenario(sc).sha256() == cleared

    @pytest.mark.parametrize("field, values", _KEY_SWEEPS)
    def test_sweep_over_a_key_field_gives_cleared_cache_logs(self, field, values, tmp_path):
        import advertsim.simnet as simnet
        from advertsim.cli import EXIT_OK, main

        base = _mini(horizon_seconds=5.0)
        expected = {}
        for raw in values.split(","):
            value = type(getattr(base, field))(raw)
            simnet.drop_workload()
            expected[str(value)] = run_scenario(replace(base, **{field: value})).sha256()
        path = tmp_path / "mini.json"
        path.write_text(json.dumps(base.to_dict()), encoding="utf-8")
        argv = ["sweep", "--scenario", str(path), "--sweep", f"{field}={values}", "--out", str(tmp_path / "out")]
        assert main(argv) == EXIT_OK
        sweep = json.loads((tmp_path / "out" / f"mini-sweep-{field}" / "sweep.json").read_text(encoding="utf-8"))
        assert {str(r["value"]): r["summary"]["log_sha256"] for r in sweep["runs"]} == expected
        assert len(set(expected.values())) == 2

    def test_compare_builds_each_transaction_once(self, monkeypatch, tmp_path):
        import advertsim.core as core
        import advertsim.simnet as simnet
        from advertsim.cli import EXIT_OK, main

        simnet.drop_workload()
        built, keyed = [], []
        real_serialize, real_key = core.serialize, simnet.gossip_dedup_key

        def counting_serialize(obj):
            if type(obj) is Transaction:
                built.append(obj)
            return real_serialize(obj)

        def counting_key(msg):
            if type(msg) is Transaction:
                keyed.append(msg)
            return real_key(msg)

        monkeypatch.setattr(core, "serialize", counting_serialize)
        monkeypatch.setattr(simnet, "gossip_dedup_key", counting_key)
        sc = _mini(horizon_seconds=10.0)
        path = tmp_path / "mini.json"
        path.write_text(json.dumps(sc.to_dict()), encoding="utf-8")
        strategies = [s.value for s in RelayStrategy]
        argv = ["compare", "--scenario", str(path), "--strategies", ",".join(strategies), "--out", str(tmp_path / "out")]
        assert main(argv) == EXIT_OK
        arrivals = set()
        for strategy in strategies:
            log = EventLog.read(tmp_path / "out" / "mini-compare" / strategy / "events.ndjson")
            arrivals.update(r.oid for r in log if r.kind == "tx_arrival")
        ids = [txid(tx) for tx in built]
        assert len(ids) == len(set(ids)) == sc.initial_mempool_txs + len(arrivals)
        assert {h.short() for h in ids[sc.initial_mempool_txs :]} == arrivals
        assert [txid(tx) for tx in keyed] == ids[sc.initial_mempool_txs :]

    def test_setup_draws_no_arrival(self):
        import advertsim.simnet as simnet

        simnet.drop_workload()
        sc = _mini()
        sim = _Sim(sc)
        workload = sim.workload
        assert workload.arrivals == [] and workload.gap0 is None
        assert workload.rng.getstate() == random.Random(f"{sc.seed}/arrivals").getstate()
        log = sim.run()
        assert len(workload.arrivals) == sum(r.kind == "tx_arrival" for r in log) > 0

    def test_runs_leave_the_cached_pool_unchanged(self):
        import advertsim.simnet as simnet

        sc = _forky_cold(horizon_seconds=10.0, initial_mempool_txs=30)
        workload = simnet._workload(sc)
        warm = workload.warm

        def state():
            return list(warm.txs.items()), list(warm.spent_outpoints.items()), list(workload.genesis_utxo.items())

        before = state()
        included = set()
        for strategy in RelayStrategy:
            sim = _Sim(replace(sc, relay_strategy=strategy))
            sim.run()
            assert sim.workload is workload
            included.update(txid(tx) for rec in sim.nodes[0].chain.checked.values() for tx in rec[0].transactions)
        assert state() == before
        assert not included.isdisjoint(warm.txs)  # blocks took warm transactions out of the node pools


class _SessionListSim(_Sim):
    """The simulator as shipped, noting per find the list the finder's pool gave
    when its session started."""

    def __init__(self, sc: Scenario) -> None:
        super().__init__(sc)
        self.at_start: dict[int, tuple] = {}
        self.found: list[tuple[str, tuple]] = []  # (block oid, list at session start)
        self.grown = 0  # finds whose pool grew during the session

    def _restart_mining(self, node):
        super()._restart_mining(node)
        self.at_start[node.nid] = select_list(node.address, node.chain.tip_hash, node.mempool, self.policy).tx_hashes

    def _on_found(self, nid, session):
        node = self.nodes[nid]
        expected, pool_size = self.at_start[nid], len(node.mempool.txs)
        n = len(self.log.records)
        super()._on_found(nid, session)
        if len(self.log.records) > n:
            found = self.log.records[n]
            assert found.kind == "block_found"
            self.found.append((found.oid, expected))
            self.grown += pool_size > node.pool_at_start


class TestBaselineListChosenAtFind:
    def test_one_selection_per_find_over_the_pool_at_session_start(self, monkeypatch):
        import advertsim.simnet as simnet

        calls = []
        real = simnet.make_advert

        def counting(*args):
            calls.append(len(args[2].txs))
            return real(*args)

        monkeypatch.setattr(simnet, "make_advert", counting)
        sim = _SessionListSim(_forky_cold(horizon_seconds=10.0, relay_strategy="BASELINE_FULL_BLOCK"))
        log = sim.run()
        assert len(calls) == sum(r.kind == "block_found" for r in log) == len(sim.found) > 0
        blocks = {h.short(): rec[0] for h, rec in sim.nodes[0].chain.checked.items()}
        for oid, expected in sim.found:
            assert tuple(txid(tx) for tx in blocks[oid].transactions) == expected
        assert any(expected for _, expected in sim.found)
        assert sim.grown > 0


class TestTemplateBuiltAtFind:
    @pytest.mark.parametrize("strategy", ["BASELINE_FULL_BLOCK", "ADVERT_PROTOCOL", "LATE_ADVERT"])
    def test_header_timestamp_is_the_second_the_list_was_chosen(self, strategy):
        sim = _Sim(_forky_cold(horizon_seconds=10.0, relay_strategy=strategy))
        log = sim.run()
        headers = {h.short(): rec[0].header for h, rec in sim.nodes[0].chain.checked.items()}
        started = {}  # a session starts at t = 0 and at each tip change
        crossed = 0
        for r in log:
            if r.kind == "tip_adopt":
                started[r.src] = r.t
            elif r.kind == "block_found":
                # LATE chooses its list at the find, the others when the session starts
                chosen = r.t if strategy == "LATE_ADVERT" else started.get(r.src, 0.0)
                assert headers[r.oid].timestamp == int(chosen)
                crossed += int(started.get(r.src, 0.0)) != int(r.t)
        assert crossed > 0  # some sessions span a second boundary


class TestFixedValuesBuiltAtSetUp:
    """The difficulty, the proof target and each node's hash rate are built
    once, when the run is set up, not at each mining session or find."""

    @pytest.mark.parametrize("strategy", [s.value for s in RelayStrategy])
    def test_targets_and_rates_once_however_many_sessions(self, strategy, monkeypatch):
        built = collections.Counter()

        class CountingTarget(simnet.CompactTarget):
            def __init__(self, *args):
                built["target"] += 1
                super().__init__(*args)

        class CountingRate(simnet.HashRate):
            def __init__(self, *args):
                built["rate"] += 1
                super().__init__(*args)

        monkeypatch.setattr(simnet, "CompactTarget", CountingTarget)
        monkeypatch.setattr(simnet, "HashRate", CountingRate)
        sc = _forky_cold(horizon_seconds=10.0, relay_strategy=strategy)
        log = run_scenario(sc)
        sessions = sc.node_count + sum(r.kind == "tip_adopt" for r in log)
        assert sessions > 4 * sc.node_count and any(r.kind == "block_found" for r in log)
        assert built == {"target": 2, "rate": sc.node_count}


class _LedgerCheckingSim(_Sim):
    """The simulator as shipped, checking after every acceptance that each
    node's pull ledger holds exactly the keys of its advert registry."""

    def __init__(self, sc: Scenario) -> None:
        super().__init__(sc)
        self.checks = 0

    def _accept(self, node, block, bh, oid, pb):
        super()._accept(node, block, bh, oid, pb)
        assert node.pull_log.keys() == node.registry.entries.keys()
        self.checks += 1


class TestPullLedgerLivesWithItsAdvert:
    """A node's pull ledger entry opens when its advert registers and goes in
    the eviction that drops the advert."""

    @pytest.mark.parametrize("strategy", [s.value for s in RelayStrategy])
    def test_ledger_keys_are_the_registry_keys(self, strategy, monkeypatch):
        evicted = []
        real = AdvertRegistry.evict_stale

        def counting(registry, heights, tip_height):
            evicted.append(real(registry, heights, tip_height))
            return evicted[-1]

        monkeypatch.setattr(AdvertRegistry, "evict_stale", counting)
        sim = _LedgerCheckingSim(_forky_cold(horizon_seconds=20.0, relay_strategy=strategy))
        sim.run()
        assert sim.checks > 0
        if strategy == "BASELINE_FULL_BLOCK":  # registers no advert
            assert not any(node.registry.entries for node in sim.nodes)
        else:
            assert sum(evicted) > 0

    @pytest.mark.parametrize("strategy", ["ADVERT_PROTOCOL", "LATE_ADVERT"])
    def test_registry_and_ledger_share_each_adverts_key(self, strategy):
        sim = _Sim(_forky_cold(horizon_seconds=10.0, relay_strategy=strategy))
        sim.run()
        assert any(node.registry.entries for node in sim.nodes)
        for node in sim.nodes:
            assert all(key is advert.key() for key, advert in node.registry.entries.items())
            assert {id(key) for key in node.pull_log} == {id(key) for key in node.registry.entries}

    def test_response_for_a_key_evicted_mid_pull_leaves_the_ledger_alone(self):
        # forky-cold seed 1 under ADVERT at 60 s: 2 of 18 keyed responses
        # arrive after their advert was evicted. The request holds its
        # advert's ledger, which the eviction made unreachable: the answer
        # charges that list and no live ledger
        rng = random.Random(25)
        sim = _Sim(_forky_cold(horizon_seconds=10.0))
        node = sim.nodes[0]
        live = Advert(coinbase_address=rand_address(rng), tx_hashes=(), prev_block_hash=rand_hash(rng))
        node.registry.register(live)
        node.pull_log[live.key()] = [(0.0, 100.0)]
        tx = sim.workload.arrival(0)[0]
        h = txid(tx)
        orphan = [(0.0, 200.0)]  # its advert is gone
        node.req_map[h] = orphan
        sim.now = 1.5
        sim._handle_tx_response(node, TxResponse((tx,)))
        assert orphan == [(0.0, 200.0), (1.5, float(tx.nominal_size_bytes))]
        assert node.pull_log == {live.key(): [(0.0, 100.0)]}
        assert h not in node.req_map and h in node.tx_store


class _NewTxCheckingSim(_Sim):
    """The simulator as shipped, checking that each transaction handed to
    ``_relay_new_tx`` is new to its node: the callers decide that (``seen``
    for gossip, ``tx_store`` for a pull answer), and the method does not
    check again."""

    def __init__(self, sc: Scenario) -> None:
        super().__init__(sc)
        self.entered = 0

    def _relay_new_tx(self, node, tx, oid, size, exclude=-1):
        assert txid(tx) not in node.tx_store
        self.entered += 1
        super()._relay_new_tx(node, tx, oid, size, exclude)


@st.composite
def _small_scenarios(draw) -> dict:
    n = draw(st.integers(2, 8))
    kind = draw(st.sampled_from(["ring", "complete", "random_regular"]))
    return dict(
        node_count=n,
        topology={"kind": kind, "degree": 2} if kind == "random_regular" else {"kind": kind},
        difficulty_bits=draw(st.integers(4, 6)),
        link_latency={"kind": "uniform", "low": 0.05, "high": 0.5},
        link_bandwidth={"kind": "constant", "value": draw(st.floats(2_000.0, 1_000_000.0))},
        processing_delay_seconds=draw(st.sampled_from([0.0, 0.01])),
        pending_seed_buffer=draw(st.sampled_from([1, 4, 32])),
        initial_mempool_txs=draw(st.sampled_from([0, 50])),
        horizon_seconds=float(draw(st.integers(10, 20))),
        seed=draw(st.integers(0, 2**16)),
    )


class TestInvariantsOnDrawnScenarios:
    """Invariants every run keeps, on small drawn scenarios under each strategy:
    determinism, each delivery rebuilt from its send, a written log that
    summarizes as the run's, and a transaction entering a node only once."""

    @settings(max_examples=12, deadline=None)
    @given(_small_scenarios())
    def test_drawn_scenarios_keep_the_invariants(self, fields):
        for strategy in RelayStrategy:
            sc = Scenario(relay_strategy=strategy, **fields)
            sim = _NewTxCheckingSim(sc)
            log = sim.run()
            assert sim.entered > 0
            digest = log.sha256()
            assert run_scenario(sc).sha256() == digest
            sends = {}
            for r in log:
                if r.kind == "send":
                    sends[r.mid] = r
                elif r.kind == "deliver":
                    s = sends.pop(r.mid)
                    assert r[2:] == s[2:]
                    assert r.t == s.t + sim.nodes[s.src].neighbors[s.dst].delay(s.size)
            with tempfile.TemporaryDirectory() as d:
                path = Path(d) / "events.ndjson"
                assert log.write(path) == digest
                assert summarize(EventLog.read(path)) == summarize(log)
