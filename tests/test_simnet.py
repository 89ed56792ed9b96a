"""Simulator: delays, dedup, topologies, determinism, causality, and flooding."""

import collections
import gc
import hashlib
import json
import random
from pathlib import Path

import pytest

from advertsim.core import Transaction, hash_bytes, serialized_size, txid
from advertsim.metrics import summarize
from advertsim.protocol import Advert
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
        link = Link(0, 1, latency=0.05, bandwidth=1_000_000.0)
        # exercise through a real message: 2000 x 500B txs + 200B coinbase
        from test_core import _block_of

        block = _block_of(2000)
        assert serialized_size(block) == 1_000_280
        assert link.delay(serialized_size(block)) == pytest.approx(1.05028, abs=1e-9)

    def test_seed_over_same_link(self):
        from test_core import _block_of
        from advertsim.protocol import make_block_seed

        link = Link(0, 1, latency=0.05, bandwidth=1_000_000.0)
        seed = make_block_seed(_block_of(3))
        assert link.delay(serialized_size(seed)) == pytest.approx(0.0503, abs=1e-9)

    def test_zero_size_message_costs_latency_only(self):
        link = Link(0, 1, latency=0.125, bandwidth=10.0)
        from advertsim.core import TxResponse

        assert link.delay(serialized_size(TxResponse(txs=()))) == 0.125

    def test_link_validation(self):
        with pytest.raises(ValueError):
            Link(2, 2, 0.0, 1.0)
        with pytest.raises(ValueError):
            Link(0, 1, -1.0, 1.0)
        with pytest.raises(ValueError):
            Link(0, 1, 0.0, 0.0)


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

    def test_explicit_edges(self):
        spec = {"kind": "edges", "edges": [[0, 1], [1, 2]]}
        assert build_topology(spec, 3, random.Random(0)) == [(0, 1), (1, 2)]

    def test_disconnected_rejected(self):
        with pytest.raises(ScenarioError):
            build_topology({"kind": "edges", "edges": [[0, 1], [2, 3]]}, 4, random.Random(0))

    def test_oversized_degree_degenerates_to_complete(self):
        edges = build_topology({"kind": "random_regular", "degree": 16}, 4, random.Random(0))
        assert len(edges) == 6  # K4

    def test_odd_stub_count_rejected(self):
        with pytest.raises(ScenarioError):
            build_topology({"kind": "random_regular", "degree": 3}, 7, random.Random(0))


class TestScenarioValidation:
    def test_negative_bandwidth_names_field(self):
        sc = _mini(link_bandwidth={"kind": "constant", "value": -5.0})
        with pytest.raises(ScenarioError) as exc:
            sc.validate()
        assert exc.value.field == "link_bandwidth"

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
        found = [r for r in log.records if r.kind == "block_found"]
        accepts = [r for r in log.records if r.kind == "block_accept"]
        assert len(found) > 0
        assert {r.oid for r in found} == {r.oid for r in accepts}
        by_oid = {r.oid: r.t for r in found}
        assert all(r.t == by_oid[r.oid] for r in accepts)
        assert not [r for r in log.records if r.kind == "send"]


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
        finds = [r for r in log.records if r.kind == "block_found"]
        assert finds
        accepts = {
            (r.oid, r.src): r for r in log.records if r.kind == "block_accept"
        }
        for f in finds:
            remote = accepts.get((f.oid, 1))
            assert remote is not None
            # the post-mine critical path is the 300-byte seed, nothing else
            assert remote.val == 300.0
            window = [
                r
                for r in log.records
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
        finds = [r for r in log.records if r.kind == "block_found"]
        assert finds
        f = finds[0]
        delivers = {
            r.msg: r.t
            for r in log.records
            if r.kind == "deliver" and r.dst == 1 and f.t <= r.t <= f.t + 1.0
        }
        accept_t = next(
            r.t for r in log.records if r.kind == "block_accept" and r.src == 1 and r.oid == f.oid
        )
        assert delivers["seed"] < delivers["advert"]  # the race is real
        assert accept_t == delivers["advert"]  # resolved by the pending buffer
        pb = next(
            r.val for r in log.records if r.kind == "block_accept" and r.src == 1 and r.oid == f.oid
        )
        advert_size = 8 + 20 + 32 + 32 * 20
        assert pb == advert_size + 300


FORKY_COLD = Path(__file__).resolve().parent.parent / "perfbench" / "workloads" / "forky-cold.json"


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
        for r in log.records:
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
        assert any(node.proto.registry.entries for node in sim.nodes)
        for node in sim.nodes:
            address = node.proto.address
            assert all(a != address for a, _ in node.proto.registry.entries), node.nid


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
        found = sum(r.kind == "block_found" for r in log.records)
        accepted = sum(r.kind == "block_accept" for r in log.records)
        assert accepted > 4 * found  # most blocks are checked at many nodes
        assert len(calls) == 2 * found  # ``mine`` finds every block at its first extra nonce

    @pytest.mark.parametrize("strategy", [s.value for s in RelayStrategy])
    def test_block_delta_once_per_found_block(self, strategy, monkeypatch):
        """Once, when the finder adds the block and records it for the network."""
        import advertsim.protocol as protocol

        calls = []
        real = protocol._block_delta
        monkeypatch.setattr(protocol, "_block_delta", lambda block, view: calls.append(1) or real(block, view))
        data = json.loads(FORKY_COLD.read_text(encoding="utf-8"))
        data.update(horizon_seconds=20.0, relay_strategy=strategy)
        log = run_scenario(Scenario.from_dict(data))
        found = sum(r.kind == "block_found" for r in log.records)
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
        early = [r.oid for r in log.records if r.kind == "block_found" and r.t < cutoff]
        top = max(r.val for r in log.records if r.kind == "block_found")
        acceptors = collections.defaultdict(set)
        for r in log.records:
            if r.kind == "block_accept":
                acceptors[r.oid].add(r.src)
        stranded = [oid for oid in early if len(acceptors[oid]) < len(sim.nodes)]
        gap = max(top - node.proto.chain.height for node in sim.nodes)
        assert early
        assert not stranded, f"{len(stranded)} of {len(early)} early blocks miss a node"
        assert gap <= 2, f"a node ends {gap:g} blocks below the highest block found"


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
        for sc in [_mini()] + forky:
            sim = _Sim(sc)
            log = sim.run()
            # a send is stamped once the processing delay has passed
            times = [r.t for r in log.records if r.kind != "send" or not sc.processing_delay_seconds]
            assert times == sorted(times)
            sends = {r.mid: r for r in log.records if r.kind == "send"}
            delivers = [r for r in log.records if r.kind == "deliver"]
            assert delivers
            for d in delivers:
                s = sends[d.mid]
                assert d.t >= s.t
                assert d.msg == s.msg and d.src == s.src and d.dst == s.dst and d.size == s.size
                # bit for bit the link's own arrival time
                assert d.t == s.t + sim.nodes[s.src].neighbors[s.dst].delay(s.size)

    def test_log_serialization_roundtrip(self, tmp_path):
        log = run_scenario(_mini())
        path = tmp_path / "events.ndjson"
        log.write(path)
        back = EventLog.read(path)
        assert back.meta == log.meta
        assert back.records == log.records
        assert back.sha256() == log.sha256()


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


class TestLogFormat:
    """Each record line is written byte for byte as json writes the record."""

    @staticmethod
    def _assert_written_as_json(log: EventLog, tmp_path) -> None:
        lines = list(log.lines())
        assert lines[0] == json.dumps({"meta": log.meta}, sort_keys=True, separators=(",", ":"))
        assert lines[1:] == [json.dumps(list(r), separators=(",", ":")) for r in log.records]
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
        finds = [r for r in log.records if r.kind == "block_found" and r.t < 50.0]
        assert finds
        accepts = {}
        for r in log.records:
            if r.kind == "block_accept":
                accepts.setdefault(r.oid, set()).add(r.src)
        for f in finds:
            assert accepts[f.oid] == set(range(8)), f"block {f.oid} did not reach everyone"
        # adverts flooded at t=0 reach all other nodes
        advert_delivery = {}
        for r in log.records:
            if r.kind == "deliver" and r.msg == "advert":
                advert_delivery.setdefault(r.oid, set()).add(r.dst)
        t0_adverts = {r.oid for r in log.records if r.kind == "send" and r.msg == "advert" and r.t == 0.0}
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
        blocks = {r.oid for r in log.records if r.kind == "block_found"}
        tips = {}
        accepts = {}
        for r in log.records:
            if r.kind == "tip_adopt":
                tips[r.src] = r.oid
            elif r.kind == "block_accept":
                accepts.setdefault(r.src, set()).add(r.oid)
        assert len(set(tips.values())) == 1  # quiescent network agrees on the tip
        for node_accepts in accepts.values():
            assert node_accepts <= blocks  # never accept a block nobody found


class _CountingSim(_Sim):
    """The simulator as shipped, counting its pending-seed tries."""

    def __init__(self, sc: Scenario) -> None:
        super().__init__(sc)
        self.tries = 0

    def _try_seed(self, node, pend, pull):
        self.tries += 1
        super()._try_seed(node, pend, pull)


class _FullScanSim(_CountingSim):
    """Reference, the rule that ignores what a parked entry lacked: an advert
    retries every parked seed under its key, pulling from the seed's sender;
    an accepted block retries every entry that is its child; a new
    transaction retries every parked entry."""

    def __init__(self, sc: Scenario) -> None:
        super().__init__(sc)
        self.tx_tries = 0
        self.tx_advances = 0  # tx-triggered tries that resolved their seed

    def _wake(self, node, arrived, pull=False):
        parked = list(node.pending.items())
        is_tx = False
        if pull:  # an advert key
            parked = [(h, p) for h, p in parked if (p.msg.coinbase_address, p.msg.header.prev_block_hash) == arrived]
        elif node.proto.chain.knows(arrived):  # an accepted block
            parked = [(h, p) for h, p in parked if p.msg.header.prev_block_hash == arrived]
        else:
            is_tx = True
        for h, pend in parked:
            if node.pending.get(h) is not pend:
                continue  # resolved or evicted by an earlier try of this scan
            self._try_seed(node, pend, pull)
            if is_tx:
                self.tx_tries += 1
                self.tx_advances += h not in node.pending


class TestPendingSeedRetryOracle:
    """Retrying a parked entry only when what its last try lacked arrives changes no log line."""

    @pytest.mark.parametrize(
        "strategy, bandwidth, delay, txs_unblock",
        [
            # on fast links a transaction always lands before a seed naming
            # it: ADVERT's tx-triggered retries all find the seed unchanged
            # (LATE makes none there)
            ("ADVERT_PROTOCOL", 1_000_000.0, 0.0, False),
            # on thin links the 300 B seed outruns the 500 B transactions it names
            ("ADVERT_PROTOCOL", 2_000.0, 0.0, True),
            ("LATE_ADVERT", 2_000.0, 0.0, True),
            # full blocks park only on their parent; no transaction unblocks one
            ("BASELINE_FULL_BLOCK", 2_000.0, 0.0, False),
            # post-find pulls reach the critical path; every transaction
            # still lands before the seed naming it
            ("ADVERT_PROTOCOL", 20_000.0, 0.01, False),
        ],
        ids=["ADVERT-fast-links", "ADVERT-thin-links", "LATE-thin-links", "BASELINE-thin-links", "ADVERT-delay"],
    )
    def test_filtered_retries_match_full_scan(self, strategy, bandwidth, delay, txs_unblock):
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
        accepts = collections.Counter((r.src, r.oid) for r in log.records if r.kind == "block_accept")
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
        arrivals = sum(r.kind == "tx_arrival" for r in log.records)
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
            chain = node.proto.chain
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
        assert sum(r.kind == "tx_arrival" for r in log.records) == 5
        assert sim.faucet_next == sim.n_faucet
        # the meta line still reports the cap the scenario sizes
        assert log.meta["faucet_outputs"] == 40 + int(2.0 * 25.0 * 3) + 64


class TestWarmPoolFilledOnce:
    def test_each_pool_lists_the_warm_txs_in_arrival_order(self):
        sim = _Sim(_mini(initial_mempool_txs=50))
        order = [(_faucet_id(i), 0) for i in range(50)]
        for node in sim.nodes:
            pool = node.proto.mempool
            assert [tx.inputs[0] for tx in pool.txs.values()] == order
            assert list(pool.spent_outpoints) == order
            assert list(pool.spent_outpoints.values()) == list(pool.txs)
            assert list(node.tx_store) == list(pool.txs)
            assert set(node.proto.chain.utxo) == set(order)

    def test_pools_are_independent(self):
        sim = _Sim(_mini(initial_mempool_txs=50))
        first, second = sim.nodes[0], sim.nodes[1]
        pool = second.proto.mempool
        before = (list(pool.txs.items()), list(pool.spent_outpoints.items()), list(second.tx_store.items()))
        extra = sim._generated_tx(sim._next_faucet(), random.Random(0))
        assert first.proto.mempool.add(extra, first.proto.chain.utxo)
        first.tx_store[txid(extra)] = extra
        first.proto.mempool.remove(next(iter(first.proto.mempool.txs)))
        assert len(first.proto.mempool) == 50 and len(first.tx_store) == 51
        assert (list(pool.txs.items()), list(pool.spent_outpoints.items()), list(second.tx_store.items())) == before


    def test_each_warm_tx_is_serialized_once(self, monkeypatch):
        # its size floor and its id are computed from the same bytes
        import advertsim.core as core

        calls = []
        real = core.serialize

        def counting(obj):
            if type(obj) is Transaction:
                calls.append(obj)
            return real(obj)

        monkeypatch.setattr(core, "serialize", counting)
        sim = _Sim(_mini(initial_mempool_txs=50))
        assert len(calls) == 50
        assert [txid(tx) for tx in calls] == list(sim.nodes[0].proto.mempool.txs)


class TestTemplateBuiltAtFind:
    @pytest.mark.parametrize("strategy", ["BASELINE_FULL_BLOCK", "ADVERT_PROTOCOL", "LATE_ADVERT"])
    def test_header_timestamp_is_the_second_the_list_was_chosen(self, strategy):
        sim = _Sim(_forky_cold(horizon_seconds=10.0, relay_strategy=strategy))
        log = sim.run()
        headers = {h.short(): rec[0].header for h, rec in sim.nodes[0].proto.chain.checked.items()}
        started = {}  # a session starts at t = 0 and at each tip change
        crossed = 0
        for r in log.records:
            if r.kind == "tip_adopt":
                started[r.src] = r.t
            elif r.kind == "block_found":
                # LATE chooses its list at the find, the others when the session starts
                chosen = r.t if strategy == "LATE_ADVERT" else started.get(r.src, 0.0)
                assert headers[r.oid].timestamp == int(chosen)
                crossed += int(started.get(r.src, 0.0)) != int(r.t)
        assert crossed > 0  # some sessions span a second boundary


class _IndexCheckingSim(_Sim):
    """The simulator as shipped, checking its wake index after every try."""

    def __init__(self, sc: Scenario) -> None:
        super().__init__(sc)
        self.checks = 0
        self.evictions = 0

    @staticmethod
    def index_holds(node) -> bool:
        return node.waiting == collections.Counter(x for p in node.pending.values() for x in p.needs)

    def _handle_relayed_block(self, node, msg, sent):
        self.evictions += len(node.pending) >= self.sc.pending_seed_buffer
        super()._handle_relayed_block(node, msg, sent)

    def _try_seed(self, node, pend, pull):
        super()._try_seed(node, pend, pull)
        assert self.index_holds(node)
        self.checks += 1


class TestWakeIndex:
    """``node.waiting`` counts, per item, the parked entries whose needs hold it."""

    @pytest.mark.parametrize(
        "strategy, buffer",
        [("BASELINE_FULL_BLOCK", 32), ("ADVERT_PROTOCOL", 32), ("LATE_ADVERT", 32), ("ADVERT_PROTOCOL", 2)],
    )
    def test_index_equals_the_parked_needs(self, strategy, buffer):
        sim = _IndexCheckingSim(_forky_cold(horizon_seconds=10.0, relay_strategy=strategy, pending_seed_buffer=buffer))
        sim.run()
        assert sim.checks > 0
        assert all(sim.index_holds(node) for node in sim.nodes)
        if buffer == 2:
            assert sim.evictions > 0
        if strategy == "ADVERT_PROTOCOL":
            assert any(node.waiting for node in sim.nodes)  # stranded seeds still wait
