"""Advert lifecycle, reconstruction, the validation ladder, and chain growth."""

import dataclasses
import random
from types import SimpleNamespace

import pytest

from advertsim.core import (
    Address,
    Block,
    BlockHeader,
    CoinbaseTransaction,
    CompactTarget,
    HEADER_WIRE_BYTES,
    Hash,
    Transaction,
    block_hash,
    merkle_root,
    serialize,
    serialized_size,
    txid,
)
from advertsim.mining import BlockTemplate, check_pow, mine
from advertsim.protocol import (
    Advert,
    AdvertRegistry,
    BlockSeed,
    ChainState,
    Mempool,
    Reason,
    SelectionPolicy,
    make_advert,
    make_block_seed,
    missing_txs,
    on_block_accepted,
    reconstruct_block,
    validate_block,
    validate_block_baseline,
)

from conftest import MINE_BUDGET, advertised_block, funded_tx, rand_address, rand_hash


class TestMakeAdvert:
    def test_empty_mempool_gives_empty_list(self):
        rng = random.Random(1)
        advert = make_advert(rand_address(rng), rand_hash(rng), Mempool())
        assert advert.tx_hashes == ()

    def test_greedy_fill_stops_at_cap(self):
        rng = random.Random(2)
        utxo = {}
        pool = Mempool()
        for _ in range(3000):
            tx = funded_tx(rng, utxo, size=500)
            pool.insert_unchecked(tx)
        advert = make_advert(
            rand_address(rng),
            rand_hash(rng),
            pool,
            SelectionPolicy(max_block_size_bytes=1_000_000, coinbase_size_bytes=200),
        )
        # 80 + 200 + 500 n <= 1_000_000  =>  n = 1999
        assert len(advert.tx_hashes) == 1999
        assert advert.tx_hashes == tuple(list(pool.txs)[:1999])

    def test_conflicting_pool_txs_first_arrival_selected(self):
        rng = random.Random(3)
        op = (rand_hash(rng), 0)
        first = Transaction(inputs=(op,), outputs=((rand_address(rng), 5),))
        second = Transaction(inputs=(op,), outputs=((rand_address(rng), 6),))
        pool = Mempool()
        pool.insert_unchecked(first)
        pool.insert_unchecked(second)
        advert = make_advert(rand_address(rng), rand_hash(rng), pool)
        assert advert.tx_hashes == (txid(first),)

    def test_pool_built_advert_equals_the_checked_constructor(self):
        # make_advert skips Advert's per-hash checks for pool keys; it must
        # still give the advert the public constructor builds
        rng = random.Random(10)
        utxo = {}
        pool = Mempool()
        for _ in range(50):
            pool.insert_unchecked(funded_tx(rng, utxo, size=500))
        address, tip = rand_address(rng), rand_hash(rng)
        for cap, n in ((1_000_000, 50), (80 + 200 + 500 * 7, 7), (80 + 200, 0)):
            policy = SelectionPolicy(max_block_size_bytes=cap, coinbase_size_bytes=200)
            advert = make_advert(bytes(address), bytes(tip), pool, policy)
            listed = tuple(bytes(h) for h in list(pool.txs)[:n])
            expected = Advert(coinbase_address=bytes(address), tx_hashes=listed, prev_block_hash=bytes(tip))
            assert advert == expected and hash(advert) == hash(expected)
            assert type(advert.coinbase_address) is Address and type(advert.prev_block_hash) is Hash
            assert type(advert.tx_hashes) is tuple and all(type(h) is Hash for h in advert.tx_hashes)
            # one key per advert, built with it: every registry and ledger shares it
            assert advert.key() == expected.key() == (address, tip)
            assert advert.key() is advert.key() and expected.key() is expected.key()
            assert type(advert.key()[0]) is Address and type(advert.key()[1]) is Hash

    def test_selection_matches_the_full_scan_reference(self):
        # the reference scans the whole prefix; make_advert stops once the
        # room left is below the pool's min_size, which must stay a lower
        # bound on every size in any prefix through removals and copy()
        def reference(pool, policy, limit):
            room = policy.max_block_size_bytes - HEADER_WIRE_BYTES - policy.coinbase_size_bytes
            chosen, spent = [], set()
            for h, tx in list(pool.txs.items())[:limit]:
                if tx.nominal_size_bytes <= room and not spent & set(tx.inputs):
                    chosen.append(h)
                    spent.update(tx.inputs)
                    room -= tx.nominal_size_bytes
            return tuple(chosen)

        rng = random.Random(41)
        ops = [(rand_hash(rng), 0) for _ in range(60)]
        utxo = {op: (rand_address(rng), 10) for op in ops}
        universe = []
        for _ in range(120):
            inputs = tuple(rng.sample(ops, rng.randint(1, 2)))  # shared outpoints: conflicts
            outputs = ((rand_address(rng), 10),)
            floor = len(serialize(Transaction(inputs=inputs, outputs=outputs)))
            size = floor + rng.choice((0, 0, 7, 40, 150, 400))
            universe.append(Transaction(inputs=inputs, outputs=outputs, nominal_size_bytes=size))
        address, tip = rand_address(rng), rand_hash(rng)
        for _ in range(3000):
            pool = Mempool()
            for _ in range(rng.randint(0, 40)):
                step = rng.random()
                if step < 0.45:
                    pool.insert_unchecked(rng.choice(universe))  # conflicting entries included
                elif step < 0.7:
                    pool.add(rng.choice(universe), utxo)
                elif step < 0.85 and pool.txs:
                    pool.remove(rng.choice(list(pool.txs)))
                else:
                    pool = pool.copy()
            total = sum(tx.nominal_size_bytes for tx in pool.txs.values())
            coinbase = rng.choice((0, 200))
            cap = HEADER_WIRE_BYTES + coinbase + rng.randint(0, total)
            policy = SelectionPolicy(max_block_size_bytes=cap, coinbase_size_bytes=coinbase)
            limit = rng.choice((None, rng.randint(0, len(pool.txs))))
            assert make_advert(address, tip, pool, policy, limit).tx_hashes == reference(pool, policy, limit)

    def test_advert_rejects_duplicates(self):
        rng = random.Random(4)
        h = rand_hash(rng)
        with pytest.raises(ValueError):
            Advert(coinbase_address=rand_address(rng), tx_hashes=(h, h), prev_block_hash=rand_hash(rng))


class TestRegistry:
    def test_fresh_pair_registers(self):
        rng = random.Random(5)
        reg = AdvertRegistry()
        advert = make_advert(rand_address(rng), rand_hash(rng), Mempool())
        assert reg.register(advert) is True

    def test_second_advert_for_same_pair_rejected_first_retained(self):
        rng = random.Random(6)
        addr, tip = rand_address(rng), rand_hash(rng)
        first = Advert(coinbase_address=addr, tx_hashes=(rand_hash(rng),), prev_block_hash=tip)
        second = Advert(coinbase_address=addr, tx_hashes=(rand_hash(rng),), prev_block_hash=tip)
        reg = AdvertRegistry()
        assert reg.register(first) is True
        assert reg.register(second) is False
        assert reg.lookup(addr, tip) is first

    def test_same_address_different_tip_both_register(self):
        rng = random.Random(7)
        addr = rand_address(rng)
        a1 = Advert(coinbase_address=addr, tx_hashes=(), prev_block_hash=rand_hash(rng))
        a2 = Advert(coinbase_address=addr, tx_hashes=(), prev_block_hash=rand_hash(rng))
        reg = AdvertRegistry()
        assert reg.register(a1) is True
        assert reg.register(a2) is True
        assert len(reg.entries) == 2

    def test_randomized_first_arrival_wins(self):
        rng = random.Random(8)
        for _ in range(50):
            reg = AdvertRegistry()
            expected = {}
            for _ in range(200):
                addr = Address(bytes([rng.randrange(4)]) * 20)
                tip = Hash(bytes([rng.randrange(4)]) * 32)
                advert = Advert(
                    coinbase_address=addr,
                    tx_hashes=(rand_hash(rng),),
                    prev_block_hash=tip,
                )
                reg.register(advert)
                expected.setdefault((addr, tip), advert)
            assert reg.entries == expected

    def test_eviction_drops_entries_two_or_more_behind(self):
        rng = random.Random(9)
        reg = AdvertRegistry()
        heights = {rand_hash(rng): h for h in range(5)}
        adverts = {}
        for h, tip in zip(range(5), heights):
            advert = Advert(coinbase_address=rand_address(rng), tx_hashes=(), prev_block_hash=tip)
            reg.register(advert)
            adverts[h] = advert
        unknown = Advert(coinbase_address=rand_address(rng), tx_hashes=(), prev_block_hash=rand_hash(rng))
        reg.register(unknown)
        evicted = reg.evict_stale(heights, tip_height=4)
        assert evicted == 3  # heights 0..2 dropped, 3 and 4 kept
        kept = set(reg.entries.values())
        assert adverts[3] in kept and adverts[4] in kept and unknown in kept


class TestMissingTxs:
    def test_all_present(self):
        rng = random.Random(10)
        bundle = advertised_block(rng, bits=0)
        assert bundle.advert.tx_hashes
        assert missing_txs(bundle.advert, bundle.mempool.txs) == []

    def test_none_present(self):
        rng = random.Random(11)
        bundle = advertised_block(rng, bits=0)
        assert missing_txs(bundle.advert, {}) == list(bundle.advert.tx_hashes)

    def test_order_preserving_difference(self):
        rng = random.Random(12)
        utxo = {}
        a, b, c = (funded_tx(rng, utxo) for _ in range(3))
        advert = Advert(
            coinbase_address=rand_address(rng),
            tx_hashes=(txid(a), txid(b), txid(c)),
            prev_block_hash=rand_hash(rng),
        )
        pool = Mempool()
        pool.insert_unchecked(b)
        assert missing_txs(advert, pool.txs) == [txid(a), txid(c)]


class TestBlockSeed:
    def test_projection(self):
        rng = random.Random(13)
        bundle = advertised_block(rng, bits=0)
        seed = make_block_seed(bundle.block)
        assert seed.header == bundle.block.header
        assert seed.coinbase == bundle.block.coinbase
        assert seed.coinbase_address == bundle.block.coinbase.coinbase_address

    def test_seed_size(self):
        rng = random.Random(14)
        bundle = advertised_block(rng, bits=0)
        assert serialized_size(make_block_seed(bundle.block)) == 300

    def test_holds_only_coinbase_and_header(self):
        # the address is read from the coinbase, so a seed cannot disagree with it
        rng = random.Random(16)
        block = advertised_block(rng, bits=0).block
        assert [f.name for f in dataclasses.fields(BlockSeed)] == ["coinbase", "header"]
        assert make_block_seed(block).coinbase_address == block.coinbase.coinbase_address

    def test_blocks_differing_in_one_tx_give_seeds_differing_only_in_merkle(self):
        rng = random.Random(15)
        utxo = {}
        txs = [funded_tx(rng, utxo) for _ in range(3)]
        alt = funded_tx(rng, utxo)
        addr = rand_address(rng)
        prev = rand_hash(rng)
        cb = CoinbaseTransaction(coinbase_address=addr, reward=50)

        def block_for(tx_list):
            t = BlockTemplate(
                prev_block_hash=prev,
                coinbase=cb,
                transactions=tuple(tx_list),
                difficulty_target=CompactTarget(0),
                base_timestamp=0,
            )
            return mine(t, MINE_BUDGET)

        s1 = make_block_seed(block_for(txs))
        s2 = make_block_seed(block_for(txs[:2] + [alt]))
        assert s1.coinbase == s2.coinbase
        assert s1.header.merkle_root != s2.header.merkle_root
        assert (
            s1.header.prev_block_hash == s2.header.prev_block_hash
            and s1.header.nonce == s2.header.nonce
            and s1.header.timestamp == s2.header.timestamp
        )


class TestReconstruction:
    def test_roundtrip_reproduces_block_exactly(self):
        rng = random.Random(17)
        bundle = advertised_block(rng, bits=4)
        seed = make_block_seed(bundle.block)
        rec = reconstruct_block(seed, bundle.registry, bundle.mempool.txs)
        assert rec.ok
        assert rec.block == bundle.block

    def test_unadvertised_seed_fails(self):
        rng = random.Random(18)
        bundle = advertised_block(rng, bits=0)
        rec = reconstruct_block(make_block_seed(bundle.block), AdvertRegistry(), bundle.mempool.txs)
        assert not rec.ok
        assert rec.reason is Reason.NO_MATCHING_ADVERT

    def test_missing_tx_reported_by_hash(self):
        rng = random.Random(19)
        bundle = advertised_block(rng, bits=0, ntx=3)
        victim = bundle.advert.tx_hashes[1]
        bundle.mempool.remove(victim)
        rec = reconstruct_block(make_block_seed(bundle.block), bundle.registry, bundle.mempool.txs)
        assert not rec.ok
        assert rec.reason is Reason.MISSING_TXS
        assert rec.missing == (victim,)


def _remined(block, registry_bits=None, merkle=None, txs=None, nonce=None):
    """Rebuild a header for mutated content, searching a nonce that passes."""
    txs = block.transactions if txs is None else txs
    root = merkle if merkle is not None else merkle_root([txid(block.coinbase)] + [txid(t) for t in txs])
    n = 0
    while True:
        hdr = BlockHeader(
            version=block.header.version,
            prev_block_hash=block.header.prev_block_hash,
            merkle_root=root,
            timestamp=block.header.timestamp,
            difficulty_target=block.header.difficulty_target,
            nonce=n,
        )
        if check_pow(hdr):
            return Block(header=hdr, coinbase=block.coinbase, transactions=txs)
        n += 1


class TestValidationLadder:
    def test_accepted_holds_exactly_for_ok(self):
        for reason in Reason:
            assert reason.accepted is (reason is Reason.OK)

    def test_validators_return_reason_members(self):
        rng = random.Random(20)
        bundle = advertised_block(rng, bits=4)
        assert validate_block(bundle.block, bundle.registry, bundle.chain) is Reason.OK
        assert validate_block_baseline(bundle.block, bundle.chain) is Reason.OK
        assert validate_block(bundle.block, AdvertRegistry(), bundle.chain) is Reason.NO_MATCHING_ADVERT

    def test_honest_block_is_ok(self):
        rng = random.Random(20)
        bundle = advertised_block(rng, bits=4)
        verdict = validate_block(bundle.block, bundle.registry, bundle.chain)
        assert verdict.accepted and verdict is Reason.OK

    def test_appended_unadvertised_tx_is_list_mismatch(self):
        rng = random.Random(21)
        bundle = advertised_block(rng, bits=4)
        extra = funded_tx(rng, bundle.chain.utxo)
        tampered = _remined(bundle.block, txs=bundle.block.transactions + (extra,))
        verdict = validate_block(tampered, bundle.registry, bundle.chain)
        assert verdict is Reason.TX_LIST_MISMATCH

    def test_flipped_coinbase_address_loses_its_advert(self):
        rng = random.Random(22)
        bundle = advertised_block(rng, bits=4)
        cb = CoinbaseTransaction(coinbase_address=rand_address(rng), reward=50)
        forged = Block(header=bundle.block.header, coinbase=cb, transactions=bundle.block.transactions)
        assert validate_block(forged, bundle.registry, bundle.chain) is Reason.NO_MATCHING_ADVERT

    def test_corrupted_registry_entry_is_coinbase_mismatch(self):
        rng = random.Random(23)
        bundle = advertised_block(rng, bits=4)
        key = (bundle.address, bundle.genesis)
        other = Advert(
            coinbase_address=rand_address(rng),
            tx_hashes=bundle.advert.tx_hashes,
            prev_block_hash=bundle.genesis,
        )
        bundle.registry.entries[key] = other  # bypasses register() on purpose
        assert validate_block(bundle.block, bundle.registry, bundle.chain) is Reason.COINBASE_MISMATCH

    def test_advertised_but_unknown_parent_is_wrong_prev_hash(self):
        rng = random.Random(24)
        bundle = advertised_block(rng, bits=4)
        phantom = rand_hash(rng)
        advert2 = Advert(
            coinbase_address=bundle.address,
            tx_hashes=bundle.advert.tx_hashes,
            prev_block_hash=phantom,
        )
        bundle.registry.register(advert2)
        t = BlockTemplate(
            prev_block_hash=phantom,
            coinbase=bundle.block.coinbase,
            transactions=bundle.block.transactions,
            difficulty_target=CompactTarget(4),
        )
        orphan = mine(t, MINE_BUDGET)
        assert validate_block(orphan, bundle.registry, bundle.chain) is Reason.WRONG_PREV_HASH

    def test_broken_pow_detected(self):
        rng = random.Random(25)
        bundle = advertised_block(rng, bits=8)
        n = bundle.block.header.nonce + 1
        while True:
            hdr = BlockHeader(
                version=bundle.block.header.version,
                prev_block_hash=bundle.block.header.prev_block_hash,
                merkle_root=bundle.block.header.merkle_root,
                timestamp=bundle.block.header.timestamp,
                difficulty_target=bundle.block.header.difficulty_target,
                nonce=n,
            )
            if not check_pow(hdr):
                break
            n += 1
        broken = Block(header=hdr, coinbase=bundle.block.coinbase, transactions=bundle.block.transactions)
        assert validate_block(broken, bundle.registry, bundle.chain) is Reason.POW_FAIL

    def test_corrupted_merkle_root_detected_after_remine(self):
        rng = random.Random(26)
        bundle = advertised_block(rng, bits=4)
        bad_root = Hash(bytes([bundle.block.header.merkle_root[0] ^ 1]) + bundle.block.header.merkle_root[1:])
        tampered = _remined(bundle.block, merkle=bad_root)
        assert validate_block(tampered, bundle.registry, bundle.chain) is Reason.MERKLE_MISMATCH

    @pytest.mark.parametrize("fault", ["unfunded-input", "double-spend", "input-listed-twice", "overspend"])
    def test_invalid_tx_is_rejected_and_not_recorded(self, fault):
        """Every way a transaction fails against the parent's UTXO view is
        INVALID_TX under both rules, and the failed content is not recorded."""
        rng = random.Random(27)
        genesis = rand_hash(rng)
        utxo = {}
        addr = rand_address(rng)
        op = (rand_hash(rng), 0)
        utxo[op] = (rand_address(rng), 100)
        if fault == "unfunded-input":
            good = funded_tx(rng, utxo)
            bogus = Transaction(inputs=((rand_hash(rng), 0),), outputs=((rand_address(rng), 5),))
            pool = Mempool()
            pool.insert_unchecked(good)
            pool.insert_unchecked(bogus)
            advert = make_advert(addr, genesis, pool)
            assert set(advert.tx_hashes) == {txid(good), txid(bogus)}
            txs = tuple(pool.txs[h] for h in advert.tx_hashes)
        else:
            if fault == "double-spend":  # two transactions, each funded on its own
                txs = (
                    Transaction(inputs=(op,), outputs=((rand_address(rng), 50),)),
                    Transaction(inputs=(op,), outputs=((rand_address(rng), 60),)),
                )
            elif fault == "input-listed-twice":  # pays out no more than one copy holds
                txs = (Transaction(inputs=(op, op), outputs=((rand_address(rng), 100),)),)
            else:
                txs = (Transaction(inputs=(op,), outputs=((rand_address(rng), 101),)),)
            advert = Advert(coinbase_address=addr, tx_hashes=tuple(txid(t) for t in txs), prev_block_hash=genesis)
        chain = ChainState(genesis, utxo)
        reg = AdvertRegistry()
        reg.register(advert)
        template = BlockTemplate(
            prev_block_hash=genesis,
            coinbase=CoinbaseTransaction(coinbase_address=addr, reward=50),
            transactions=txs,
            difficulty_target=CompactTarget(4),
        )
        block = mine(template, MINE_BUDGET)
        assert validate_block(block, reg, chain) is Reason.INVALID_TX
        assert validate_block_baseline(block, chain) is Reason.INVALID_TX
        assert chain.checked == {}

    def test_baseline_rule_ignores_adverts(self):
        rng = random.Random(29)
        bundle = advertised_block(rng, bits=4)
        verdict = validate_block_baseline(bundle.block, bundle.chain)
        assert verdict.accepted
        # but the advert rule rejects a block nobody announced
        assert validate_block(bundle.block, AdvertRegistry(), bundle.chain) is Reason.NO_MATCHING_ADVERT


class TestSharedContentRecord:
    """Chains of one network share the record of blocks whose content passed
    the Merkle and validity checks; only a block equal in header and leaves
    to a recorded one skips them."""

    @staticmethod
    def _network(bundle):
        # the bundle's chain holds no block yet, so its UTXO set is the genesis one
        checked: dict = {}
        a = ChainState(bundle.genesis, bundle.chain.utxo, checked)
        b = ChainState(bundle.genesis, bundle.chain.utxo, checked)
        return checked, a, b

    def test_second_node_skips_merkle_and_validity(self, monkeypatch):
        import advertsim.protocol as protocol

        rng = random.Random(40)
        bundle = advertised_block(rng, bits=4, ntx=5)
        checked, a, b = self._network(bundle)
        calls = []
        merkle, valid = protocol.merkle_root, protocol._block_delta
        monkeypatch.setattr(protocol, "merkle_root", lambda leaves: calls.append("merkle") or merkle(leaves))
        monkeypatch.setattr(protocol, "_block_delta", lambda blk, ch: calls.append("valid") or valid(blk, ch))
        assert validate_block(bundle.block, bundle.registry, a).accepted
        assert list(checked) == [block_hash(bundle.block)]
        assert validate_block_baseline(bundle.block, b).accepted
        assert validate_block(bundle.block, bundle.registry, b).accepted
        assert calls == ["merkle", "valid"]

    def test_same_header_other_transactions_still_rejected(self):
        rng = random.Random(41)
        bundle = advertised_block(rng, bits=4, ntx=5)
        checked, a, b = self._network(bundle)
        assert validate_block(bundle.block, bundle.registry, a).accepted
        block = bundle.block
        reordered = (block.transactions[1], block.transactions[0]) + block.transactions[2:]
        substituted = block.transactions[:-1] + (funded_tx(rng, {}),)
        for txs in (reordered, substituted, block.transactions[:-1]):
            forged = Block(header=block.header, coinbase=block.coinbase, transactions=txs)
            # at the other node, under the honest advert
            assert validate_block(forged, bundle.registry, b) is Reason.TX_LIST_MISMATCH
            # under a conflicting advert registered at the other node first
            registry = AdvertRegistry()
            registry.register(
                Advert(coinbase_address=bundle.address, tx_hashes=tuple(txid(t) for t in txs),
                       prev_block_hash=bundle.genesis)
            )
            assert validate_block(forged, registry, b) is Reason.MERKLE_MISMATCH
            assert validate_block_baseline(forged, b) is Reason.MERKLE_MISMATCH
        assert list(checked) == [block_hash(block)]
        assert validate_block(block, bundle.registry, b).accepted

    def test_other_genesis_utxo_does_not_share_the_record(self):
        rng = random.Random(42)
        bundle = advertised_block(rng, bits=4, ntx=3)
        checked, a, _ = self._network(bundle)
        assert validate_block(bundle.block, bundle.registry, a).accepted
        assert block_hash(bundle.block) in checked
        spent = dict(bundle.chain.utxo)
        del spent[bundle.block.transactions[0].inputs[0]]
        other = ChainState(bundle.genesis, spent)
        assert validate_block(bundle.block, bundle.registry, other) is Reason.INVALID_TX
        assert validate_block_baseline(bundle.block, other) is Reason.INVALID_TX
        assert other.checked == {}

    def test_rejected_content_is_not_recorded(self):
        rng = random.Random(43)
        bundle = advertised_block(rng, bits=4, ntx=3)
        chain = ChainState(bundle.genesis, {})
        for _ in range(2):
            assert validate_block_baseline(bundle.block, chain) is Reason.INVALID_TX
        assert chain.checked == {}

    def test_delta_computed_once_per_network(self, monkeypatch):
        import advertsim.protocol as protocol

        rng = random.Random(44)
        bundle = advertised_block(rng, bits=4, ntx=5)
        checked, a, b = self._network(bundle)
        calls = []
        delta = protocol._block_delta
        monkeypatch.setattr(protocol, "_block_delta", lambda blk, chain: calls.append(blk) or delta(blk, chain))
        for chain in (a, b):
            assert validate_block(bundle.block, bundle.registry, chain).accepted
            assert chain.add_block(bundle.block).kind == "extended"
        assert len(calls) == 1
        h = block_hash(bundle.block)
        assert a.checked is b.checked is checked and checked[h][0] is bundle.block
        # a block absent from the record (a miner's own) is checked and recorded at the add
        lone = ChainState(bundle.genesis, bundle.chain.utxo)
        assert lone.add_block(bundle.block).kind == "extended"
        assert len(calls) == 2
        assert h in lone.checked
        assert lone.utxo == a.utxo == b.utxo

    @pytest.mark.parametrize("fault", ["unfunded-tx", "corrupt-merkle"])
    def test_add_block_refuses_content_that_fails_its_checks(self, fault):
        rng = random.Random(45)
        bundle = advertised_block(rng, bits=4, ntx=3)
        chain = bundle.chain
        assert chain.add_block(bundle.block).kind == "extended"
        block = bundle.block
        if fault == "unfunded-tx":
            bogus = Transaction(inputs=((rand_hash(rng), 0),), outputs=((rand_address(rng), 5),))
            tampered, reason = _remined(block, txs=block.transactions + (bogus,)), Reason.INVALID_TX
        else:
            bad_root = Hash(bytes([block.header.merkle_root[0] ^ 1]) + block.header.merkle_root[1:])
            tampered, reason = _remined(block, merkle=bad_root), Reason.MERKLE_MISMATCH
        before = (dict(chain.heights), chain.tip_hash, chain.height, dict(chain.utxo), dict(chain.checked))
        with pytest.raises(ValueError, match=reason.value):
            chain.add_block(tampered)
        assert (chain.heights, chain.tip_hash, chain.height, chain.utxo, chain.checked) == before
        assert not chain.knows(block_hash(tampered))


class TestUtxoReplayOracle:
    """Chains that share one content record hold, after every add, the UTXO
    set that replaying the tip's ancestry from genesis gives, and view every
    known block as its own replay does, whatever order the blocks arrive in."""

    @classmethod
    def _tree(cls, rng: random.Random, size: int):
        """A random block tree over ``size`` blocks, each spending faucet outputs
        and outputs its own branch created; returns (genesis, faucet, blocks)."""
        genesis = rand_hash(rng)
        faucet = {(rand_hash(rng), 0): (rand_address(rng), rng.randrange(10, 1000)) for _ in range(8)}
        blocks: dict = {}
        for _ in range(size):
            parent = rng.choice([genesis, *blocks])
            unspent = sorted(cls._replay(genesis, faucet, blocks, parent).items())
            rng.shuffle(unspent)
            txs = []
            while unspent and rng.random() < 0.7:
                spent = [unspent.pop() for _ in range(min(len(unspent), rng.randint(1, 2)))]
                total = sum(entry[1] for _, entry in spent)
                cut = rng.randint(0, total)
                outputs = ((rand_address(rng), cut), (rand_address(rng), total - cut))
                txs.append(Transaction(inputs=tuple(op for op, _ in spent), outputs=outputs[: rng.randint(1, 2)]))
            block = mine(
                BlockTemplate(
                    prev_block_hash=parent,
                    coinbase=CoinbaseTransaction(coinbase_address=rand_address(rng), reward=50),
                    transactions=tuple(txs),
                    difficulty_target=CompactTarget(0),
                ),
                MINE_BUDGET,
            )
            blocks[block_hash(block)] = block
        return genesis, faucet, blocks

    @staticmethod
    def _replay(genesis, faucet, blocks, h) -> dict:
        """The UTXO set at ``h``: the faucet, then each ancestor's spends and outputs."""
        path = []
        while h != genesis:
            path.append(blocks[h])
            h = blocks[h].header.prev_block_hash
        utxo = dict(faucet)
        for block in reversed(path):
            for tx in block.transactions:
                for op in tx.inputs:
                    del utxo[op]
            cb = block.coinbase
            utxo[(txid(cb), 0)] = (cb.coinbase_address, cb.reward)
            for tx in block.transactions:
                for i, out in enumerate(tx.outputs):
                    utxo[(txid(tx), i)] = out
        return utxo

    @staticmethod
    def _arrival_order(rng: random.Random, genesis, blocks) -> list:
        """A random order in which every block comes after its parent."""
        order, ready = [], [h for h, blk in blocks.items() if blk.header.prev_block_hash == genesis]
        while ready:
            h = ready.pop(rng.randrange(len(ready)))
            order.append(h)
            ready.extend(c for c, blk in blocks.items() if blk.header.prev_block_hash == h)
        return order

    def _feed(self, rng: random.Random) -> int:
        """Feed one random tree to two chains in two orders, checking every add;
        returns the number of reorgs."""
        genesis, faucet, blocks = self._tree(rng, rng.randint(4, 12))
        touched = set(faucet)
        for h in blocks:
            touched |= set(self._replay(genesis, faucet, blocks, h))
        checked: dict = {}
        chains = [ChainState(genesis, faucet, checked) for _ in range(2)]
        orders = [self._arrival_order(rng, genesis, blocks) for _ in chains]
        reorgs = 0
        for step in zip(*orders):  # the chains take turns, so either may validate a block first
            for chain, h in zip(chains, step):
                assert validate_block_baseline(blocks[h], chain).accepted
                reorgs += chain.add_block(blocks[h]).kind == "reorged"
                tip_utxo = self._replay(genesis, faucet, blocks, chain.tip_hash)
                assert chain.utxo == tip_utxo
                for known in chain.heights:
                    view = chain.utxo_view_at(known)
                    expected = self._replay(genesis, faucet, blocks, known)
                    assert all(view.get(op) == expected.get(op) for op in touched)
                    with pytest.raises(TypeError):  # read-only by type
                        view[next(iter(faucet))] = (rand_address(rng), 1)
                assert chain.utxo == tip_utxo  # the off-tip views moved copies, not the tip's set
        assert len(checked) == len(blocks)
        return reorgs

    def test_utxo_matches_replay_under_two_arrival_orders(self):
        reorgs = sum(self._feed(random.Random(f"utxo-oracle/{seed}")) for seed in range(12))
        assert reorgs > 0  # the trees fork, so tips move across branches


class TestOnBlockAccepted:
    @staticmethod
    def _accept(bundle, block):
        return on_block_accepted(bundle.chain, bundle.mempool, bundle.registry, block)

    def test_own_block_yields_immediate_next_advert(self):
        rng = random.Random(30)
        bundle = advertised_block(rng, bits=0, ntx=3)
        leftover = funded_tx(rng, bundle.chain.utxo)
        bundle.mempool.add(leftover, bundle.chain.utxo)
        assert self._accept(bundle, bundle.block).kind == "extended"
        chain = bundle.chain
        assert chain.tip_hash == block_hash(bundle.block)
        assert chain.height == 1
        # the next list is chosen by the caller, over the updated pool
        assert bundle.registry.lookup(bundle.address, chain.tip_hash) is None
        advert = make_advert(bundle.address, chain.tip_hash, bundle.mempool)
        assert advert.prev_block_hash == block_hash(bundle.block)
        assert advert.tx_hashes == (txid(leftover),)

    def test_competitor_block_removes_shared_txs_from_next_advert(self):
        rng = random.Random(31)
        bundle = advertised_block(rng, bits=0, ntx=4)
        shared = bundle.block.transactions[:2]
        competitor_addr = rand_address(rng)
        comp_template = BlockTemplate(
            prev_block_hash=bundle.genesis,
            coinbase=CoinbaseTransaction(coinbase_address=competitor_addr, reward=50),
            transactions=shared,
            difficulty_target=CompactTarget(0),
        )
        competitor = mine(comp_template, MINE_BUDGET)
        assert self._accept(bundle, competitor).kind == "extended"
        advert = make_advert(bundle.address, bundle.chain.tip_hash, bundle.mempool)
        assert advert.prev_block_hash == block_hash(competitor)
        remaining = {txid(t) for t in bundle.block.transactions[2:]}
        assert set(advert.tx_hashes) == remaining

    def test_accepted_block_drops_conflicting_pool_tx(self):
        rng = random.Random(32)
        bundle = advertised_block(rng, bits=0, ntx=2)
        op = bundle.block.transactions[0].inputs[0]
        conflictor = Transaction(inputs=(op,), outputs=((rand_address(rng), 7),))
        bundle.mempool.insert_unchecked(conflictor)
        assert self._accept(bundle, bundle.block).kind == "extended"
        assert txid(conflictor) not in bundle.mempool.txs
        assert len(bundle.mempool.txs) == 0

    def test_reorg_restores_and_revalidates_mempool(self):
        rng = random.Random(33)
        genesis = rand_hash(rng)
        utxo = {}
        tx_a = funded_tx(rng, utxo)
        tx_b = funded_tx(rng, utxo)
        chain = ChainState(genesis, utxo)
        pool = Mempool()
        pool.add(tx_a, chain.utxo)
        pool.add(tx_b, chain.utxo)
        miner_a, miner_b = rand_address(rng), rand_address(rng)

        def mined(prev, addr, txs, extra=0):
            return mine(
                BlockTemplate(
                    prev_block_hash=prev,
                    coinbase=CoinbaseTransaction(coinbase_address=addr, reward=50, extra_nonce=extra),
                    transactions=txs,
                    difficulty_target=CompactTarget(0),
                ),
                MINE_BUDGET,
            )

        block_a = mined(genesis, miner_a, (tx_a,))  # branch A: includes tx_a
        block_b1 = mined(genesis, miner_b, ())  # branch B: empty blocks
        block_b2 = mined(block_hash(block_b1), miner_b, (tx_b,), extra=1)

        registry = AdvertRegistry()
        assert on_block_accepted(chain, pool, registry, block_a).kind == "extended"
        assert chain.tip_hash == block_hash(block_a)
        assert txid(tx_a) not in pool.txs

        outcome = on_block_accepted(chain, pool, registry, block_b1)  # side branch, no adoption yet
        assert outcome.kind == "side" and not outcome.tip_changed
        assert chain.tip_hash == block_hash(block_a)

        outcome = on_block_accepted(chain, pool, registry, block_b2)  # longer branch wins
        assert outcome.kind == "reorged"
        assert outcome.removed == (block_a,) and outcome.added == (block_b1, block_b2)
        assert chain.tip_hash == block_hash(block_b2)
        assert chain.height == 2
        # tx_a came back from the abandoned branch; tx_b was mined on B
        assert txid(tx_a) in pool.txs
        assert txid(tx_b) not in pool.txs
        # full-revalidation oracle: every pooled tx valid, no conflicts
        seen_ops = set()
        for tx in pool.txs.values():
            for op in tx.inputs:
                assert chain.utxo.get(op) is not None
                assert op not in seen_ops
                seen_ops.add(op)

    def test_equal_height_fork_keeps_first_received(self):
        rng = random.Random(34)
        bundle = advertised_block(rng, bits=0, ntx=1)
        rival = mine(
            BlockTemplate(
                prev_block_hash=bundle.genesis,
                coinbase=CoinbaseTransaction(coinbase_address=rand_address(rng), reward=50),
                transactions=(),
                difficulty_target=CompactTarget(0),
            ),
            MINE_BUDGET,
        )
        assert self._accept(bundle, bundle.block).kind == "extended"
        tip = bundle.chain.tip_hash
        assert self._accept(bundle, rival).kind == "side"
        assert bundle.chain.tip_hash == tip  # ties never displace the tip
        assert bundle.chain.knows(block_hash(rival))


class TestMempool:
    def test_add_rejects_conflicts_and_unfunded(self):
        rng = random.Random(35)
        utxo = {}
        tx = funded_tx(rng, utxo)
        pool = Mempool()
        assert pool.add(tx, utxo)
        rival = Transaction(inputs=tx.inputs, outputs=((rand_address(rng), 1),))
        assert not pool.add(rival, utxo)
        stranger = Transaction(inputs=((rand_hash(rng), 0),), outputs=((rand_address(rng), 1),))
        assert not pool.add(stranger, utxo)
        assert len(pool.txs) == 1

    def test_add_rejects_value_inflation(self):
        rng = random.Random(36)
        utxo = {}
        op = (rand_hash(rng), 0)
        utxo[op] = (rand_address(rng), 10)
        greedy = Transaction(inputs=(op,), outputs=((rand_address(rng), 11),))
        assert not Mempool().add(greedy, utxo)

    def test_add_matches_the_reference(self):
        # the reference: new, no input spent in the pool or named twice, every
        # input unspent in the view, and outputs summing to at most the inputs
        def reference(pool, tx, utxo):
            if txid(tx) in pool.txs or any(op in pool.spent_outpoints for op in tx.inputs):
                return False
            if len(set(tx.inputs)) != len(tx.inputs):
                return False
            entries = [utxo.get(op) for op in tx.inputs]
            if None in entries or sum(e[1] for e in entries) < sum(v for _, v in tx.outputs):
                return False
            pool.insert_unchecked(tx)
            return True

        rng = random.Random(40)
        for _ in range(300):
            ops = [(rand_hash(rng), rng.randrange(2)) for _ in range(rng.randint(1, 6))]
            utxo = {op: (rand_address(rng), rng.randint(0, 6)) for op in ops[1:]}  # ops[0] is unfunded
            pool, expected = Mempool(), Mempool()
            for _ in range(rng.randint(1, 8)):
                inputs = tuple(rng.choice(ops) for _ in range(rng.randint(1, 3)))  # repeats included
                outputs = tuple((rand_address(rng), rng.randint(0, 6)) for _ in range(rng.randint(1, 3)))
                tx = Transaction(inputs=inputs, outputs=outputs)
                for t in (tx, tx):  # and again, once it may be pooled
                    assert pool.add(t, utxo) == reference(expected, t, utxo)
            assert list(pool.txs.items()) == list(expected.txs.items())
            assert list(pool.spent_outpoints.items()) == list(expected.spent_outpoints.items())

    @staticmethod
    def _block_admits(tx, utxo) -> bool:
        """Whether a block holding only ``tx`` passes the block check over ``utxo``."""
        genesis = Hash(bytes(32))
        template = BlockTemplate(
            prev_block_hash=genesis,
            coinbase=CoinbaseTransaction(coinbase_address=Address(bytes(20)), reward=50),
            transactions=(tx,),
            difficulty_target=CompactTarget(0),
        )
        reason = validate_block_baseline(mine(template, MINE_BUDGET), ChainState(genesis, utxo))
        assert reason in (Reason.OK, Reason.INVALID_TX)
        return reason.accepted

    def test_pool_admits_exactly_what_a_block_may_spend(self):
        # one spend rule: a transaction enters an empty pool over a UTXO set
        # exactly when a block holding only it may spend from that set
        rng = random.Random(42)
        op = (rand_hash(rng), 0)
        # first the duplicate-input spend: one outpoint counted twice to pay out double
        cases = [(Transaction(inputs=(op, op), outputs=((rand_address(rng), 20),)), {op: (rand_address(rng), 10)})]
        for _ in range(400):
            ops = [(rand_hash(rng), rng.randrange(2)) for _ in range(rng.randint(1, 4))]
            utxo = {op: (rand_address(rng), rng.randint(0, 6)) for op in ops[1:]}  # ops[0] is unfunded
            inputs = tuple(rng.choice(ops) for _ in range(rng.randint(1, 3)))  # repeats included
            outputs = tuple((rand_address(rng), rng.randint(0, 6)) for _ in range(rng.randint(1, 3)))
            cases.append((Transaction(inputs=inputs, outputs=outputs), utxo))
        outcomes = set()
        for tx, utxo in cases:
            admitted = Mempool().add(tx, utxo)
            assert admitted == self._block_admits(tx, utxo)
            outcomes.add((admitted, len(set(tx.inputs)) < len(tx.inputs)))
        assert not Mempool().add(*cases[0])
        assert outcomes == {(True, False), (False, False), (False, True)}

    def test_apply_block_removes_included_and_conflicting(self):
        rng = random.Random(37)
        bundle = advertised_block(rng, bits=0, ntx=3)
        conflictor = Transaction(
            inputs=bundle.block.transactions[0].inputs,
            outputs=((rand_address(rng), 2),),
        )
        bundle.mempool.insert_unchecked(conflictor)
        bundle.mempool.apply_block(bundle.block)
        assert len(bundle.mempool.txs) == 0

    @staticmethod
    def _apply_block_two_pass(pool: Mempool, block) -> None:
        """The reference: drop each included transaction, then look up each of
        its inputs again for a conflicting spender."""
        for tx in block.transactions:
            pool.remove(txid(tx))
            for op in tx.inputs:
                conflictor = pool.spent_outpoints.get(op)
                if conflictor is not None:
                    pool.remove(conflictor)

    def test_apply_block_matches_the_two_pass_reference(self):
        rng = random.Random(38)
        for _ in range(2000):
            ops = [(rand_hash(rng), rng.randrange(2)) for _ in range(rng.randint(1, 8))]

            def tx():
                inputs = tuple(rng.choice(ops) for _ in range(rng.randint(1, 3)))  # repeats included
                return Transaction(inputs=inputs, outputs=((rand_address(rng), rng.randint(1, 9)),))

            pool = Mempool()
            for t in [tx() for _ in range(rng.randint(0, 6))]:
                pool.insert_unchecked(t)  # conflicts within the pool included
            pooled = list(pool.txs.values())
            # included transactions: pooled ones and ones the pool never saw
            included = rng.sample(pooled, rng.randint(0, len(pooled))) + [tx() for _ in range(rng.randint(0, 2))]
            rng.shuffle(included)
            block = SimpleNamespace(transactions=tuple(included))
            expected = pool.copy()
            self._apply_block_two_pass(expected, block)
            pool.apply_block(block)
            assert list(pool.txs.items()) == list(expected.txs.items())  # arrival order kept
            assert list(pool.spent_outpoints.items()) == list(expected.spent_outpoints.items())
