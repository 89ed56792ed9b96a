"""Proof-of-work search order, determinism, and the stochastic time model."""

import hashlib
import random
import statistics

import pytest

from advertsim.core import (
    Address,
    BlockHeader,
    CoinbaseTransaction,
    CompactTarget,
    Hash,
    merkle_root,
    serialize,
    txid,
)
from advertsim.mining import (
    BlockTemplate,
    HashRate,
    MiningBudget,
    check_pow,
    evaluations_used,
    mine,
    sample_mining_time,
)

from conftest import rand_address, rand_hash


def oracle_scan(template, bits, nonce_limit=2**32, max_evals=1 << 20):
    """Independent exhaustive search in the documented order.

    Builds candidate headers directly and tests them with raw hashlib
    arithmetic, so it shares no search logic with mine().
    """
    evals = 0
    extra = template.coinbase.extra_nonce
    bound = 1 << (256 - bits) if bits else 1 << 256
    while evals < max_evals:
        cb = CoinbaseTransaction(
            coinbase_address=template.coinbase.coinbase_address,
            reward=template.coinbase.reward,
            extra_nonce=extra,
            nominal_size_bytes=template.coinbase.nominal_size_bytes,
        )
        root = merkle_root([txid(cb)] + [txid(t) for t in template.transactions])
        for nonce in range(nonce_limit):
            hdr = BlockHeader(
                version=template.version,
                prev_block_hash=template.prev_block_hash,
                merkle_root=root,
                timestamp=template.base_timestamp,
                difficulty_target=template.difficulty_target,
                nonce=nonce,
            )
            digest = hashlib.sha256(hashlib.sha256(serialize(hdr)).digest()).digest()
            evals += 1
            if int.from_bytes(digest, "big") < bound:
                return hdr, cb, evals
            if evals >= max_evals:
                break
        extra += 1
    raise AssertionError("oracle exhausted")


def simple_template(bits, txs=(), extra_nonce=0, prev=b"\x01" * 32):
    cb = CoinbaseTransaction(
        coinbase_address=Address(b"\x02" * 20), reward=50, extra_nonce=extra_nonce
    )
    return BlockTemplate(
        prev_block_hash=Hash(prev),
        coinbase=cb,
        transactions=tuple(txs),
        difficulty_target=CompactTarget(bits),
        base_timestamp=0,
    )


class TestCheckPow:
    def test_zero_target_accepts_everything(self):
        hdr = mine(simple_template(0), MiningBudget(1)).header
        assert check_pow(hdr)
        assert hdr.nonce == 0

    def test_impossible_target_rejects(self):
        hdr0 = mine(simple_template(0), MiningBudget(1)).header
        hdr = BlockHeader(
            version=hdr0.version,
            prev_block_hash=hdr0.prev_block_hash,
            merkle_root=hdr0.merkle_root,
            timestamp=hdr0.timestamp,
            difficulty_target=CompactTarget(256),
            nonce=hdr0.nonce,
        )
        assert not check_pow(hdr)

    def test_golden_header_at_eight_bits(self):
        block = mine(simple_template(8), MiningBudget(1 << 20))
        assert block.header.nonce == 159
        assert check_pow(block.header)
        bumped = BlockHeader(
            version=block.header.version,
            prev_block_hash=block.header.prev_block_hash,
            merkle_root=block.header.merkle_root,
            timestamp=block.header.timestamp,
            difficulty_target=block.header.difficulty_target,
            nonce=block.header.nonce + 1,
        )
        assert not check_pow(bumped)


class TestMine:
    def test_zero_target_first_candidate_wins(self):
        t = simple_template(0, extra_nonce=7)
        block = mine(t, MiningBudget(1))
        assert block is not None
        assert block.header.nonce == 0
        assert block.coinbase.extra_nonce == 7
        assert evaluations_used(t, block) == 1

    def test_matches_independent_exhaustive_scan(self):
        rng = random.Random(21)
        for _ in range(10):
            t = simple_template(8, prev=rng.randbytes(32))
            block = mine(t, MiningBudget(1 << 20))
            hdr, cb, evals = oracle_scan(t, 8)
            assert block.header == hdr
            assert block.coinbase == cb
            assert evaluations_used(t, block) == evals

    def test_first_pass_mines_the_template_coinbase(self):
        # no coinbase is rebuilt unless the extra nonce rolls
        t = simple_template(4, extra_nonce=3)
        block = mine(t, MiningBudget(1 << 20))
        assert block.coinbase.extra_nonce == 3
        assert block.coinbase is t.coinbase

    def test_budget_exhaustion_returns_none(self):
        assert mine(simple_template(64), MiningBudget(10_000)) is None

    def test_deterministic(self):
        t = simple_template(6)
        assert mine(t, MiningBudget(1 << 20)) == mine(t, MiningBudget(1 << 20))

    def test_extra_nonce_rolls_when_nonce_space_small(self):
        rng = random.Random(33)
        for _ in range(10):
            t = simple_template(6, prev=rng.randbytes(32))
            block = mine(t, MiningBudget(1 << 20), nonce_limit=8)
            hdr, cb, evals = oracle_scan(t, 6, nonce_limit=8)
            assert block.header == hdr
            assert block.header.nonce < 8
            assert evaluations_used(t, block, nonce_limit=8) == evals
        # small nonce space forces rolling somewhere in ten attempts
        assert any(
            mine(simple_template(6, prev=bytes([i]) * 32), MiningBudget(1 << 20), nonce_limit=4).coinbase.extra_nonce
            > 0
            for i in range(10)
        )

    def test_transaction_list_never_changes(self):
        rng = random.Random(44)
        for _ in range(1000):
            utxo = {}
            txs = []
            for _ in range(rng.randrange(1, 5)):
                op = (rand_hash(rng), 0)
                from advertsim.core import Transaction

                txs.append(
                    Transaction(inputs=(op,), outputs=((rand_address(rng), 5),))
                )
            t = BlockTemplate(
                prev_block_hash=rand_hash(rng),
                coinbase=CoinbaseTransaction(coinbase_address=rand_address(rng), reward=50),
                transactions=tuple(txs),
                difficulty_target=CompactTarget(4),
                base_timestamp=0,
            )
            block = mine(t, MiningBudget(1 << 20))
            assert block is not None
            assert check_pow(block.header)
            assert [txid(x) for x in block.transactions] == [txid(x) for x in txs]
            assert block.header.timestamp == t.base_timestamp
            assert merkle_root(block.all_txids()) == block.header.merkle_root

    def test_mean_evaluations_smoke(self):
        rng = random.Random(55)
        evals = []
        for _ in range(200):
            t = simple_template(4, prev=rng.randbytes(32))
            block = mine(t, MiningBudget(1 << 20))
            evals.append(evaluations_used(t, block))
        assert abs(statistics.mean(evals) - 16) / 16 < 0.25


class TestTemplate:
    def test_size_cap_enforced(self):
        from advertsim.core import Transaction

        rng = random.Random(66)
        big = tuple(
            Transaction(
                inputs=((rand_hash(rng), 0),),
                outputs=((rand_address(rng), 1),),
                nominal_size_bytes=600_000,
            )
            for _ in range(2)
        )
        with pytest.raises(ValueError):
            BlockTemplate(
                prev_block_hash=rand_hash(rng),
                coinbase=CoinbaseTransaction(coinbase_address=rand_address(rng), reward=50),
                transactions=big,
                difficulty_target=CompactTarget(0),
            )

    def test_budget_and_rate_validation(self):
        with pytest.raises(ValueError):
            MiningBudget(0)
        with pytest.raises(ValueError):
            HashRate(0.0)
        with pytest.raises(ValueError):
            HashRate(float("inf"))


class TestSampleMiningTime:
    def test_deterministic_streams(self):
        a = [sample_mining_time(HashRate(3.0), CompactTarget(5), random.Random(9)) for _ in range(1)]
        b = [sample_mining_time(HashRate(3.0), CompactTarget(5), random.Random(9)) for _ in range(1)]
        assert a == b
        rng1, rng2 = random.Random(10), random.Random(10)
        s1 = [sample_mining_time(HashRate(2.0), CompactTarget(3), rng1) for _ in range(50)]
        s2 = [sample_mining_time(HashRate(2.0), CompactTarget(3), rng2) for _ in range(50)]
        assert s1 == s2

    def test_nonnegative_and_zero_bits_mean(self):
        rng = random.Random(12)
        samples = [sample_mining_time(HashRate(4.0), CompactTarget(0), rng) for _ in range(5000)]
        assert all(s >= 0 for s in samples)
        assert abs(statistics.mean(samples) - 0.25) / 0.25 < 0.1

    def test_mean_matches_two_power_bits_over_rate(self):
        rng = random.Random(13)
        samples = [sample_mining_time(HashRate(100.0), CompactTarget(10), rng) for _ in range(20_000)]
        assert abs(statistics.mean(samples) - 10.24) / 10.24 < 0.05
