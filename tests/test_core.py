"""Core types: hashing, serialization, Merkle tree, and the wire-size model."""

import hashlib
import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from advertsim.core import (
    Address,
    Block,
    BlockHeader,
    CoinbaseTransaction,
    CompactTarget,
    Hash,
    Transaction,
    TxRequest,
    TxResponse,
    block_hash,
    hash_bytes,
    header_hash,
    merkle_root,
    serialize,
    serialized_size,
    txid,
)
from advertsim.protocol import Advert, BlockSeed

from conftest import rand_hash

# double SHA-256 of the empty string, via any independent SHA-256 tool
EMPTY_DSHA = "5df6e0e2761359d30a8275058e299fcc0381534545f55cf43e41983f5d4c9456"


def dsha_oracle(data: bytes) -> bytes:
    return hashlib.sha256(hashlib.sha256(data).digest()).digest()


class TestHashBytes:
    def test_empty_golden(self):
        assert hash_bytes(b"").hex() == EMPTY_DSHA

    def test_matches_independent_composition(self):
        rng = random.Random(11)
        for _ in range(100):
            data = rng.randbytes(rng.randrange(0, 200))
            assert hash_bytes(data) == dsha_oracle(data)

    def test_deterministic(self):
        assert hash_bytes(b"x" * 77) == hash_bytes(b"x" * 77)

    def test_distinct_inputs(self):
        assert hash_bytes(b"a") != hash_bytes(b"b")
        assert hash_bytes(b"a") == dsha_oracle(b"a")
        assert hash_bytes(b"b") == dsha_oracle(b"b")

    def test_digest_is_a_hash(self):
        h = hash_bytes(b"x")
        assert type(h) is Hash and len(h) == 32
        assert Hash(h) is h


class TestFixedWidthTypes:
    def test_hash_length_enforced(self):
        with pytest.raises(ValueError):
            Hash(b"\x00" * 31)
        with pytest.raises(ValueError):
            Hash(b"\x00" * 33)
        assert len(Hash(b"\x00" * 32)) == 32

    def test_address_length_enforced(self):
        with pytest.raises(ValueError):
            Address(b"\x00" * 19)
        assert len(Address(b"\x00" * 20)) == 20

    def test_address_of_an_address_is_itself(self):
        raw = b"\x07" * 20
        a = Address(raw)
        assert Address(a) is a
        assert a == raw and a is not raw and type(a) is Address  # bytes are copied
        assert Address(bytearray(raw)) == a
        with pytest.raises(ValueError):
            Address(bytearray(21))
        with pytest.raises(ValueError):
            Address(hash_bytes(b"x"))  # a Hash is 32 bytes

    def test_hash_ordering_is_bytewise(self):
        a = Hash(b"\x00" * 31 + b"\x01")
        b = Hash(b"\x00" * 31 + b"\x02")
        assert a < b and sorted([b, a]) == [a, b]

    def test_compact_target_range(self):
        with pytest.raises(ValueError):
            CompactTarget(-1)
        with pytest.raises(ValueError):
            CompactTarget(257)
        any_hash = hash_bytes(b"whatever")
        assert CompactTarget(0).accepts(any_hash)
        assert not CompactTarget(256).accepts(any_hash)
        assert CompactTarget(256).accepts(Hash(b"\x00" * 32))


class TestTransactionIds:
    def test_identical_structures_same_txid(self):
        rng = random.Random(5)
        op = (rand_hash(rng), 3)
        addr = Address(rng.randbytes(20))
        t1 = Transaction(inputs=(op,), outputs=((addr, 9),))
        t2 = Transaction(inputs=(op,), outputs=((addr, 9),))
        assert txid(t1) == txid(t2)

    def test_extra_nonce_changes_coinbase_txid(self):
        addr = Address(b"\xab" * 20)
        c0 = CoinbaseTransaction(coinbase_address=addr, reward=50, extra_nonce=0)
        c1 = CoinbaseTransaction(coinbase_address=addr, reward=50, extra_nonce=1)
        assert txid(c0) != txid(c1)

    def test_golden_transaction_vector(self):
        tx = Transaction(
            inputs=((Hash(b"\x11" * 32), 7),),
            outputs=((Address(b"\x22" * 20), 5000),),
            nominal_size_bytes=500,
        )
        # independent assembly per docs/wire-format.md
        expected = (
            b"\x01"
            + struct.pack(">I", 1) + b"\x11" * 32 + struct.pack(">I", 7)
            + struct.pack(">I", 1) + b"\x22" * 20 + struct.pack(">Q", 5000)
            + struct.pack(">I", 500)
        )
        assert serialize(tx) == expected
        assert txid(tx) == dsha_oracle(expected)
        assert txid(tx).hex() == "c633e37369379e3b60d15a001db6954edd58af3d14653dab0017bbb4b433212e"

    def test_golden_coinbase_vector(self):
        cb = CoinbaseTransaction(
            coinbase_address=Address(b"\x33" * 20), reward=50, extra_nonce=9, nominal_size_bytes=200
        )
        expected = b"\x00" + b"\x33" * 20 + struct.pack(">Q", 50) + struct.pack(">Q", 9) + struct.pack(">I", 200)
        assert serialize(cb) == expected
        assert txid(cb).hex() == "0334d7d82d0e91eb386334b9c2b9ec8f790be605fe66971cf71b96fa7408462e"

    def test_golden_header_vector(self):
        hdr = BlockHeader(
            version=1,
            prev_block_hash=Hash(b"\x44" * 32),
            merkle_root=Hash(b"\x55" * 32),
            timestamp=1234567890,
            difficulty_target=CompactTarget(8),
            nonce=42,
        )
        expected = struct.pack(">I32s32sQHI", 1, b"\x44" * 32, b"\x55" * 32, 1234567890, 8, 42)
        assert serialize(hdr) == expected
        assert len(expected) == 82
        assert header_hash(hdr).hex() == "84b5b3e623c1c86ba5a95179512960f40849fd70ad33ca20a605d549200c0ef0"

    def test_nominal_size_floor_enforced(self):
        with pytest.raises(ValueError):
            Transaction(
                inputs=((Hash(b"\x01" * 32), 0),),
                outputs=((Address(b"\x02" * 20), 1),),
                nominal_size_bytes=10,
            )

    def test_outputs_required(self):
        with pytest.raises(ValueError):
            Transaction(inputs=(), outputs=())


class TestCanonicalBytes:
    """Canonical bytes exist only to be hashed; links are charged nominal sizes."""

    def test_only_hashed_types_have_canonical_bytes(self):
        registered = set(serialize.registry) - {object}
        assert registered == {Transaction, CoinbaseTransaction, BlockHeader, Advert}

    def test_block_has_no_canonical_bytes(self):
        with pytest.raises(TypeError):
            serialize(_block_of(2))


def merkle_oracle(leaves):
    """Independent recursive construction."""
    if len(leaves) == 1:
        return leaves[0]
    if len(leaves) % 2 == 1:
        leaves = list(leaves) + [leaves[-1]]
    return merkle_oracle(
        [dsha_oracle(leaves[i] + leaves[i + 1]) for i in range(0, len(leaves), 2)]
    )


class TestMerkleRoot:
    def test_single_leaf_identity(self):
        h = hash_bytes(b"leaf")
        assert merkle_root([h]) == h

    def test_two_leaves(self):
        h1, h2 = hash_bytes(b"1"), hash_bytes(b"2")
        assert merkle_root([h1, h2]) == hash_bytes(h1 + h2)

    def test_odd_level_duplicates_last(self):
        h1, h2, h3 = (hash_bytes(bytes([i])) for i in range(3))
        assert merkle_root([h1, h2, h3]) == merkle_root([h1, h2, h3, h3])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            merkle_root([])

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.binary(min_size=32, max_size=32), min_size=1, max_size=8))
    def test_matches_recursive_oracle(self, raw):
        leaves = [Hash(b) for b in raw]
        assert merkle_root(leaves) == merkle_oracle(leaves)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.binary(min_size=32, max_size=32), min_size=1, max_size=8), st.data())
    def test_memo_answers_only_the_last_list(self, raw, data):
        # merkle_root keeps its last call's leaves and root: each list below
        # follows the original and differs from it in one leaf or in length
        leaves = [Hash(b) for b in raw]
        i = data.draw(st.integers(0, len(leaves) - 1))
        changed = leaves.copy()
        changed[i] = hash_bytes(leaves[i])
        variants = [changed, leaves + [hash_bytes(b"extra leaf")], leaves[:-1], leaves[1:]]
        for variant in [v for v in variants if v]:
            assert merkle_root(leaves) == merkle_oracle(leaves)
            assert merkle_root(variant) == merkle_oracle(variant)
        # bytes leaves and Hash leaves, called either way round, give one root
        expected = merkle_oracle(leaves)
        for first, second in ((raw, leaves), (leaves, raw), (tuple(raw), raw)):
            assert merkle_root(first) == merkle_root(second) == expected
            assert type(merkle_root(second)) is Hash


class TestBlockMerkleSensitivity:
    def _random_block(self, rng, ntx):
        txs = tuple(
            Transaction(
                inputs=((rand_hash(rng), 0),),
                outputs=((Address(rng.randbytes(20)), 5),),
            )
            for _ in range(ntx)
        )
        cb = CoinbaseTransaction(coinbase_address=Address(rng.randbytes(20)), reward=50)
        return cb, txs

    def _root(self, cb, txs):
        return merkle_root([txid(cb)] + [txid(t) for t in txs])

    def test_any_mutation_changes_root(self):
        rng = random.Random(99)
        for _ in range(200):
            cb, txs = self._random_block(rng, rng.randrange(2, 7))
            root = self._root(cb, txs)
            # substitute one transaction
            i = rng.randrange(len(txs))
            sub = list(txs)
            sub[i] = Transaction(inputs=((rand_hash(rng), 0),), outputs=((Address(rng.randbytes(20)), 5),))
            assert self._root(cb, tuple(sub)) != root
            # swap two transactions
            j = (i + 1) % len(txs)
            swapped = list(txs)
            swapped[i], swapped[j] = swapped[j], swapped[i]
            assert self._root(cb, tuple(swapped)) != root
            # roll the coinbase extra nonce
            cb2 = CoinbaseTransaction(
                coinbase_address=cb.coinbase_address, reward=cb.reward, extra_nonce=cb.extra_nonce + 1
            )
            assert self._root(cb2, txs) != root


def _block_of(ntx, tx_size=500, cb_size=200):
    rng = random.Random(1234)
    txs = tuple(
        Transaction(
            inputs=((Hash(int.to_bytes(i, 32, "big")), 0),),
            outputs=((Address(b"\x01" * 20), 1),),
            nominal_size_bytes=tx_size,
        )
        for i in range(ntx)
    )
    cb = CoinbaseTransaction(coinbase_address=Address(b"\x02" * 20), reward=50, nominal_size_bytes=cb_size)
    hdr = BlockHeader(
        version=1,
        prev_block_hash=rand_hash(rng),
        merkle_root=merkle_root([txid(cb)] + [txid(t) for t in txs]),
        timestamp=0,
        difficulty_target=CompactTarget(0),
        nonce=0,
    )
    return Block(header=hdr, coinbase=cb, transactions=txs)


def _advert_of(ntx):
    hashes = tuple(Hash(int.to_bytes(i, 32, "big")) for i in range(ntx))
    return Advert(coinbase_address=Address(b"\x02" * 20), tx_hashes=hashes, prev_block_hash=Hash(b"\x03" * 32))


class TestSizeModel:
    def test_block_at_two_thousand_txs(self):
        block = _block_of(2000)
        assert serialized_size(block) == 80 + 200 + 2000 * 500 == 1_000_280

    def test_advert_at_two_thousand_txs(self):
        advert = _advert_of(2000)
        assert serialized_size(advert) == 8 + 20 + 32 + 32 * 2000 == 64_060

    def test_block_advert_ratio_about_fifteen(self):
        ratio = serialized_size(_block_of(2000)) / serialized_size(_advert_of(2000))
        assert 15 <= ratio <= 16

    def test_empty_advert(self):
        assert serialized_size(_advert_of(0)) == 60

    def test_seed_size(self):
        block = _block_of(3)
        seed = BlockSeed(coinbase=block.coinbase, header=block.header)
        assert serialized_size(seed) == 20 + 200 + 80 == 300

    def test_tx_request_and_response(self):
        req = TxRequest(hashes=tuple(Hash(int.to_bytes(i, 32, "big")) for i in range(5)))
        assert serialized_size(req) == 8 + 32 * 5
        txs = _block_of(3).transactions
        assert serialized_size(TxResponse(txs=txs)) == 1500

    def test_transaction_nominal(self):
        tx = _block_of(1).transactions[0]
        assert serialized_size(tx) == 500

    def test_advert_to_block_ratio_asymptote(self):
        # ratio tends to 32/500 = 0.064 as the list grows
        n = 50_000
        advert_bytes = 8 + 20 + 32 + 32 * n
        block_bytes = 80 + 200 + 500 * n
        assert abs(advert_bytes / block_bytes - 0.064) < 1e-3

    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError):
            serialized_size(42)


class TestImmutability:
    def test_values_hashable_and_equal(self):
        b1 = _block_of(4)
        b2 = _block_of(4)
        assert b1 == b2
        assert hash(b1.header) == hash(b2.header)
        assert block_hash(b1) == block_hash(b2)
