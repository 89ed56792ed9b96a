"""Shared builders for protocol-level tests."""

from dataclasses import dataclass
from pathlib import Path
import random
import tempfile

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from advertsim.core import (
    Address,
    CoinbaseTransaction,
    CompactTarget,
    Hash,
    Transaction,
)
from advertsim.mining import BlockTemplate, MiningBudget, mine
from advertsim.protocol import (
    Advert,
    AdvertRegistry,
    ChainState,
    Mempool,
    make_advert,
)
from advertsim.simnet import collector_paused, drop_workload

MINE_BUDGET = MiningBudget(1 << 24)

# Property tests draw the same examples on every run and write nothing into
# the checkout: no example database, and hypothesis's own caches go to the
# system temporary directory.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "advertsim-hypothesis")


@pytest.fixture(autouse=True)
def _collector_paused():
    """Run each test with the cyclic collector paused, and drop the cached
    workload at its end, as the CLI runs a command."""
    with collector_paused():
        yield
        drop_workload()


def rand_hash(rng: random.Random) -> Hash:
    return Hash(rng.randbytes(32))


def rand_address(rng: random.Random) -> Address:
    return Address(rng.randbytes(20))


def funded_tx(rng: random.Random, utxo: dict, value: int = 1000, size: int = 500) -> Transaction:
    """A transaction spending a fresh outpoint that is added to ``utxo``."""
    op = (rand_hash(rng), 0)
    utxo[op] = (rand_address(rng), value)
    return Transaction(inputs=(op,), outputs=((rand_address(rng), value),), nominal_size_bytes=size)


@dataclass
class AdvertisedBlock:
    """A mined block with the advert, registry, chain, and pool that back it."""

    block: object
    advert: Advert
    registry: AdvertRegistry
    chain: ChainState
    mempool: Mempool
    template: BlockTemplate
    address: Address
    genesis: Hash


def advertised_block(rng: random.Random, bits: int = 4, ntx: int = 4) -> AdvertisedBlock:
    """Advertise a transaction set on a fresh chain, then mine the block."""
    genesis = rand_hash(rng)
    utxo: dict = {}
    txs = [funded_tx(rng, utxo) for _ in range(ntx)]
    chain = ChainState(genesis, utxo)
    mempool = Mempool()
    for tx in txs:
        assert mempool.add(tx, chain.utxo)
    address = rand_address(rng)
    advert = make_advert(address, genesis, mempool)
    registry = AdvertRegistry()
    registry.register(advert)
    coinbase = CoinbaseTransaction(coinbase_address=address, reward=50)
    template = BlockTemplate(
        prev_block_hash=genesis,
        coinbase=coinbase,
        transactions=tuple(mempool.txs[h] for h in advert.tx_hashes),
        difficulty_target=CompactTarget(bits),
        base_timestamp=0,
    )
    block = mine(template, MINE_BUDGET)
    assert block is not None
    return AdvertisedBlock(block, advert, registry, chain, mempool, template, address, genesis)
