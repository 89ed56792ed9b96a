"""Deterministic simulator for advertise-ahead block relay.

Miners announce the exact transaction list of the block they are about
to mine, peers pull any transactions they are missing while the proof of
work is searched, and the mined block is then relayed as a compact seed
(coinbase plus header) from which every peer reconstructs and validates
the full block. The package also implements plain full-block relay and a
late-advert variant so the three strategies can be compared on identical
workloads.
"""

__version__ = "0.1.0"

from .core import (  # noqa: F401
    Address,
    Block,
    BlockHeader,
    CoinbaseTransaction,
    CompactTarget,
    Hash,
    Transaction,
    hash_bytes,
    merkle_root,
    serialized_size,
    txid,
)
from .mining import BlockTemplate, HashRate, MiningBudget, check_pow, mine, sample_mining_time  # noqa: F401
from .protocol import (  # noqa: F401
    Advert,
    AdvertRegistry,
    BlockSeed,
    ChainState,
    Mempool,
    Reason,
    make_advert,
    make_block_seed,
    reconstruct_block,
    validate_block,
)
from .simnet import EventLog, RelayStrategy, Scenario, run_scenario  # noqa: F401
