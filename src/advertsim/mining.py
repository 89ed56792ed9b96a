"""Proof-of-work search and the stochastic mining-time model.

``mine`` performs the real hash search over (nonce, extra nonce) for a
frozen transaction list and is used wherever protocol correctness is
exercised. ``sample_mining_time`` replaces the search with a draw from
the exponential law implied by independent hash trials, which is what
network-scale scenarios use: thousands of simulated blocks would be
infeasible with real hashing even at toy difficulty.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

from .core import (
    HEADER_WIRE_BYTES,
    MAX_BLOCK_SIZE_BYTES,
    Block,
    BlockHeader,
    CoinbaseTransaction,
    CompactTarget,
    Hash,
    Transaction,
    header_hash,
    merkle_root,
    txid,
)

NONCE_SPACE = 2**32


@dataclass(frozen=True, slots=True)
class BlockTemplate:
    """Everything fixed before the search starts.

    The transaction list is frozen: the search may vary only the nonce,
    the coinbase extra nonce, and the timestamp.
    """

    prev_block_hash: Hash
    coinbase: CoinbaseTransaction
    transactions: tuple[Transaction, ...]
    difficulty_target: CompactTarget
    version: int = 1
    base_timestamp: int = 0
    max_size_bytes: int = MAX_BLOCK_SIZE_BYTES

    def __post_init__(self) -> None:
        object.__setattr__(self, "prev_block_hash", Hash(self.prev_block_hash))
        object.__setattr__(self, "transactions", tuple(self.transactions))
        size = (
            HEADER_WIRE_BYTES
            + self.coinbase.nominal_size_bytes
            + sum(t.nominal_size_bytes for t in self.transactions)
        )
        if size > self.max_size_bytes:
            raise ValueError(f"template block size {size} exceeds cap {self.max_size_bytes}")


@dataclass(frozen=True, slots=True)
class MiningBudget:
    max_hash_evaluations: int

    def __post_init__(self) -> None:
        if self.max_hash_evaluations <= 0:
            raise ValueError("budget must be positive")


@dataclass(frozen=True, slots=True)
class HashRate:
    hashes_per_second: float

    def __post_init__(self) -> None:
        if not (self.hashes_per_second > 0 and self.hashes_per_second != float("inf")):
            raise ValueError("hash rate must be positive and finite")


def check_pow(header: BlockHeader) -> bool:
    """True iff the header's hash meets its own difficulty target."""
    return header.difficulty_target.accepts(header_hash(header))


def mine(
    template: BlockTemplate,
    budget: MiningBudget,
    nonce_limit: int = NONCE_SPACE,
) -> Block | None:
    """Search for a block satisfying the template's difficulty target.

    Deterministic order: nonce 0..nonce_limit-1, then extra nonce += 1
    and the nonce restarts. The first pass mines the template's own
    coinbase; a new one is built only to roll the extra nonce. The
    timestamp stays at ``base_timestamp``. Returns None when the budget
    is exhausted. ``nonce_limit`` shrinks the nonce space so extra-nonce
    rolling can be exercised in tests; the default is the full 32-bit
    space.
    """
    evaluations = 0
    coinbase = template.coinbase
    tx_leaves = [txid(t) for t in template.transactions]
    while True:
        root = merkle_root([txid(coinbase)] + tx_leaves)
        for nonce in range(nonce_limit):
            header = BlockHeader(
                version=template.version,
                prev_block_hash=template.prev_block_hash,
                merkle_root=root,
                timestamp=template.base_timestamp,
                difficulty_target=template.difficulty_target,
                nonce=nonce,
            )
            evaluations += 1
            if check_pow(header):
                return Block(
                    header=header, coinbase=coinbase, transactions=template.transactions
                )
            if evaluations >= budget.max_hash_evaluations:
                return None
        coinbase = replace(coinbase, extra_nonce=coinbase.extra_nonce + 1)


def evaluations_used(template: BlockTemplate, block: Block, nonce_limit: int = NONCE_SPACE) -> int:
    """Hash evaluations ``mine`` spent to produce ``block`` from ``template``."""
    rolls = block.coinbase.extra_nonce - template.coinbase.extra_nonce
    return rolls * nonce_limit + block.header.nonce + 1


def sample_mining_time(
    rate: HashRate, target: CompactTarget, rng: random.Random
) -> float:
    """Draw a solve time from the exponential law of independent trials.

    Mean is 2^leading_zero_bits / rate. Deterministic given the rng
    stream state; each stream must be owned by exactly one consumer.
    """
    mean = (1 << target.leading_zero_bits) / rate.hashes_per_second
    return rng.expovariate(1.0 / mean)
