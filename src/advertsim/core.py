"""Canonical domain types for block relay simulation.

Defines the value objects shared by every other module (hashes, addresses,
transactions, headers, blocks), the double-SHA-256 digest primitive, the
Merkle tree over transaction ids, a canonical byte serialization for each
type, and the nominal wire-size model used by the network simulator.

All types are immutable after construction and safe to share freely.
The canonical serialization is documented in docs/wire-format.md; golden
vectors for it live in the test suite.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field
from functools import singledispatch
from typing import Sequence

MAX_BLOCK_SIZE_BYTES = 1_000_000
HEADER_WIRE_BYTES = 80  # classic fixed header size used by the size model
ADVERT_FRAMING_BYTES = 8
TX_REQUEST_FRAMING_BYTES = 8
DEFAULT_TX_SIZE_BYTES = 500
DEFAULT_COINBASE_SIZE_BYTES = 200

_U32_MAX = 2**32 - 1
_U64_MAX = 2**64 - 1


class Hash(bytes):
    """A 32-byte digest. Ordering and equality are bytewise."""

    def __new__(cls, data: bytes) -> "Hash":
        if type(data) is cls:
            return data  # immutable, so the instance itself serves
        b = data if type(data) is bytes else bytes(data)
        if len(b) != 32:
            raise ValueError(f"Hash must be exactly 32 bytes, got {len(b)}")
        return super().__new__(cls, b)

    def short(self) -> str:
        return self.hex()[:16]


class Address(bytes):
    """A 20-byte miner coinbase address."""

    def __new__(cls, data: bytes) -> "Address":
        b = bytes(data)
        if len(b) != 20:
            raise ValueError(f"Address must be exactly 20 bytes, got {len(b)}")
        return super().__new__(cls, b)


def hash_bytes(data: bytes) -> Hash:
    """Double SHA-256 of ``data``."""
    return Hash(hashlib.sha256(hashlib.sha256(data).digest()).digest())


Outpoint = tuple[Hash, int]


def _check_u32(name: str, v: int) -> None:
    if not 0 <= v <= _U32_MAX:
        raise ValueError(f"{name} out of 32-bit range: {v}")


def _check_u64(name: str, v: int) -> None:
    if not 0 <= v <= _U64_MAX:
        raise ValueError(f"{name} out of 64-bit range: {v}")


@dataclass(frozen=True, slots=True)
class Transaction:
    """An abstract UTXO value transfer.

    ``nominal_size_bytes`` is the modeled wire size, decoupled from the
    in-memory canonical serialization so scenarios can pin exact sizes.
    It must not be smaller than the canonical serialization itself.
    """

    inputs: tuple[tuple[Hash, int], ...]
    outputs: tuple[tuple[Address, int], ...]
    nominal_size_bytes: int = DEFAULT_TX_SIZE_BYTES
    _txid: Hash = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "inputs", tuple((Hash(h), int(i)) for h, i in self.inputs)
        )
        object.__setattr__(
            self, "outputs", tuple((Address(a), int(v)) for a, v in self.outputs)
        )
        if not self.outputs:
            raise ValueError("transaction must have at least one output")
        for _, v in self.outputs:
            if v < 0:
                raise ValueError("output value must be >= 0")
        for _, idx in self.inputs:
            _check_u32("input index", idx)
        _set_txid(self)


@dataclass(frozen=True, slots=True)
class CoinbaseTransaction:
    """The input-less reward transaction; carries the rollable extra nonce."""

    coinbase_address: Address
    reward: int
    extra_nonce: int = 0
    nominal_size_bytes: int = DEFAULT_COINBASE_SIZE_BYTES
    _txid: Hash = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "coinbase_address", Address(self.coinbase_address))
        if self.reward < 0:
            raise ValueError("reward must be >= 0")
        _check_u64("extra_nonce", self.extra_nonce)
        _set_txid(self)

    @property
    def outputs(self) -> tuple[tuple[Address, int], ...]:
        # exactly one output, paying the coinbase address
        return ((self.coinbase_address, self.reward),)


@dataclass(frozen=True, slots=True)
class CompactTarget:
    """Difficulty encoded as a required count of leading zero bits.

    0 accepts every hash; 256 accepts only the all-zero digest, which at
    2^-256 probability never occurs in practice.
    """

    leading_zero_bits: int

    def __post_init__(self) -> None:
        if not 0 <= self.leading_zero_bits <= 256:
            raise ValueError("leading_zero_bits must be in [0, 256]")

    def accepts(self, h: Hash) -> bool:
        if self.leading_zero_bits == 0:
            return True
        return int.from_bytes(h, "big") < (1 << (256 - self.leading_zero_bits))


@dataclass(frozen=True, slots=True)
class BlockHeader:
    """Every copy of a block (seed, reconstruction, relayed block) shares its
    header object, and the header hash is computed when the header is built,
    so it is computed once per network."""

    version: int
    prev_block_hash: Hash
    merkle_root: Hash
    timestamp: int
    difficulty_target: CompactTarget
    nonce: int
    _hash: Hash = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "prev_block_hash", Hash(self.prev_block_hash))
        object.__setattr__(self, "merkle_root", Hash(self.merkle_root))
        _check_u32("version", self.version)
        _check_u64("timestamp", self.timestamp)
        _check_u32("nonce", self.nonce)
        object.__setattr__(self, "_hash", hash_bytes(serialize(self)))


@dataclass(frozen=True, slots=True)
class Block:
    """A full block: header, coinbase, and the ordered transaction list.

    Construction is permissive on purpose: consistency of the header's
    Merkle root with the transaction list is a validation concern, so
    that malformed blocks can be represented and rejected.
    """

    header: BlockHeader
    coinbase: CoinbaseTransaction
    transactions: tuple[Transaction, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "transactions", tuple(self.transactions))

    def all_txids(self) -> tuple[Hash, ...]:
        """Leaf order for the Merkle tree: coinbase first, then the list."""
        return (txid(self.coinbase), *[txid(t) for t in self.transactions])


@dataclass(frozen=True, slots=True)
class TxRequest:
    """A pull request for specific transactions by hash."""

    hashes: tuple[Hash, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "hashes", tuple(Hash(h) for h in self.hashes))


@dataclass(frozen=True, slots=True)
class TxResponse:
    """The answer to a TxRequest: the transactions the responder has."""

    txs: tuple[Transaction, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "txs", tuple(self.txs))


# --- canonical serialization -------------------------------------------------
#
# Fixed-width big-endian integers, u32 length-prefixed lists, fields in
# declaration order. Transactions carry a leading tag byte (0x00 coinbase,
# 0x01 regular) so the two families can never serialize identically.

_HEADER_FMT = struct.Struct(">I32s32sQHI")


@singledispatch
def serialize(obj) -> bytes:
    raise TypeError(f"no canonical serialization for {type(obj).__name__}")


@serialize.register
def _(tx: Transaction) -> bytes:
    parts = [b"\x01", struct.pack(">I", len(tx.inputs))]
    for h, idx in tx.inputs:
        parts.append(h)
        parts.append(struct.pack(">I", idx))
    parts.append(struct.pack(">I", len(tx.outputs)))
    for addr, value in tx.outputs:
        parts.append(addr)
        parts.append(struct.pack(">Q", value))
    parts.append(struct.pack(">I", tx.nominal_size_bytes))
    return b"".join(parts)


@serialize.register
def _(tx: CoinbaseTransaction) -> bytes:
    return b"".join(
        (
            b"\x00",
            tx.coinbase_address,
            struct.pack(">Q", tx.reward),
            struct.pack(">Q", tx.extra_nonce),
            struct.pack(">I", tx.nominal_size_bytes),
        )
    )


@serialize.register
def _(header: BlockHeader) -> bytes:
    return _HEADER_FMT.pack(
        header.version,
        header.prev_block_hash,
        header.merkle_root,
        header.timestamp,
        header.difficulty_target.leading_zero_bits,
        header.nonce,
    )


@serialize.register
def _(block: Block) -> bytes:
    parts = [serialize(block.header), serialize(block.coinbase)]
    parts.append(struct.pack(">I", len(block.transactions)))
    for tx in block.transactions:
        parts.append(serialize(tx))
    return b"".join(parts)


@serialize.register
def _(req: TxRequest) -> bytes:
    return struct.pack(">I", len(req.hashes)) + b"".join(req.hashes)


@serialize.register
def _(resp: TxResponse) -> bytes:
    parts = [struct.pack(">I", len(resp.txs))]
    for tx in resp.txs:
        parts.append(serialize(tx))
    return b"".join(parts)


def _set_txid(tx: Transaction | CoinbaseTransaction) -> None:
    """Serialize a new transaction once: check its size floor against the
    bytes and store their hash as its id."""
    data = serialize(tx)
    if tx.nominal_size_bytes < len(data):
        raise ValueError(
            f"nominal_size_bytes {tx.nominal_size_bytes} below "
            f"serialization floor {len(data)}"
        )
    object.__setattr__(tx, "_txid", hash_bytes(data))


def txid(tx: Transaction | CoinbaseTransaction) -> Hash:
    """Content id of a transaction: double SHA-256 of its canonical bytes.

    Covers every field (including the coinbase extra nonce), so ids are
    immutable once a transaction exists. Computed at construction.
    """
    return tx._txid


def header_hash(header: BlockHeader) -> Hash:
    """Double SHA-256 of the header's canonical bytes. Computed at construction."""
    return header._hash


def block_hash(block: Block) -> Hash:
    return header_hash(block.header)


def merkle_root(leaves: Sequence[Hash]) -> Hash:
    """Root of the binary hash tree over ``leaves``.

    Adjacent nodes are paired and their concatenation double-SHA-256
    hashed; an unpaired last node is duplicated. A single leaf is its
    own root. An empty list is an error: every block has a coinbase.
    """
    if not leaves:
        raise ValueError("merkle_root of empty leaf list (block has no coinbase?)")
    level = [Hash(h) for h in leaves]
    while len(level) > 1:
        if len(level) % 2 == 1:
            level.append(level[-1])
        level = [
            hash_bytes(level[i] + level[i + 1]) for i in range(0, len(level), 2)
        ]
    return level[0]


# --- wire-size model ----------------------------------------------------------
#
# Nominal sizes, not canonical-byte lengths: the simulator charges links
# with these. Block: 80-byte header + nominal coinbase + nominal txs.
# Advert: framing + address + prev hash + 32 bytes per listed tx hash.


@singledispatch
def serialized_size(message) -> int:
    raise TypeError(f"no size model for {type(message).__name__}")


@serialized_size.register
def _(tx: Transaction) -> int:
    return tx.nominal_size_bytes


@serialized_size.register
def _(tx: CoinbaseTransaction) -> int:
    return tx.nominal_size_bytes


@serialized_size.register
def _(block: Block) -> int:
    return (
        HEADER_WIRE_BYTES
        + block.coinbase.nominal_size_bytes
        + sum(t.nominal_size_bytes for t in block.transactions)
    )


@serialized_size.register
def _(req: TxRequest) -> int:
    return TX_REQUEST_FRAMING_BYTES + 32 * len(req.hashes)


@serialized_size.register
def _(resp: TxResponse) -> int:
    return sum(t.nominal_size_bytes for t in resp.txs)
