"""Advertise-ahead relay protocol: adverts, seeds, reconstruction, validation.

A miner announces the exact ordered transaction list of its next block in
an advert keyed by (coinbase address, previous block hash). Peers pull any
transactions they are missing while the block is being mined. Once mined,
the block travels as a compact seed (coinbase address, coinbase
transaction, header); every peer reconstructs the full block from the
registered advert and its transaction store, and accepts it only if the
fixed validation ladder passes.

State containers here (registry, mempool, chain) are per-node and
single-threaded; the messages they exchange are immutable values. Of
those, only the advert has canonical bytes, to feed its gossip key; a seed
is known by its header hash.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, field
from enum import Enum
from itertools import islice
from types import MappingProxyType

from .core import (
    ADVERT_FRAMING_BYTES,
    HEADER_WIRE_BYTES,
    MAX_BLOCK_SIZE_BYTES,
    DEFAULT_COINBASE_SIZE_BYTES,
    Address,
    Block,
    BlockHeader,
    CoinbaseTransaction,
    Hash,
    Outpoint,
    Transaction,
    block_hash,
    header_hash,
    merkle_root,
    serialize,
    serialized_size,
    txid,
)
from .mining import check_pow


class Reason(Enum):
    OK = "OK"
    NO_MATCHING_ADVERT = "NO_MATCHING_ADVERT"
    COINBASE_MISMATCH = "COINBASE_MISMATCH"
    WRONG_PREV_HASH = "WRONG_PREV_HASH"
    POW_FAIL = "POW_FAIL"
    TX_LIST_MISMATCH = "TX_LIST_MISMATCH"
    MERKLE_MISMATCH = "MERKLE_MISMATCH"
    MISSING_TXS = "MISSING_TXS"
    INVALID_TX = "INVALID_TX"

    @property
    def accepted(self) -> bool:
        return self is Reason.OK


@dataclass(frozen=True, slots=True)
class Advert:
    """Pre-mining announcement: who will mine, exactly what, on which tip."""

    coinbase_address: Address
    tx_hashes: tuple[Hash, ...]
    prev_block_hash: Hash
    _key: tuple[Address, Hash] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "coinbase_address", Address(self.coinbase_address))
        object.__setattr__(self, "tx_hashes", tuple(Hash(h) for h in self.tx_hashes))
        object.__setattr__(self, "prev_block_hash", Hash(self.prev_block_hash))
        if len(set(self.tx_hashes)) != len(self.tx_hashes):
            raise ValueError("advert transaction list contains duplicates")
        object.__setattr__(self, "_key", (self.coinbase_address, self.prev_block_hash))

    def key(self) -> tuple[Address, Hash]:
        """(coinbase address, previous block hash), built once: every node's
        registry and pull ledger share this one tuple."""
        return self._key


def _pool_advert(address: Address, tx_hashes: tuple[Hash, ...], tip: Hash) -> Advert:
    """An ``Advert`` over pool keys, built without ``__post_init__``'s per-hash
    checks: pool keys are already distinct ``Hash`` objects. For ``make_advert``."""
    advert = object.__new__(Advert)
    address, tip = Address(address), Hash(tip)
    object.__setattr__(advert, "coinbase_address", address)
    object.__setattr__(advert, "tx_hashes", tx_hashes)
    object.__setattr__(advert, "prev_block_hash", tip)
    object.__setattr__(advert, "_key", (address, tip))
    return advert


@dataclass(frozen=True, slots=True)
class BlockSeed:
    """Post-mining compact relay unit: coinbase and header. Its wire size
    also charges the address the coinbase pays, which keys the advert."""

    coinbase: CoinbaseTransaction
    header: BlockHeader

    @property
    def coinbase_address(self) -> Address:
        return self.coinbase.coinbase_address


@serialize.register
def _(advert: Advert) -> bytes:
    parts = [b"\x04", advert.coinbase_address, advert.prev_block_hash]
    parts.append(len(advert.tx_hashes).to_bytes(4, "big"))
    parts.extend(advert.tx_hashes)
    return b"".join(parts)


@serialized_size.register
def _(advert: Advert) -> int:
    return ADVERT_FRAMING_BYTES + 20 + 32 + 32 * len(advert.tx_hashes)


@serialized_size.register
def _(seed: BlockSeed) -> int:
    return 20 + seed.coinbase.nominal_size_bytes + HEADER_WIRE_BYTES


class AdvertRegistry:
    """One advert per (coinbase address, previous block hash); first arrival wins."""

    def __init__(self) -> None:
        self.entries: dict[tuple[Address, Hash], Advert] = {}

    def register(self, advert: Advert) -> bool:
        """Keep ``advert`` unless its key is taken; True when it was kept."""
        key = advert.key()
        if key in self.entries:
            return False
        self.entries[key] = advert
        return True

    def lookup(self, address: Address, prev_block_hash: Hash) -> Advert | None:
        return self.entries.get((address, prev_block_hash))

    def evict_stale(self, heights: dict[Hash, int], tip_height: int) -> int:
        """Drop entries whose prev hash is two or more blocks behind the tip.

        Entries referencing unknown hashes (pipelined adverts for blocks
        still in flight) are kept. Returns the number evicted.
        """
        stale = [
            key
            for key, adv in self.entries.items()
            if adv.prev_block_hash in heights
            and heights[adv.prev_block_hash] <= tip_height - 2
        ]
        for key in stale:
            del self.entries[key]
        return len(stale)


class Mempool:
    """Pending transactions, conflict-free and valid against the current tip.

    ``min_size`` is the least nominal size of any transaction ever inserted
    (None while nothing has been): removals leave it alone, so it stays a
    lower bound on every pooled size.
    """

    def __init__(self) -> None:
        self.txs: dict[Hash, Transaction] = {}
        self.spent_outpoints: dict[Outpoint, Hash] = {}
        self.min_size: int | None = None

    def add(self, tx: Transaction, utxo: Mapping[Outpoint, Entry]) -> bool:
        """Admit ``tx`` if it is new, valid against ``utxo``, and conflict-free."""
        h = txid(tx)
        if h in self.txs:
            return False
        spent = self.spent_outpoints
        for op in tx.inputs:
            if op in spent:
                return False
        if not tx_valid(tx, utxo):
            return False
        self._insert(h, tx)
        return True

    def copy(self) -> "Mempool":
        """An independent pool holding the same transactions in the same arrival order."""
        pool = Mempool()
        pool.txs = self.txs.copy()
        pool.spent_outpoints = self.spent_outpoints.copy()
        pool.min_size = self.min_size
        return pool

    def insert_unchecked(self, tx: Transaction) -> None:
        """Insert without validation. For bootstrap and tests only."""
        self._insert(txid(tx), tx)

    def _insert(self, h: Hash, tx: Transaction) -> None:
        self.txs[h] = tx
        for op in tx.inputs:
            self.spent_outpoints[op] = h
        s = tx.nominal_size_bytes
        if self.min_size is None or s < self.min_size:
            self.min_size = s

    def remove(self, h: Hash) -> None:
        tx = self.txs.pop(h, None)
        if tx is not None:
            for op in tx.inputs:
                if self.spent_outpoints.get(op) == h:
                    del self.spent_outpoints[op]

    def apply_block(self, block: Block) -> None:
        """Drop transactions included in ``block`` or conflicting with it.

        One pass over each input: the pooled spender of an outpoint the block
        spends is either the included transaction itself or a conflict.
        """
        spent = self.spent_outpoints
        for tx in block.transactions:
            h = txid(tx)
            for op in tx.inputs:
                c = spent.pop(op, None)
                if c is not None and c != h:
                    self.remove(c)
            self.txs.pop(h, None)

    def revalidate(self, utxo: Mapping[Outpoint, Entry]) -> list[Hash]:
        """Drop every pooled transaction no longer valid; returns dropped ids."""
        dropped = [h for h, tx in self.txs.items() if not tx_valid(tx, utxo)]
        for h in dropped:
            self.remove(h)
        return dropped


Entry = tuple[Address, int]  # an unspent output: (payee, value)
# a block's effect on its parent's UTXO set: (spent, created) (outpoint, entry) pairs
Delta = tuple[tuple[tuple[Outpoint, Entry], ...], tuple[tuple[Outpoint, Entry], ...]]


def _spend(tx: Transaction, get: Callable[[Outpoint], Entry | None], spent: dict[Outpoint, Entry]) -> bool:
    """The one spend rule, of pool admission and block validation alike:
    every input is found through ``get`` and not yet in ``spent`` (which
    records it), and the outputs pay out no more than the inputs hold."""
    total_in = 0
    for op in tx.inputs:
        entry = get(op)
        if entry is None or op in spent:
            return False
        spent[op] = entry
        total_in += entry[1]
    for _, v in tx.outputs:
        total_in -= v
    return total_in >= 0


def tx_valid(tx: Transaction, utxo: Mapping[Outpoint, Entry]) -> bool:
    """``tx`` may spend from ``utxo`` on its own: ``_spend`` from nothing spent."""
    return _spend(tx, utxo.get, {})


@dataclass(frozen=True, slots=True)
class AddOutcome:
    """What ChainState.add_block did: extended the tip, reorged, or parked a side block."""

    kind: str  # "extended" | "reorged" | "side"
    removed: tuple[Block, ...] = ()
    added: tuple[Block, ...] = ()

    @property
    def tip_changed(self) -> bool:
        return self.kind != "side"


_SIDE = AddOutcome("side")  # immutable, so every side block shares it


class ChainState:
    """One node's history of validated blocks: heights, the tip, and the tip's UTXO set.

    ``height`` is the tip's height, read from ``heights``.

    Tip selection is longest chain; ties keep the incumbent (first
    received wins). ``checked`` maps a header hash to ``(block, leaves,
    delta)`` for a block whose content passed the Merkle and
    transaction-validity checks (see ``_check_content``): the block, its
    Merkle leaves, and its effect on its parent's UTXO set, ``(spent,
    created)`` tuples of (outpoint, entry) pairs, which ``_move`` replays
    to walk a UTXO set along the chain. Chains may share one map only if
    they start from the same genesis hash and UTXO set, as the nodes of
    one network do; by default a chain keeps its own.
    """

    def __init__(
        self,
        genesis_hash: Hash,
        genesis_utxo: dict[Outpoint, Entry],
        checked: dict[Hash, tuple[Block, tuple[Hash, ...], Delta]] | None = None,
    ):
        self.genesis_hash = Hash(genesis_hash)
        self.checked = {} if checked is None else checked
        self.tip_hash = self.genesis_hash
        self.heights: dict[Hash, int] = {self.genesis_hash: 0}
        self.utxo: dict[Outpoint, Entry] = dict(genesis_utxo)

    @property
    def height(self) -> int:
        return self.heights[self.tip_hash]

    def knows(self, h: Hash) -> bool:
        return h in self.heights

    # -- UTXO walks ------------------------------------------------------

    def utxo_view_at(self, block_h: Hash) -> Mapping[Outpoint, Entry]:
        """The read-only UTXO set as of ``block_h``, a known block: the tip's
        set itself, or a copy of it moved to ``block_h``."""
        if block_h == self.tip_hash:
            return MappingProxyType(self.utxo)
        utxo = dict(self.utxo)
        self._move(utxo, *self._paths_between(self.tip_hash, block_h))
        return MappingProxyType(utxo)

    def _move(self, utxo: dict[Outpoint, Entry], back: Sequence[Hash], forward: Sequence[Hash]) -> None:
        """Undo the deltas of ``back`` on ``utxo``, then apply those of ``forward``."""
        checked = self.checked
        for h in back:
            spent, created = checked[h][2]
            for op, _ in created:
                del utxo[op]
            utxo.update(spent)
        for h in forward:
            spent, created = checked[h][2]
            for op, _ in spent:
                del utxo[op]
            utxo.update(created)

    def _paths_between(self, frm: Hash, to: Hash) -> tuple[list[Hash], list[Hash]]:
        """Blocks to unapply from ``frm`` and apply toward ``to``: both ends step
        down by height to the fork point, reading each parent from its header."""
        checked, heights = self.checked, self.heights
        back: list[Hash] = []
        forward: list[Hash] = []
        a, b = frm, to
        for _ in range(heights[a] - heights[b]):
            back.append(a)
            a = checked[a][0].header.prev_block_hash
        for _ in range(heights[b] - heights[a]):
            forward.append(b)
            b = checked[b][0].header.prev_block_hash
        while a != b:
            back.append(a)
            a = checked[a][0].header.prev_block_hash
            forward.append(b)
            b = checked[b][0].header.prev_block_hash
        forward.reverse()
        return back, forward

    # -- growth ----------------------------------------------------------

    def add_block(self, block: Block) -> AddOutcome:
        """Add a validated block; adopt it if it makes the longest chain.

        The caller must have validated the block against this chain. A
        block absent from ``checked`` (in the simulator, only a miner's
        own) is checked here, which records it; a failing check raises
        ``ValueError`` naming the reason. Equal-length forks never
        displace the tip.
        """
        h = block_hash(block)
        parent = block.header.prev_block_hash
        if parent not in self.heights:
            raise ValueError("parent of added block is unknown")
        if h in self.heights:
            return _SIDE
        if h not in self.checked:
            reason = _check_content(block, self, None)
            if reason is not Reason.OK:
                raise ValueError(f"added block fails its content checks: {reason.value}")
        height = self.heights[parent] + 1
        self.heights[h] = height
        if parent == self.tip_hash:
            self._move(self.utxo, (), (h,))
            self.tip_hash = h
            return AddOutcome("extended", added=(block,))
        if height <= self.height:
            return _SIDE
        back, forward = self._paths_between(self.tip_hash, h)
        self._move(self.utxo, back, forward)
        self.tip_hash = h
        checked = self.checked
        return AddOutcome("reorged", tuple(checked[bh][0] for bh in back), tuple(checked[fh][0] for fh in forward))


def _block_delta(block: Block, chain: ChainState) -> Delta | None:
    """The block's effect on its parent's UTXO set, looking each input up
    once: the (outpoint, entry) pairs it spends, in input order, then those
    it creates. None if an input is missing from the parent's view or spent
    earlier in the block, or a transaction pays out more than its inputs hold."""
    get = chain.utxo_view_at(block.header.prev_block_hash).get
    spent: dict[Outpoint, Entry] = {}
    cb = block.coinbase
    created = [((txid(cb), 0), (cb.coinbase_address, cb.reward))]
    for tx in block.transactions:
        if not _spend(tx, get, spent):
            return None
        h = txid(tx)
        created.extend(((h, i), out) for i, out in enumerate(tx.outputs))
    return tuple(spent.items()), tuple(created)


# --- advert construction ------------------------------------------------------


@dataclass(frozen=True, slots=True)
class SelectionPolicy:
    """Greedy first-fit selection in arrival order under the block size cap."""

    max_block_size_bytes: int = MAX_BLOCK_SIZE_BYTES
    coinbase_size_bytes: int = DEFAULT_COINBASE_SIZE_BYTES


def make_advert(
    address: Address,
    tip: Hash,
    mempool: Mempool,
    policy: SelectionPolicy = SelectionPolicy(),
    limit: int | None = None,
) -> Advert:
    """Announce the next block: tip, miner address, and the chosen tx list.

    Transactions are taken in arrival order, from the first ``limit`` of
    the pool (all of it when None), while the modeled block size stays
    under the cap, skipping any that conflict with one already chosen. The
    scan stops once the room left is below ``mempool.min_size``, when
    nothing pooled can fit. An empty mempool yields an empty list: a
    coinbase-only block is legal.
    """
    budget = policy.max_block_size_bytes - HEADER_WIRE_BYTES - policy.coinbase_size_bytes
    chosen: list[Hash] = []
    spent: set[Outpoint] = set()
    used = 0
    smallest = mempool.min_size
    for h, tx in islice(mempool.txs.items(), limit):
        s = tx.nominal_size_bytes
        if used + s > budget:
            continue
        if not spent.isdisjoint(tx.inputs):
            continue
        chosen.append(h)
        spent.update(tx.inputs)
        used += s
        if budget - used < smallest:  # nothing pooled fits any more
            break
    return _pool_advert(address, tuple(chosen), tip)


def missing_txs(advert: Advert, store: dict[Hash, Transaction]) -> list[Hash]:
    """Advertised hashes not in ``store``, a txid map, in advert order."""
    hashes = advert.tx_hashes
    if all(map(store.__contains__, hashes)):  # nothing to pull, as in over 99% of calls
        return []
    return [h for h in hashes if h not in store]


def make_block_seed(block: Block) -> BlockSeed:
    return BlockSeed(coinbase=block.coinbase, header=block.header)


@dataclass(frozen=True, slots=True)
class ReconstructionResult:
    block: Block | None
    reason: Reason | None = None
    missing: tuple[Hash, ...] = ()

    @property
    def ok(self) -> bool:
        return self.block is not None


_NO_ADVERT = ReconstructionResult(None, Reason.NO_MATCHING_ADVERT)  # immutable, so shared


def reconstruct_block(
    seed: BlockSeed, registry: AdvertRegistry, store: dict[Hash, Transaction]
) -> ReconstructionResult:
    """Assemble the full block a seed refers to.

    Looks up the advert under (seed address, header's prev hash) and
    resolves the advertised hashes from ``store``, a txid map. Merkle
    agreement is validation's job, not reconstruction's.
    """
    advert = registry.lookup(seed.coinbase_address, seed.header.prev_block_hash)
    if advert is None:
        return _NO_ADVERT
    missing = missing_txs(advert, store)
    if missing:
        return ReconstructionResult(None, Reason.MISSING_TXS, tuple(missing))
    txs = tuple(map(store.__getitem__, advert.tx_hashes))
    return ReconstructionResult(Block(header=seed.header, coinbase=seed.coinbase, transactions=txs))


# --- validation ---------------------------------------------------------------


def validate_block(block: Block, registry: AdvertRegistry, chain: ChainState) -> Reason:
    """Apply the acceptance ladder in fixed order; return the first failure's
    reason, or ``Reason.OK``.

    1. an advert exists for (coinbase address, prev hash)
    2. the block's coinbase pays the advertised address
    3. the previous block is known
    4. the header hash meets its difficulty target
    5. the non-coinbase tx ids equal the advertised list exactly, in order
    6. the recomputed Merkle root matches the header
    7. every transaction is valid against the parent's UTXO view,
       with no outpoint spent twice in the block (see ``_spend``)
    """
    advert = registry.lookup(block.coinbase.coinbase_address, block.header.prev_block_hash)
    if advert is None:
        return Reason.NO_MATCHING_ADVERT
    if advert.coinbase_address != block.coinbase.coinbase_address:
        return Reason.COINBASE_MISMATCH
    return _check_content(block, chain, advert.tx_hashes)


def validate_block_baseline(block: Block, chain: ChainState) -> Reason:
    """The full-block relay rule: no advert conditions, everything else equal."""
    return _check_content(block, chain, None)


def _check_content(block: Block, chain: ChainState, listed: tuple[Hash, ...] | None) -> Reason:
    """Steps 3-7 of the ladder; step 5 only when an advertised list is given.

    Steps 6 and 7 run once per network: a block whose header hash and Merkle
    leaves equal an entry of ``chain.checked`` passed them already, and the
    entry's delta is its delta at every sharing chain. Equal leaves mean
    equal transactions (a txid covers every field), and the UTXO view at a
    known parent depends only on the parent's ancestry, which its hash
    fixes, and on the genesis the sharing chains have in common.
    """
    header = block.header
    if not chain.knows(header.prev_block_hash):
        return Reason.WRONG_PREV_HASH
    if not check_pow(header):
        return Reason.POW_FAIL
    leaves = block.all_txids()
    if listed is not None and leaves[1:] != listed:
        return Reason.TX_LIST_MISMATCH
    h = header_hash(header)
    rec = chain.checked.get(h)
    if rec is None or rec[1] != leaves:
        if merkle_root(leaves) != header.merkle_root:
            return Reason.MERKLE_MISMATCH
        delta = _block_delta(block, chain)
        if delta is None:
            return Reason.INVALID_TX
        chain.checked[h] = (block, leaves, delta)
    return Reason.OK


# --- node-level acceptance ----------------------------------------------------


def on_block_accepted(chain: ChainState, pool: Mempool, registry: AdvertRegistry, block: Block) -> AddOutcome:
    """Absorb a validated block into one node's chain, pool and registry;
    return what the chain did with it.

    The tip advances (or reorgs) per longest-chain rules; included and
    conflicting transactions leave the pool; transactions from abandoned
    branches return when still valid. On a tip change, adverts two or more
    blocks behind the new tip are evicted. The own-block and other-block
    cases are symmetric; choosing the next advert is the caller's concern.
    """
    outcome = chain.add_block(block)
    for blk in outcome.added:
        pool.apply_block(blk)
    if outcome.removed:
        utxo = chain.utxo
        for blk in outcome.removed:
            for tx in blk.transactions:
                pool.add(tx, utxo)
        pool.revalidate(utxo)
    if outcome.tip_changed:
        registry.evict_stale(chain.heights, chain.height)
    return outcome
