"""Deterministic discrete-event network simulator for block relay strategies.

A scenario describes a connected topology of mining nodes, link latency
and bandwidth, a Poisson transaction workload, and one of three relay
strategies:

* ``BASELINE_FULL_BLOCK`` — mined blocks travel whole.
* ``ADVERT_PROTOCOL``    — the next block's transaction list is announced
  when mining starts, peers pull missing transactions during the search,
  and the mined block travels as a compact seed.
* ``LATE_ADVERT``        — the advert is sent only once the block is
  found, back to back with its seed.

Gossip is flooding with content-hash deduplication. Every send, delivery,
arrival, block find, acceptance, and tip switch is appended to an event
log; given equal scenarios (seed included) two runs produce byte-identical
logs. Mining time is drawn from the exponential law of independent hash
trials and restarts whenever a node's tip changes; blocks are then
assembled by the real search at a low proof target so that every relayed
block passes full validation.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import random
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from enum import Enum
from functools import cache, partial
from heapq import heappop, heappush
from typing import Iterator, NamedTuple, get_type_hints

from .core import (
    HEADER_WIRE_BYTES,
    Address,
    Block,
    CoinbaseTransaction,
    CompactTarget,
    Hash,
    Transaction,
    TxRequest,
    TxResponse,
    block_hash,
    hash_bytes,
    header_hash,
    serialize,
    serialized_size,
    txid,
)
from .mining import BlockTemplate, HashRate, MiningBudget, mine, sample_mining_time
from .protocol import (
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

LOG_SCHEMA_VERSION = 1
GENESIS_HASH = hash_bytes(b"advertsim-genesis")
FAUCET_ADDRESS = Address(hash_bytes(b"advertsim-faucet")[:20])
FAUCET_VALUE = 1_000
_FAUCET_ENTRY = (FAUCET_ADDRESS, FAUCET_VALUE)
_SIM_POW_BUDGET = MiningBudget(1 << 26)

NodeId = int


class RelayStrategy(str, Enum):
    BASELINE_FULL_BLOCK = "BASELINE_FULL_BLOCK"
    ADVERT_PROTOCOL = "ADVERT_PROTOCOL"
    LATE_ADVERT = "LATE_ADVERT"


@dataclass(frozen=True, slots=True)
class Link:
    """Symmetric point-to-point link between two nodes."""

    a: NodeId
    b: NodeId
    latency: float
    bandwidth: float

    def __post_init__(self) -> None:
        if self.a == self.b:
            raise ValueError("self-links are not allowed")
        if self.latency < 0:
            raise ValueError("latency must be >= 0")
        if self.bandwidth <= 0:
            raise ValueError("bandwidth must be > 0")

    def delay(self, size: int) -> float:
        """Seconds for a message of ``size`` modelled bytes to cross the link.

        ``_Sim._send``, which queues each copy at its arrival time, and the
        log writer, which rebuilds that time from the copy's send, inline
        this same expression, in this order, so every arrival time equals
        ``t_send + link.delay(size)`` bit for bit.
        """
        return self.latency + size / self.bandwidth


# Seeds and blocks are deduplicated by header hash; only these two families
# need a content key.
_KEY_TAGS = {Transaction: b"\x01", Advert: b"\x04"}


def gossip_dedup_key(message: Transaction | Advert) -> Hash:
    """Stable content hash identifying a transaction or advert across the network."""
    return hash_bytes(_KEY_TAGS[type(message)] + serialize(message))


class ScenarioError(ValueError):
    """A scenario failed validation; ``field`` names the offender."""

    def __init__(self, field_name: str, message: str) -> None:
        super().__init__(f"{field_name}: {message}")
        self.field = field_name


_DEF_TOPOLOGY = {"kind": "random_regular", "degree": 4}
_DEF_LATENCY = {"kind": "constant", "value": 0.05}
_DEF_BANDWIDTH = {"kind": "constant", "value": 1_000_000.0}
# The least nominal sizes the constructors accept: the (fixed-width) serialized
# sizes of a faucet transaction, one input and one output, and of a coinbase.
_TX_SIZE_FLOOR = len(serialize(Transaction(inputs=((GENESIS_HASH, 0),), outputs=(_FAUCET_ENTRY,))))
_COINBASE_SIZE_FLOOR = len(serialize(CoinbaseTransaction(coinbase_address=FAUCET_ADDRESS, reward=0)))


def _finite_number(v) -> bool:
    if isinstance(v, bool):
        return False
    return isinstance(v, int) or (isinstance(v, float) and math.isfinite(v))


def _int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


@dataclass
class Scenario:
    """Declarative experiment description. Unset fields take the defaults below."""

    node_count: int = 16
    topology: dict = field(default_factory=lambda: dict(_DEF_TOPOLOGY))
    hash_rate: float | list[float] = 10.0
    difficulty_bits: int = 12
    pow_proof_bits: int = 0
    tx_rate: float = 10.0
    tx_size_bytes: int = 500
    coinbase_size_bytes: int = 200
    initial_mempool_txs: int = 0
    horizon_seconds: float = 300.0
    seed: int = 1
    relay_strategy: RelayStrategy = RelayStrategy.ADVERT_PROTOCOL
    block_size_cap_bytes: int = 1_000_000
    link_latency: dict = field(default_factory=lambda: dict(_DEF_LATENCY))
    link_bandwidth: dict = field(default_factory=lambda: dict(_DEF_BANDWIDTH))
    processing_delay_seconds: float = 0.0
    pending_seed_buffer: int = 32
    block_reward: int = 50
    name: str = "scenario"

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        """Strict construction: unknown fields are rejected to catch typos."""
        version = data.get("schema_version", 1)
        if not _int(version) or version != 1:
            raise ScenarioError("schema_version", "must be 1")
        known = set(cls.__dataclass_fields__)
        unknown = sorted(set(data) - known - {"schema_version"})
        if unknown:
            raise ScenarioError(unknown[0], "unknown scenario field")
        kwargs = {k: v for k, v in data.items() if k in known}
        if "relay_strategy" in kwargs:
            try:
                kwargs["relay_strategy"] = RelayStrategy(kwargs["relay_strategy"])
            except ValueError:
                raise ScenarioError(
                    "relay_strategy",
                    f"must be one of {[s.value for s in RelayStrategy]}",
                ) from None
        sc = cls(**kwargs)
        sc.validate()
        return sc

    def to_dict(self) -> dict:
        d = {"schema_version": 1}
        for k in self.__dataclass_fields__:
            v = getattr(self, k)
            d[k] = v.value if isinstance(v, RelayStrategy) else v
        return d

    def canonical_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def hash_rates(self) -> list[float]:
        if isinstance(self.hash_rate, (int, float)):
            return [float(self.hash_rate)] * self.node_count
        return [float(r) for r in self.hash_rate]

    def validate(self) -> list[tuple[int, int]]:
        """Check every field; return the topology's edge list, sampled as the run samples it."""
        for name in _INT_FIELDS:
            if not _int(getattr(self, name)):
                raise ScenarioError(name, "must be an integer")
        for name in _FLOAT_FIELDS:
            if not _finite_number(getattr(self, name)):
                raise ScenarioError(name, "must be a finite number")
        if self.node_count < 1:
            raise ScenarioError("node_count", "must be >= 1")
        per_node = isinstance(self.hash_rate, (list, tuple))
        rates = self.hash_rate if per_node else [self.hash_rate]
        if not all(_finite_number(r) for r in rates):
            raise ScenarioError("hash_rate", "must be a finite number or a list of them")
        if per_node and len(rates) != self.node_count:
            raise ScenarioError("hash_rate", "per-node list length must equal node_count")
        if not all(r > 0 for r in rates):
            raise ScenarioError("hash_rate", "all hash rates must be positive")
        if not 0 <= self.difficulty_bits <= 64:
            raise ScenarioError("difficulty_bits", "must be in [0, 64]")
        if not 0 <= self.pow_proof_bits <= 12:
            raise ScenarioError("pow_proof_bits", "must be in [0, 12]")
        if self.tx_rate < 0:
            raise ScenarioError("tx_rate", "must be >= 0")
        if self.tx_size_bytes < _TX_SIZE_FLOOR:
            raise ScenarioError("tx_size_bytes", f"must be >= {_TX_SIZE_FLOOR}, a transaction's serialized size")
        if self.coinbase_size_bytes < _COINBASE_SIZE_FLOOR:
            msg = f"must be >= {_COINBASE_SIZE_FLOOR}, a coinbase's serialized size"
            raise ScenarioError("coinbase_size_bytes", msg)
        if self.initial_mempool_txs < 0:
            raise ScenarioError("initial_mempool_txs", "must be >= 0")
        if not self.horizon_seconds > 0:
            raise ScenarioError("horizon_seconds", "must be positive")
        cap_floor = HEADER_WIRE_BYTES + self.coinbase_size_bytes
        if self.block_size_cap_bytes < cap_floor:
            raise ScenarioError("block_size_cap_bytes", f"must be >= {cap_floor}, a header and a coinbase")
        if self.processing_delay_seconds < 0:
            raise ScenarioError("processing_delay_seconds", "must be >= 0")
        if self.pending_seed_buffer < 1:
            raise ScenarioError("pending_seed_buffer", "must be >= 1")
        if self.block_reward < 0:
            raise ScenarioError("block_reward", "must be >= 0")
        # run, sweep and compare join the name into an output path
        name = self.name
        if not isinstance(name, str) or name in ("", ".", "..") or "/" in name or "\\" in name:
            raise ScenarioError("name", "must be a non-empty string that is one path component")
        # the simulator tests the strategy by identity, so an equal string would
        # run a mix of the three
        if not isinstance(self.relay_strategy, RelayStrategy):
            raise ScenarioError(
                "relay_strategy", f"must be a RelayStrategy member, one of {[s.value for s in RelayStrategy]}"
            )
        _validate_dist("link_latency", self.link_latency, allow_zero=True)
        _validate_dist("link_bandwidth", self.link_bandwidth, allow_zero=False)
        topology = self.topology
        # the sampler reads the spec back from JSON, which turns a tuple into a list
        if isinstance(topology, dict) and topology.get("kind") == "edges":
            if not isinstance(topology.get("edges"), list):
                raise ScenarioError("topology", "explicit topology needs an 'edges' list")
        try:
            spec = json.dumps(topology, sort_keys=True)
        except (TypeError, ValueError):
            raise ScenarioError("topology", "must be JSON data") from None
        # raises ScenarioError on malformed or disconnected topologies
        return list(_edges(spec, self.node_count, self.seed))


# Ints and finite numbers, bools excluded, checked in declaration order: a
# float such as 500.0 passes the range checks and then fails deep in the run.
# hash_rate, a float or a list of them, is checked on its own.
_FIELD_TYPES = get_type_hints(Scenario)
_INT_FIELDS = tuple(name for name, t in _FIELD_TYPES.items() if t is int)
_FLOAT_FIELDS = tuple(name for name, t in _FIELD_TYPES.items() if t is float)


def _validate_dist(field_name: str, spec, allow_zero: bool) -> None:
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ScenarioError(field_name, "must be a dict with a 'kind'")
    kind = spec["kind"]
    if kind == "constant":
        v = spec.get("value")
        if not _finite_number(v):
            raise ScenarioError(field_name, "constant distribution needs a finite numeric 'value'")
        if v < 0 or (not allow_zero and v <= 0):
            raise ScenarioError(field_name, "value must be positive" if not allow_zero else "value must be >= 0")
    elif kind == "uniform":
        low, high = spec.get("low"), spec.get("high")
        if not _finite_number(low) or not _finite_number(high):
            raise ScenarioError(field_name, "uniform distribution needs finite numeric 'low' and 'high'")
        if low > high:
            raise ScenarioError(field_name, "low must be <= high")
        if low < 0 or (not allow_zero and low <= 0):
            raise ScenarioError(field_name, "bounds must be positive" if not allow_zero else "bounds must be >= 0")
    else:
        raise ScenarioError(field_name, f"unknown distribution kind {kind!r}")


def _dist_sample(spec: dict, rng: random.Random) -> float:
    if spec["kind"] == "constant":
        return float(spec["value"])
    return rng.uniform(float(spec["low"]), float(spec["high"]))


def build_topology(spec: dict, n: int, rng: random.Random) -> list[tuple[int, int]]:
    """Return the undirected edge list for a topology spec; must be connected."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ScenarioError("topology", "must be a dict with a 'kind'")
    kind = spec["kind"]
    if kind == "ring":
        if n < 2:
            edges = []
        elif n == 2:
            edges = [(0, 1)]
        else:
            edges = [(min(i, (i + 1) % n), max(i, (i + 1) % n)) for i in range(n)]
    elif kind == "complete":
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    elif kind == "random_regular":
        degree = spec.get("degree")
        if not _int(degree) or degree < 1:
            raise ScenarioError("topology", "random_regular needs an integer 'degree' >= 1")
        if degree >= n - 1:
            # a d-regular graph on n <= d+1 nodes is the complete graph
            edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
        else:
            if (n * degree) % 2 != 0:
                raise ScenarioError("topology", "node_count * degree must be even")
            edges = _random_regular(n, degree, rng)
    elif kind == "edges":
        raw = spec.get("edges")
        if not isinstance(raw, list):
            raise ScenarioError("topology", "explicit topology needs an 'edges' list")
        seen = set()
        edges = []
        for e in raw:
            if not isinstance(e, (list, tuple)) or len(e) != 2 or not all(_int(v) for v in e):
                raise ScenarioError("topology", f"each edge must be a pair of integer node ids: {e!r}")
            a, b = e
            if a == b:
                raise ScenarioError("topology", "self-links are not allowed")
            if not (0 <= a < n and 0 <= b < n):
                raise ScenarioError("topology", f"edge {e} out of range")
            key = (min(a, b), max(a, b))
            if key in seen:
                raise ScenarioError("topology", f"duplicate edge {e}")
            seen.add(key)
            edges.append(key)
    else:
        raise ScenarioError("topology", f"unknown topology kind {kind!r}")
    if n > 1 and not _connected(n, edges):
        raise ScenarioError("topology", "topology is not connected")
    return edges


@cache
def _edges(spec_json: str, n: int, seed: int) -> tuple[tuple[int, int], ...]:
    """``build_topology`` of a canonical JSON spec on the scenario's own rng stream.

    A pure function of its arguments, so every validation and run of the
    same topology, node count and seed (a compare's strategies, a sweep's
    values, repeated runs) shares one sample. The cache is unbounded: a
    sweep validates all its values before it runs any, so a bound smaller
    than the sweep would evict each sample before its run and draw it again.
    """
    return tuple(build_topology(json.loads(spec_json), n, random.Random(f"{seed}/topology")))


def _random_regular(n: int, d: int, rng: random.Random) -> list[tuple[int, int]]:
    # pairing model with rejection; retried until simple and connected
    for _ in range(5000):
        stubs = [i for i in range(n) for _ in range(d)]
        rng.shuffle(stubs)
        pairs = set()
        ok = True
        for i in range(0, len(stubs), 2):
            a, b = stubs[i], stubs[i + 1]
            if a == b or (min(a, b), max(a, b)) in pairs:
                ok = False
                break
            pairs.add((min(a, b), max(a, b)))
        if ok and _connected(n, pairs):
            return sorted(pairs)
    # a pairing is simple with probability about exp(-(d*d - 1) / 4), so from
    # degree 6 on the loop above rarely succeeds: switch the last pairing's
    # edges until it is simple and connected
    return _switched_to_simple(n, stubs, rng)


def _switched_to_simple(n: int, stubs: list[int], rng: random.Random) -> list[tuple[int, int]]:
    """The pairing of consecutive ``stubs``, made simple and connected by
    double-edge swaps, which keep every degree: while a self-loop or repeated
    edge is left, swap one with a random edge into two new simple edges, so
    each swap removes one; then, while the graph is disconnected, swap two
    random edges, keeping it simple."""
    edges = [(min(a, b), max(a, b)) for a, b in zip(stubs[::2], stubs[1::2])]
    count = Counter(edges)
    for _ in range(100 * len(edges)):
        bad = [i for i, (a, b) in enumerate(edges) if a == b or count[a, b] > 1]
        if not bad and _connected(n, edges):
            return sorted(edges)
        i = rng.choice(bad) if bad else rng.randrange(len(edges))
        j = rng.randrange(len(edges))
        (a, b), (c, e) = edges[i], edges[j]
        if rng.random() < 0.5:
            c, e = e, c
        new = (min(a, c), max(a, c)), (min(b, e), max(b, e))
        if a == c or b == e or new[0] == new[1] or count[new[0]] or count[new[1]]:
            continue
        for k, edge in zip((i, j), new):
            count[edges[k]] -= 1
            count[edge] += 1
            edges[k] = edge
    raise ScenarioError("topology", "failed to sample a connected regular graph")


def _connected(n: int, edges) -> bool:
    adj: dict[int, list[int]] = {i: [] for i in range(n)}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    seen = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for v in frontier:
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return len(seen) == n


# --- event log ------------------------------------------------------------


# Compact JSON; sorted keys only matter for the meta line.
_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
_CHUNK_LINES = 1024


class LogRecord(NamedTuple):
    """One simulator event. Unused columns hold '' / -1 / 0.

    The log writer relies on the column types: ``t`` and ``val`` hold
    floats; ``src``, ``dst``, ``size`` and ``mid`` hold ints, never bools;
    the string columns hold fixed words and hex ids, which need no escaping.
    A simulated log holds a flood's sends as one record whose ``dst`` is the
    tuple of its destinations and whose ``mid`` is its first copy's, and each
    delivery as that ``mid`` (see ``EventLog``); iterating the log yields one
    record per copy, with ints.
    """

    t: float
    kind: str  # meta|send|deliver|tx_arrival|block_found|block_accept|tip_adopt
    src: int
    dst: int  # held by a simulated log's flood as tuple[int, ...]
    msg: str  # message family for send/deliver
    size: int
    mid: int  # message instance id, send/deliver pairs share it
    oid: str  # content id (16 hex chars)
    ref: str  # related id (block_found: parent)
    val: float  # height / cumulative post-find path bytes


# Builds a record from a ready tuple without LogRecord's Python-level __new__;
# every record the simulator makes per message or per block uses it.
_new_record = tuple.__new__


class EventLog:
    """Append-only record stream, serializable to newline-delimited JSON.

    A simulated log holds its run's links (``links[src][dst]``, a node's
    neighbour map) and its records in a held form:

    * a flood, the copies one ``_Sim._send`` call sends, is one ``send``
      record, entered in ``records`` once per copy and back to back. Its
      ``dst`` is the tuple of destinations, ascending, and its ``mid`` the
      first copy's; copy *k* goes to ``dst[k]`` under ``mid + k``. Every other
      column is the copies' own;
    * a delivery is the very ``mid`` object of a flood logged earlier, and
      stands for its copy that arrives next: by arrival time, then copy index,
      as the simulator's heap pops them. Its ``deliver`` record is that copy's
      ``send`` at ``t + link.delay(size)``, which this class alone recomputes,
      bit for bit the time the simulator queued.

    Read records by iterating the log, which expands both; ``records`` has
    one entry per record. ``lines``, ``write`` and ``sha256`` serialize the
    held form directly, in one pass of their own, with no expanded record
    built. A log without links (read from a file, or built by hand) holds
    one plain record per entry.
    """

    def __init__(self, meta: dict, links: list[dict[int, Link]] | None = None) -> None:
        self.meta = meta
        self.links = links
        self.records: list[LogRecord | int] = []

    def __iter__(self) -> Iterator[LogRecord]:
        """Every record in log order: each copy of a flood as its own send, each
        delivery rebuilt from its copy's send."""
        links = self.links
        if links is None:
            yield from self.records
            return
        ahead: dict[int, list] = {}  # by flood mid: (arrival, k, send) of its copies ahead, last first
        flood = None
        for r in self.records:
            if r.__class__ is int:
                copies = ahead[r]
                t, _, send = copies.pop()
                if not copies:
                    del ahead[r]
                yield _new_record(LogRecord, (t, "deliver", *send[2:]))
                continue
            if r is flood:  # its next copy
                k += 1
            elif r.kind == "send":
                flood, k = r, 0
                copies = ahead[r.mid] = []
            else:
                yield r
                continue
            t, kind, src, dsts, msg, size, mid, oid, ref, val = r
            send = _new_record(LogRecord, (t, kind, src, dsts[k], msg, size, mid + k, oid, ref, val))
            copies.append((t + links[src][dsts[k]].delay(size), k, send))
            if k == len(dsts) - 1:
                copies.sort(reverse=True)
            yield send

    def lines(self) -> Iterator[str]:
        for text in self._texts():
            yield from text.splitlines()

    def _texts(self) -> Iterator[str]:
        """The serialized log as newline-terminated lines, _CHUNK_LINES records per piece.

        Bounded pieces keep peak memory at one piece, not one log. A time
        equal to the previous record's reuses its text, except zero, as
        0.0 == -0.0 but the two print differently. A ``size`` or ``val``
        that is the previous record's very object reuses its text too. A
        simulated flood's first copy formats the columns every copy shares
        once; its later copies, the same record object, add only their
        ``dst`` and ``mid``. A delivery, a flood's ``mid``, is written as
        the arrival time and the text after the kind of the flood's next copy
        to arrive, from its copies' ``(arrival, k, tail)``, sorted once, last
        first. It reads ``records`` once, in order, and never iterates the log.

        repr() spells a non-finite float inf or nan, json Infinity or NaN.
        Once one has been formatted (``x - x`` is truthy only for those),
        each piece's text is respelled, as a later piece may reuse a
        formatted text. That is exact: no fixed word or hex id holds either
        substring, and the meta line, which may, is in no piece.
        """
        yield _encode({"meta": self.meta}) + "\n"
        records = self.records
        links = self.links
        ahead: dict[int, list] = {}  # by flood mid: (arrival, k, tail) of its copies ahead, last first
        t_last = t_text = size_text = val_text = None
        size_last = val_last = object()  # the first record's objects differ from it
        flood = None  # the simulated send record whose copies are being written
        non_finite = False  # whether a float formatted so far was inf or nan
        for i in range(0, len(records), _CHUNK_LINES):
            lines = []
            for r in records[i : i + _CHUNK_LINES]:
                if r.__class__ is int:
                    copies = ahead[r]
                    t_arrival, _, tail = copies.pop()
                    if not copies:
                        del ahead[r]
                    if t_arrival != t_last or not t_arrival:
                        t_last, t_text = t_arrival, repr(t_arrival)
                        if t_arrival - t_arrival:
                            non_finite = True
                    lines.append(f'[{t_text},"deliver",{tail}')
                    continue
                if r is flood:  # a later copy: the record's identity proves every other column equal
                    k += 1
                    if k == 1:  # the text the later copies share, made once a flood has one
                        head = f'[{t_text},"send",'
                        src_text = f"{src!r},"
                        middle = f',"{msg}",{size_text},'
                        end = f',"{oid}","{ref}",{val_text}]\n'
                        nbrs = links[src]
                        last = len(dsts) - 1
                    dst = dsts[k]
                    tail = f"{src_text}{dst!r}{middle}{mid + k!r}{end}"
                    link = nbrs[dst]
                    copies.append((t + (link.latency + size / link.bandwidth), k, tail))  # Link.delay, inlined
                    if k == last:
                        copies.sort(reverse=True)
                    lines.append(head + tail)
                    continue
                t, kind, src, dst, msg, size, mid, oid, ref, val = r
                if t != t_last or not t:
                    t_last, t_text = t, repr(t)
                    if t - t:
                        non_finite = True
                if size is not size_last:
                    size_last, size_text = size, repr(size)
                if val is not val_last:
                    val_last, val_text = val, repr(val)
                    if val - val:
                        non_finite = True
                # each line exactly as _encode writes it: json prints ints and
                # finite floats as their repr(), and the string columns are
                # fixed words and hex ids, which need no escaping
                if links is not None and kind == "send":  # a flood's first copy
                    flood, dsts, k = r, dst, 0
                    dst = dst[0]
                    tail = f'{src!r},{dst!r},"{msg}",{size_text},{mid!r},"{oid}","{ref}",{val_text}]\n'
                    link = links[src][dst]
                    arrival = t + (link.latency + size / link.bandwidth)  # Link.delay, inlined
                    copies = ahead[mid] = [(arrival, 0, tail)]
                    lines.append(f'[{t_text},"send",{tail}')
                else:
                    lines.append(
                        f'[{t_text},"{kind}",{src!r},{dst!r},"{msg}",{size_text},{mid!r},"{oid}","{ref}",{val_text}]\n'
                    )
            text = "".join(lines)
            if non_finite:
                text = text.replace("inf", "Infinity").replace("nan", "NaN")
            yield text

    def sha256(self) -> str:
        h = hashlib.sha256()
        for text in self._texts():
            h.update(text.encode())
        return h.hexdigest()

    def write(self, path) -> str:
        """Write the log to ``path``; return the sha256 hex of the bytes written."""
        h = hashlib.sha256()
        with open(path, "wb") as f:
            for text in self._texts():
                chunk = text.encode()
                f.write(chunk)
                h.update(chunk)
        return h.hexdigest()

    @classmethod
    def read(cls, path) -> "EventLog":
        with open(path, encoding="utf-8") as f:
            first = json.loads(f.readline())
            log = cls(first["meta"])
            for line in f:
                vals = json.loads(line)
                log.records.append(LogRecord(float(vals[0]), *vals[1:]))
        return log


@dataclass(slots=True, eq=False)
class _PendingSeed:
    """A relayed seed or full block on its way to acceptance; retried as prerequisites arrive.

    ``sent`` is the send record of the flood it arrived in: its sender,
    family, size, id and path bytes are read, never its time, destinations
    or ``mid``. ``needs`` holds what its last try lacked, to be woken by:
    its advert key, the advertised transactions it could not resolve, or
    its parent's hash. An entry that leaves ``_Node.pending`` keeps it; no
    wake reaches that entry again.
    """

    msg: BlockSeed | Block  # as relayed
    sent: LogRecord
    needs: tuple | frozenset = ()


@dataclass(slots=True, eq=False)
class _Node:
    """One miner's state. Which gossip it has taken in is in ``_Sim.seen``."""

    nid: int
    address: Address
    chain: ChainState
    mempool: Mempool
    rate: HashRate
    mining_rng: random.Random
    registry: AdvertRegistry = field(default_factory=AdvertRegistry)
    neighbors: dict[int, Link] = field(default_factory=dict)  # by ascending neighbour id
    # per excluded neighbour (-1: none), the ascending ids a flood goes to: the
    # dst every such send record shares. Built at the first such flood, as
    # rows built at set-up cost more set-up time than the run saves
    flood_dsts: dict[int, tuple[int, ...]] = field(default_factory=dict)
    tx_store: dict[Hash, Transaction] = field(default_factory=dict)  # every tx ever seen; answers pulls
    pending: dict[Hash, _PendingSeed] = field(default_factory=dict)
    session: int = 0
    started: float = 0.0  # when the current mining session began
    # ADVERT: the session's own advert, chosen when the session starts and
    # flooded at once. LATE chooses its list at the find and sends it after
    # block_found; BASELINE chooses at the find from the pool as the session
    # found it, and never sends it. Not in the registry: that answers for
    # received seeds, and the node's own seed and advert come back only as
    # copies that its ``_Sim.seen`` flag drops.
    advert: Advert | None = None
    pool_at_start: int = 0  # BASELINE: the pool's size when the session began
    # per registered advert's key, its ledger: (time, bytes) of its first
    # arrival, then of each pull request and answer made for it, the bytes that
    # may count as post-find on the critical path. An entry opens when its
    # advert registers and goes when _accept sees the registry evict it
    pull_log: dict[tuple[Address, Hash], list[tuple[float, float]]] = field(default_factory=dict)
    # per requested txid, the ledger its answer is charged to; an evicted
    # advert's ledger is unreachable and its key never registers again
    req_map: dict[Hash, list[tuple[float, float]]] = field(default_factory=dict)


def node_address(nid: int) -> Address:
    return Address(hash_bytes(b"advertsim-node:%d" % nid)[:20])


# --- transaction workload -------------------------------------------------


def _faucet_tx(i: int, rng: random.Random, tx_size_bytes: int) -> Transaction:
    """Spend faucet output ``i`` to an address drawn from ``rng``."""
    fid = hash_bytes(b"advertsim-faucet-tx:%d" % i)
    recipient = Address(rng.randbytes(20))
    return Transaction(inputs=((fid, 0),), outputs=((recipient, FAUCET_VALUE),), nominal_size_bytes=tx_size_bytes)


def _warm_pool(seed: int, initial_mempool_txs: int, tx_size_bytes: int) -> tuple[Mempool, dict]:
    """The warm pool, which nodes only copy, and the genesis UTXO dict: the
    outputs its transactions spend, minted before any chain exists."""
    warm = Mempool()
    rng = random.Random(f"{seed}/warm")
    for i in range(initial_mempool_txs):
        warm.insert_unchecked(_faucet_tx(i, rng, tx_size_bytes))
    return warm, dict.fromkeys(warm.spent_outpoints, _FAUCET_ENTRY)


class _Workload:
    """A scenario's transactions: the warm pool and the faucet arrival stream.

    Both are functions of the five fields of ``_workload``'s key alone (the
    pool of the first three), and transactions are immutable, so every run
    of a key reads one copy: a run copies ``warm`` into each node (a chain
    copies ``genesis_utxo``) and changes neither, and it reads the stream in
    order up to its own ``n_faucet``. Faucet output *i* funds the *i*-th
    transaction: the warm pool spends the first ``initial_mempool_txs``, the
    arrivals the rest.
    """

    def __init__(self, seed: int, initial_mempool_txs: int, tx_size_bytes: int, tx_rate: float, node_count: int):
        self.initial_mempool_txs = initial_mempool_txs
        self.tx_size_bytes = tx_size_bytes
        self.tx_rate = tx_rate
        self.node_count = node_count
        self.warm, self.genesis_utxo = _cached(_POOL, (seed, initial_mempool_txs, tx_size_bytes), _warm_pool)
        self.rng = random.Random(f"{seed}/arrivals")
        self.gap0: float | None = None
        # arrival k: (transaction, origin node, seconds to arrival k + 1,
        # gossip oid, short txid, wire size); drawn when a run first needs it
        self.arrivals: list[tuple[Transaction, int, float, str, str, int]] = []

    def first_gap(self) -> float:
        """Seconds from the start to arrival 0: the stream's first draw."""
        if self.gap0 is None:
            self.gap0 = self.rng.expovariate(self.tx_rate)
        return self.gap0

    def arrival(self, k: int) -> tuple[Transaction, int, float, str, str, int]:
        """Arrival ``k``. Runs read the stream in order after ``first_gap``, so
        the stream's rng draws as one run would: the first gap, then per
        arrival its recipient, its origin and the gap to the next."""
        arrivals = self.arrivals
        if k == len(arrivals):
            rng = self.rng
            tx = _faucet_tx(self.initial_mempool_txs + k, rng, self.tx_size_bytes)
            origin = rng.randrange(self.node_count)
            gap = rng.expovariate(self.tx_rate)
            arrivals.append((tx, origin, gap, gossip_dedup_key(tx).short(), txid(tx).short(), serialized_size(tx)))
        return arrivals[k]


# The cached warm pool and workload, each as [(key, value)] or empty: one
# entry each, so a process holds one of each at a time.
_POOL: list[tuple[tuple, tuple[Mempool, dict]]] = []
_WORKLOAD: list[tuple[tuple, _Workload]] = []


def _cached(cache: list, key: tuple, build):
    """``build(*key)``, kept in the one-entry ``cache``; another key frees the
    entry before building its own."""
    if not cache or cache[0][0] != key:
        cache.clear()
        cache.append((key, build(*key)))
    return cache[0][1]


def _workload(sc: Scenario) -> _Workload:
    """The workload of ``sc``'s seed, ``initial_mempool_txs``, ``tx_size_bytes``,
    ``tx_rate`` and ``node_count``, built on the first run of that key.

    The strategies of a ``compare``, the values of a sweep over any other
    field, and repeated runs share it; its warm pool, keyed by the first
    three fields alone, is shared also across values of ``tx_rate`` and
    ``node_count``. ``cli.main`` drops both as each command ends
    (``drop_workload``).
    """
    key = (sc.seed, sc.initial_mempool_txs, sc.tx_size_bytes, sc.tx_rate, sc.node_count)
    return _cached(_WORKLOAD, key, _Workload)


def drop_workload() -> None:
    """Free the cached workload and warm pool, if any."""
    _WORKLOAD.clear()
    _POOL.clear()


def run_scenario(scenario: Scenario) -> EventLog:
    """Drive every node under the scenario's strategy until the horizon.

    Bitwise deterministic for a given scenario, rng seed included. Raises
    ScenarioError if the scenario is invalid.
    """
    return _Sim(scenario).run()


@contextmanager
def collector_paused() -> Iterator[None]:
    """Pause the cyclic garbage collector for the ``with`` body, then restore
    the caller's setting and collect once.

    A run makes no reference cycles, so the collector frees nothing during
    it; but a log record is a tuple subclass, which CPython never untracks,
    so each full collection would walk every record the growing log holds
    as a tuple: one per flood and per other record; a delivery is its
    flood's int.
    Pause for the log's whole lifetime (run, write, summarize, drop): a
    pause around the run alone moves a pass over every record to the
    caller. The exit collection frees whatever cycles the body did make;
    without it, peak memory creeps over repeated in-process commands.
    It is a full collection over what the body made only: what exists at
    entry is frozen (``gc.freeze``) and unfrozen after it, unless the
    caller already froze objects, whose frozen set is then left alone.
    """
    enabled = gc.isenabled()
    gc.disable()
    freeze = gc.get_freeze_count() == 0
    if freeze:
        gc.freeze()
    try:
        yield
    finally:
        if enabled:
            gc.enable()
        gc.collect()
        if freeze:
            gc.unfreeze()


class _Sim:
    """One run of a scenario.

    ``seen``, the network's deduplication table, maps each gossip oid to one
    flag per node, set once the node takes the message in: one table, not a
    set per node holding nearly every oid. ``path_bytes`` holds one float
    per path-bytes value the forwards carry.
    """

    def __init__(self, sc: Scenario) -> None:
        edges = sc.validate()
        self.sc = sc
        self.strategy = sc.relay_strategy
        self.now = 0.0
        self.seq = 0
        self.mid = 0
        self.heap: list = []
        self.seen: defaultdict[str, bytearray] = defaultdict(partial(bytearray, sc.node_count))
        self.path_bytes: dict[float, float] = {}  # always positive, so 0.0 and -0.0 never merge
        self.find_time: dict[Hash, float] = {}
        self.proc = sc.processing_delay_seconds
        self.policy = SelectionPolicy(
            max_block_size_bytes=sc.block_size_cap_bytes,
            coinbase_size_bytes=sc.coinbase_size_bytes,
        )
        self.difficulty = CompactTarget(sc.difficulty_bits)  # what a session's solve time is drawn at
        self.proof_target = CompactTarget(sc.pow_proof_bits)  # what a found block's header must meet

        # faucet outputs fund every generated transaction; sized with margin
        # and credited to the chains as drawn (see _on_tx_arrival)
        self.n_faucet = n_faucet = sc.initial_mempool_txs + int(sc.tx_rate * sc.horizon_seconds * 3) + 64
        self.faucet_next = sc.initial_mempool_txs  # the warm pool spends the first ids
        self.workload = workload = _workload(sc)
        self.nodes: list[_Node] = []

        rates = sc.hash_rates()
        warm, genesis_utxo = workload.warm, workload.genesis_utxo
        checked: dict = {}  # every chain starts from genesis_utxo, so one record serves all
        for nid in range(sc.node_count):
            chain = ChainState(GENESIS_HASH, genesis_utxo, checked)
            rng = random.Random(f"{sc.seed}/mining/{nid}")
            node = _Node(nid, node_address(nid), chain, warm.copy(), HashRate(rates[nid]), rng)
            node.tx_store = warm.txs.copy()
            self.nodes.append(node)

        link_rng = random.Random(f"{sc.seed}/links")
        for a, b in edges:
            lat = _dist_sample(sc.link_latency, link_rng)
            bw = _dist_sample(sc.link_bandwidth, link_rng)
            link = Link(a, b, lat, bw)
            self.nodes[a].neighbors[b] = link
            self.nodes[b].neighbors[a] = link
        for node in self.nodes:
            node.neighbors = dict(sorted(node.neighbors.items()))

        meta = {
            "schema": LOG_SCHEMA_VERSION,
            "scenario": sc.to_dict(),
            "scenario_sha": hashlib.sha256(sc.canonical_json().encode()).hexdigest()[:16],
            "genesis": GENESIS_HASH.short(),
            "warm_txs": sc.initial_mempool_txs,
            "faucet_outputs": n_faucet,
        }
        self.log = EventLog(meta, [node.neighbors for node in self.nodes])

    # -- helpers ---------------------------------------------------------

    def _schedule(self, t: float, kind: str, a=None, b=None) -> None:
        """Queue a ``found`` or ``tx_arrival`` event; ``_send`` queues copies."""
        self.seq += 1
        heappush(self.heap, (t, self.seq, kind, a, b))

    def _send(
        self, node: _Node, msg, family: str, oid: str, cpb: float, size: int, exclude: int = -1, to: int = -1
    ) -> None:
        """Send ``msg`` from ``node`` to neighbour ``to``, or flood it to every
        neighbour but ``exclude``.

        ``size`` is its modelled size, computed once where the message was
        made; ``cpb`` its critical-path bytes so far. The copies share one
        ``send`` record, the flood's (see ``EventLog``), logged once per copy.
        Copy *k* is queued as ``(arrival, seq, k, record, msg)``: a small
        cached *k*, no per-copy id.
        """
        neighbors = node.neighbors
        if to >= 0:
            dsts = (to,)
        else:
            dsts = node.flood_dsts.get(exclude)
            if dsts is None:
                dsts = node.flood_dsts[exclude] = tuple(d for d in neighbors if d != exclude)
            if not dsts:
                return
        t_send = self.now + self.proc if self.proc else self.now  # at no delay, the clock's own float
        send = _new_record(LogRecord, (t_send, "send", node.nid, dsts, family, size, self.mid + 1, oid, "", cpb))
        append = self.log.records.append
        heap = self.heap
        seq = self.seq
        for k, dst in enumerate(dsts):
            append(send)
            link = neighbors[dst]
            seq += 1
            heappush(heap, (t_send + (link.latency + size / link.bandwidth), seq, k, send, msg))  # Link.delay, inlined
        self.mid += len(dsts)
        self.seq = seq

    # -- lifecycle -------------------------------------------------------

    def run(self) -> EventLog:
        """Run every event up to the horizon and return the log.

        A copy pops as ``(arrival, seq, k, flood's send record, msg)``, the
        only heap entry keyed by an int, and goes to the node at
        ``record.dst[k]``. It is logged as the record's own ``mid``, from
        which the log rebuilds its ``deliver`` record; a copy still in
        flight at the horizon has none.
        """
        sc = self.sc
        for node in self.nodes:
            self._restart_mining(node)
        if sc.tx_rate > 0:
            self._schedule(self.workload.first_gap(), "tx_arrival")
        horizon = sc.horizon_seconds
        heap = self.heap
        records = self.log.records
        nodes = self.nodes
        seen = self.seen
        while heap and heap[0][0] <= horizon:
            t, _, kind, a, b = heappop(heap)
            self.now = t
            if kind.__class__ is int:  # a copy: kind its index, a its flood's send record, b the message
                records.append(a.mid)
                nid = a.dst[kind]
                # only a node's first copy of gossip is handled; txreq and
                # txresp carry the oid "", which no node flags
                if not seen[a.oid][nid]:
                    self._on_deliver(nodes[nid], a, b)
            elif kind == "found":  # a: the finder, b: its mining session
                self._on_found(a, b)
            else:
                self._on_tx_arrival()
        return self.log

    def _announce(self, node: _Node, advert: Advert) -> None:
        """Flood a node's own advert to all its neighbours."""
        oid = gossip_dedup_key(advert).short()
        self.seen[oid][node.nid] = 1
        size = serialized_size(advert)
        self._send(node, advert, "advert", oid, float(size), size)

    def _restart_mining(self, node: _Node) -> None:
        node.session += 1
        node.started = self.now
        if self.strategy is RelayStrategy.ADVERT_PROTOCOL:
            node.advert = make_advert(node.address, node.chain.tip_hash, node.mempool, self.policy)
            self._announce(node, node.advert)
        elif self.strategy is RelayStrategy.BASELINE_FULL_BLOCK:
            node.pool_at_start = len(node.mempool.txs)
        dt = sample_mining_time(node.rate, self.difficulty, node.mining_rng)
        self._schedule(self.now + dt, "found", node.nid, node.session)

    def _template_from(self, node: _Node, advert: Advert, started: float) -> BlockTemplate:
        """The block a session mines: ``advert``'s transactions from the pool,
        stamped with the second the session chose them.

        Built at the find; the pool only grows within a session, so every
        advertised transaction is still in it.
        """
        txs = tuple(node.mempool.txs[h] for h in advert.tx_hashes)
        # seed the extra nonce from the parent so coinbase ids never repeat
        # across blocks by the same miner (duplicate ids would corrupt the
        # UTXO set when forks unwind)
        coinbase = CoinbaseTransaction(
            coinbase_address=node.address,
            reward=self.sc.block_reward,
            extra_nonce=int.from_bytes(advert.prev_block_hash[:8], "big"),
            nominal_size_bytes=self.sc.coinbase_size_bytes,
        )
        return BlockTemplate(
            prev_block_hash=advert.prev_block_hash,
            coinbase=coinbase,
            transactions=txs,
            difficulty_target=self.proof_target,
            base_timestamp=int(started),
            max_size_bytes=self.sc.block_size_cap_bytes,
        )

    # -- handlers --------------------------------------------------------

    def _on_found(self, nid: int, session: int) -> None:
        node = self.nodes[nid]
        if session != node.session:
            return  # tip changed while this sample was pending
        strategy = self.strategy
        if strategy is RelayStrategy.ADVERT_PROTOCOL:
            advert, started = node.advert, node.started
        elif strategy is RelayStrategy.LATE_ADVERT:
            advert, started = make_advert(node.address, node.chain.tip_hash, node.mempool, self.policy), self.now
        else:
            # within a session the pool only grows, in arrival order: its
            # first pool_at_start entries are the pool as the session found it
            advert = make_advert(node.address, node.chain.tip_hash, node.mempool, self.policy, node.pool_at_start)
            started = node.started
        block = mine(self._template_from(node, advert, started), _SIM_POW_BUDGET)
        assert block is not None, "simulation proof target missed its budget"
        bh = block_hash(block)
        oid = bh.short()
        parent = block.header.prev_block_hash
        height = node.chain.heights[parent] + 1
        self.find_time[bh] = self.now
        block_size = serialized_size(block)
        ntx = len(block.transactions)
        record = (self.now, "block_found", nid, -1, "", block_size, ntx, oid, parent.short(), float(height))
        self.log.records.append(_new_record(LogRecord, record))
        if strategy is RelayStrategy.LATE_ADVERT:
            self._announce(node, advert)  # back to back with the seed
        if strategy is RelayStrategy.BASELINE_FULL_BLOCK:
            msg, family, size = block, "block", block_size
        else:
            msg = make_block_seed(block)
            family, size = "seed", serialized_size(msg)
        self.seen[oid][nid] = 1
        self._send(node, msg, family, oid, float(size), size)
        self._accept(node, block, bh, oid, 0.0)

    def _on_tx_arrival(self) -> None:
        """Relay the next faucet arrival from its origin, or stop once all
        ``n_faucet`` outputs are drawn.

        Its faucet output is credited to every chain as it is drawn. A drawn
        output is a genesis output: no transaction or block can name it
        before its id exists, so crediting it now gives every UTXO view the
        same answers as a genesis set holding all of them from the start.
        """
        i = self.faucet_next
        if i >= self.n_faucet:
            return  # faucet exhausted; no further arrivals
        self.faucet_next = i + 1
        tx, origin, gap, oid, short, size = self.workload.arrival(i - self.sc.initial_mempool_txs)
        op = tx.inputs[0]
        for node in self.nodes:
            node.chain.utxo[op] = _FAUCET_ENTRY
        record = (self.now, "tx_arrival", origin, -1, "", size, -1, short, "", 0.0)
        self.log.records.append(_new_record(LogRecord, record))
        self._relay_new_tx(self.nodes[origin], tx, oid, size)
        self._schedule(self.now + gap, "tx_arrival")

    def _on_deliver(self, node: _Node, sent: LogRecord, msg) -> None:
        """Handle ``msg`` at ``node``: a pull message, or the first copy of gossip.
        ``sent`` is the ``send`` record of the flood it arrived in; handlers
        read its ``src``, ``msg``, ``size``, ``oid`` and ``val``, never its
        ``t``, nor its ``dst`` and ``mid``, which are the whole flood's."""
        family, oid = sent.msg, sent.oid
        if family == "txreq":
            self._handle_tx_request(node, msg, sent.src)
        elif family == "txresp":
            self._handle_tx_response(node, msg)
        elif family == "tx":
            self._relay_new_tx(node, msg, oid, sent.size, sent.src)
        else:
            self.seen[oid][node.nid] = 1
            if family == "advert":
                self._handle_advert(node, msg, sent)
                self._send(node, msg, "advert", oid, self._forwarded_bytes(sent), sent.size, sent.src)
            else:
                self._handle_relayed_block(node, msg, sent)

    def _relay_new_tx(self, node: _Node, tx: Transaction, oid: str, size: int, exclude: int = -1) -> None:
        """Take in and flood, to all but ``exclude``, a faucet arrival, a first gossip copy
        or a pull answer new to ``node``, given its gossip oid and wire size. The
        caller has decided it is new: ``seen`` flags the node for the oid of
        every non-warm transaction in its ``tx_store``, and no node gossips a
        warm one."""
        h = txid(tx)
        self.seen[oid][node.nid] = 1
        node.tx_store[h] = tx
        node.mempool.add(tx, node.chain.utxo)
        self._wake(node, h)
        self._send(node, tx, "tx", oid, 0.0, size, exclude)

    def _handle_advert(self, node: _Node, advert: Advert, sent: LogRecord) -> None:
        key = advert.key()
        if node.registry.register(advert):  # first arrival wins
            ledger = node.pull_log[key] = [(self.now, sent.val)]
            missing = missing_txs(advert, node.tx_store)
            if missing:
                self._request_txs(node, missing, sent.src, ledger)
        self._wake(node, key)

    def _handle_relayed_block(self, node: _Node, msg: BlockSeed | Block, sent: LogRecord) -> None:
        # the oid is the block hash, and a node marks it seen before accepting
        # the block, so the chain cannot know it yet
        pend = _PendingSeed(msg, sent)
        # a seed parks before its first try; a full block only while its parent is unknown
        if type(msg) is BlockSeed or not node.chain.knows(msg.header.prev_block_hash):
            pending = node.pending
            if len(pending) >= self.sc.pending_seed_buffer:
                del pending[next(iter(pending))]  # FIFO eviction
            pending[header_hash(msg.header)] = pend
        self._try_seed(node, pend)

    def _wake(self, node: _Node, arrived: Hash | tuple[Address, Hash]) -> None:
        """Retry, in parking order, every parked entry whose last try lacked ``arrived``
        (an advert key, a transaction id or a block hash); each try decides whether to pull.
        A wake scans every parked entry: ``pending`` holds at most ``pending_seed_buffer``."""
        if node.pending:
            for pend in [p for p in node.pending.values() if arrived in p.needs]:
                self._try_seed(node, pend)

    def _try_seed(self, node: _Node, pend: _PendingSeed) -> None:
        """Validate, accept and forward a relayed seed or full block as far as knowledge allows.
        A seed lacking advertised transactions pulls them from its sender, which
        validated the block, unless its last try lacked transactions too."""
        msg = pend.msg
        sent = pend.sent
        header = msg.header
        if type(msg) is Block:
            block = msg
            reason = validate_block_baseline(block, node.chain)
        else:
            key = (msg.coinbase_address, header.prev_block_hash)
            rec = reconstruct_block(msg, node.registry, node.tx_store)
            if not rec.ok:
                if rec.missing:
                    if type(pend.needs) is not frozenset:  # not asked yet: a first try, or its advert woke it
                        self._request_txs(node, rec.missing, sent.src, node.pull_log[key], force=True)
                    pend.needs = frozenset(rec.missing)
                else:
                    pend.needs = (key,)
                return
            block = rec.block
            reason = validate_block(block, node.registry, node.chain)
        if reason is Reason.WRONG_PREV_HASH:
            pend.needs = (header.prev_block_hash,)
            return
        bh = header_hash(header)
        node.pending.pop(bh, None)
        if reason is not Reason.OK:
            return
        pb = sent.val
        if sent.msg == "seed":
            # advert and pull bytes that had to move after the block was found
            found = self.find_time[bh]
            pb += sum(size for t, size in node.pull_log[key] if t >= found)  # the advert is registered
        self._accept(node, block, bh, sent.oid, pb)
        # a forwarded seed carries only seed-family path bytes; advert and
        # pull bytes stay node-local (each hop accounts its own)
        self._send(node, msg, sent.msg, sent.oid, self._forwarded_bytes(sent), sent.size, sent.src)

    def _forwarded_bytes(self, sent: LogRecord) -> float:
        """The path bytes a forward of ``sent`` carries, ``sent.val + sent.size``,
        as the run's one float of that value."""
        cpb = sent.val + sent.size
        return self.path_bytes.setdefault(cpb, cpb)

    def _handle_tx_request(self, node: _Node, req: TxRequest, requester: int) -> None:
        store = node.tx_store
        have = tuple(store[h] for h in req.hashes if h in store)
        if have:
            resp = TxResponse(have)
            size = serialized_size(resp)
            self._send(node, resp, "txresp", "", 0.0, size, to=requester)

    def _handle_tx_response(self, node: _Node, resp: TxResponse) -> None:
        """Charge each answer to its request's ledger; take in what ``node`` lacks."""
        for tx in resp.txs:
            h = txid(tx)
            ledger = node.req_map.pop(h, None)
            if ledger is not None:
                ledger.append((self.now, float(tx.nominal_size_bytes)))
            if h not in node.tx_store:
                self._relay_new_tx(node, tx, gossip_dedup_key(tx).short(), serialized_size(tx))

    def _request_txs(
        self, node: _Node, missing: list[Hash] | tuple[Hash, ...], target: int, ledger: list, force: bool = False
    ) -> None:
        """Pull ``missing`` (not empty) from ``target``, charging the request and
        its answers to ``ledger``; unless ``force``, only the hashes no earlier
        request asked for."""
        req_map = node.req_map
        outstanding = missing
        if not force and not req_map.keys().isdisjoint(missing):
            outstanding = [h for h in missing if h not in req_map]
            if not outstanding:
                return
        req = TxRequest(tuple(outstanding))
        size = serialized_size(req)
        for h in outstanding:
            req_map[h] = ledger
        ledger.append((self.now + self.proc, float(size)))
        self._send(node, req, "txreq", "", 0.0, size, to=target)

    def _accept(self, node: _Node, block: Block, bh: Hash, oid: str, pb: float) -> None:
        """Log and absorb ``block`` (header hash ``bh``, short id ``oid``) at ``node``.
        A tip change can only adopt this block: ``add_block`` moves the tip to
        the block it adds or nowhere, so both records carry ``oid``."""
        record = (self.now, "block_accept", node.nid, -1, "", 0, -1, oid, "", pb)
        self.log.records.append(_new_record(LogRecord, record))
        chain = node.chain
        registry = node.registry
        outcome = on_block_accepted(chain, node.mempool, registry, block)
        pull_log = node.pull_log
        if len(pull_log) != len(registry.entries):  # evict_stale dropped adverts: drop their ledgers
            node.pull_log = {key: pull_log[key] for key in registry.entries}
        if outcome.tip_changed:
            record = (self.now, "tip_adopt", node.nid, -1, "", 0, -1, oid, "", float(chain.height))
            self.log.records.append(_new_record(LogRecord, record))
            self._restart_mining(node)
        self._wake(node, bh)
