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
from contextlib import contextmanager
from dataclasses import dataclass, field
from enum import Enum
from functools import cache
from heapq import heappop, heappush
from typing import Iterator, NamedTuple

from .core import (
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
    NodeProtocolState,
    Reason,
    RegistrationResult,
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
        """Seconds for a message of ``size`` modelled bytes to cross the link."""
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
# Must be ints (bools excluded): a float such as 500.0 passes the range
# checks and then fails deep in the run.
_INT_FIELDS = (
    "node_count",
    "difficulty_bits",
    "pow_proof_bits",
    "tx_size_bytes",
    "coinbase_size_bytes",
    "initial_mempool_txs",
    "seed",
    "block_size_cap_bytes",
    "pending_seed_buffer",
    "block_reward",
)
# Must be finite numbers (bools excluded); hash_rate may also be a list of them.
_FLOAT_FIELDS = ("tx_rate", "horizon_seconds", "processing_delay_seconds")


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
        if self.tx_size_bytes <= 0:
            raise ScenarioError("tx_size_bytes", "must be positive")
        if self.coinbase_size_bytes <= 0:
            raise ScenarioError("coinbase_size_bytes", "must be positive")
        if self.initial_mempool_txs < 0:
            raise ScenarioError("initial_mempool_txs", "must be >= 0")
        if not self.horizon_seconds > 0:
            raise ScenarioError("horizon_seconds", "must be positive")
        if self.block_size_cap_bytes <= 0:
            raise ScenarioError("block_size_cap_bytes", "must be positive")
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
# One record line exactly as _encode writes it: json prints ints and finite
# floats as their repr(), and the string columns are fixed words and hex ids,
# which need no escaping.
_RECORD = '[%r,"%s",%r,%r,"%s",%r,%r,"%s","%s",%r]\n'
_CHUNK_LINES = 1024


class LogRecord(NamedTuple):
    """One simulator event. Unused columns hold '' / -1 / 0."""

    t: float
    kind: str  # meta|send|deliver|tx_arrival|block_found|block_accept|tip_adopt
    src: int
    dst: int
    msg: str  # message family for send/deliver
    size: int
    mid: int  # message instance id, send/deliver pairs share it
    oid: str  # content id (16 hex chars)
    ref: str  # related id (block_found: parent)
    val: float  # height / cumulative post-find path bytes


# Builds a record from a ready tuple without LogRecord's Python-level __new__;
# the hot send and deliver paths use it.
_new_record = tuple.__new__


class EventLog:
    """Append-only record stream, serializable to newline-delimited JSON."""

    def __init__(self, meta: dict) -> None:
        self.meta = meta
        self.records: list[LogRecord] = []

    def lines(self) -> Iterator[str]:
        for text in self._texts():
            yield from text.splitlines()

    def _texts(self) -> Iterator[str]:
        """The serialized log as newline-terminated lines, _CHUNK_LINES records per piece.

        Bounded pieces keep peak memory at one piece, not one log.
        """
        yield _encode({"meta": self.meta}) + "\n"
        records = self.records
        for i in range(0, len(records), _CHUNK_LINES):
            batch = records[i : i + _CHUNK_LINES]
            text = "".join([_RECORD % r for r in batch])
            if "inf" in text or "nan" in text:
                # a non-finite float: repr() spells it inf/nan, json Infinity/NaN.
                # No fixed word or hex id contains either substring.
                text = "".join([_encode(r) + "\n" for r in batch])
            yield text

    def _chunks(self) -> Iterator[bytes]:
        for text in self._texts():
            yield text.encode()

    def sha256(self) -> str:
        h = hashlib.sha256()
        for chunk in self._chunks():
            h.update(chunk)
        return h.hexdigest()

    def write(self, path) -> str:
        """Write the log to ``path``; return the sha256 hex of the bytes written."""
        h = hashlib.sha256()
        with open(path, "wb") as f:
            for chunk in self._chunks():
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

    ``sent`` is the ``send`` record it arrived under: sender, family, size,
    id and path bytes. ``needs`` holds what its last try lacked, to be woken
    by: its advert key, the advertised transactions it could not resolve,
    or its parent's hash. Set it only through ``_Node.set_needs``, which
    keeps the node's ``waiting`` index in step.
    """

    msg: BlockSeed | Block  # as relayed
    sent: LogRecord
    needs: tuple | frozenset = ()


@dataclass(slots=True, eq=False)
class _Node:
    nid: int
    proto: NodeProtocolState
    rate: float
    mining_rng: random.Random
    neighbors: dict[int, Link] = field(default_factory=dict)  # by ascending neighbour id
    tx_store: dict[Hash, Transaction] = field(default_factory=dict)  # every tx ever seen; answers pulls
    seen: set[str] = field(default_factory=set)
    pending: dict[Hash, _PendingSeed] = field(default_factory=dict)
    # how many parked entries have each item in their needs. It pays for
    # itself: in the forky-cold seed-1 ADVERT run, 25,061 of 28,204 wake-ups
    # find parked entries, none waiting on what arrived (seeds that advert
    # eviction strands; 280 are still parked at the horizon). The index skips
    # those 269,747 entry checks; without it _Sim.run took 6-12% longer.
    waiting: dict = field(default_factory=dict)
    session: int = 0
    started: float = 0.0  # when the current mining session began
    advert: Advert | None = None  # the session's own advert; LATE chooses it at the find
    # per advert key, (time, bytes) of the advert's first arrival, then of each
    # pull made for it: the bytes that may count as post-find on the critical path
    pull_log: dict[tuple[Address, Hash], list[tuple[float, float]]] = field(default_factory=dict)
    req_map: dict[Hash, tuple[Address, Hash]] = field(default_factory=dict)

    def set_needs(self, pend: _PendingSeed, needs: tuple | frozenset) -> None:
        """Record what parked ``pend`` lacks, in it and in ``waiting``."""
        waiting = self.waiting
        for x in pend.needs:
            n = waiting[x] - 1
            if n:
                waiting[x] = n
            else:
                del waiting[x]
        for x in needs:
            waiting[x] = waiting.get(x, 0) + 1
        pend.needs = needs

    def unpark(self, bh: Hash) -> None:
        """Drop the entry parked under ``bh``, if any, and what it waits for."""
        pend = self.pending.pop(bh, None)
        if pend is not None:
            self.set_needs(pend, ())


def node_address(nid: int) -> Address:
    return Address(hash_bytes(b"advertsim-node:%d" % nid)[:20])


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
    so each full collection would walk every record of the growing log.
    Pause for the log's whole lifetime (run, write, summarize, drop): a
    pause around the run alone moves a pass over every record to the
    caller. The exit collection frees whatever cycles the body did make;
    without it, peak memory creeps over repeated in-process commands.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()
        gc.collect()


class _Sim:
    def __init__(self, sc: Scenario) -> None:
        edges = sc.validate()
        self.sc = sc
        self.strategy = sc.relay_strategy
        self.now = 0.0
        self.seq = 0
        self.mid = 0
        self.heap: list = []
        self.find_time: dict[Hash, float] = {}
        self.proc = sc.processing_delay_seconds
        self.policy = SelectionPolicy(
            max_block_size_bytes=sc.block_size_cap_bytes,
            coinbase_size_bytes=sc.coinbase_size_bytes,
        )

        # faucet outputs fund every generated transaction; sized with margin
        # and minted as drawn (see _next_faucet)
        self.n_faucet = n_faucet = sc.initial_mempool_txs + int(sc.tx_rate * sc.horizon_seconds * 3) + 64
        self.faucet_next = 0
        self.nodes: list[_Node] = []

        # one pool takes the warm transactions and every node copies it; the
        # outputs they spend, minted before any chain exists, are the genesis
        # UTXO set
        warm_rng = random.Random(f"{sc.seed}/warm")
        warm = Mempool()
        for _ in range(sc.initial_mempool_txs):
            warm.insert_unchecked(self._generated_tx(self._next_faucet(), warm_rng))
        genesis_utxo = dict.fromkeys(warm.spent_outpoints, _FAUCET_ENTRY)
        self.arrivals_rng = random.Random(f"{sc.seed}/arrivals")

        rates = sc.hash_rates()
        checked: dict = {}  # every chain starts from genesis_utxo, so one record serves all
        for nid in range(sc.node_count):
            chain = ChainState(GENESIS_HASH, genesis_utxo, checked)
            proto = NodeProtocolState(
                address=node_address(nid),
                chain=chain,
                mempool=warm.copy(),
                registry=AdvertRegistry(),
            )
            node = _Node(nid, proto, rates[nid], random.Random(f"{sc.seed}/mining/{nid}"))
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
        self.log = EventLog(meta)

    # -- helpers ---------------------------------------------------------

    def _next_faucet(self) -> Hash | None:
        """Mint the next faucet output and credit it to every chain, or None
        once all ``n_faucet`` are drawn.

        A minted output is a genesis output: no transaction or block can name
        it before its id exists, so crediting it now gives every UTXO view the
        same answers as a genesis set holding all of them from the start.
        """
        i = self.faucet_next
        if i >= self.n_faucet:
            return None
        self.faucet_next = i + 1
        fid = hash_bytes(b"advertsim-faucet-tx:%d" % i)
        op = (fid, 0)
        for node in self.nodes:
            node.proto.chain.utxo[op] = _FAUCET_ENTRY
        return fid

    def _generated_tx(self, fid: Hash, rng: random.Random) -> Transaction:
        recipient = Address(rng.randbytes(20))
        return Transaction(
            inputs=((fid, 0),),
            outputs=((recipient, FAUCET_VALUE),),
            nominal_size_bytes=self.sc.tx_size_bytes,
        )

    def _schedule(self, t: float, kind: str, a=None, b=None) -> None:
        """Queue a ``found`` or ``tx_arrival`` event; ``_send`` queues deliveries."""
        self.seq += 1
        heappush(self.heap, (t, self.seq, kind, a, b))

    def _send(
        self, node: _Node, msg, family: str, oid: str, cpb: float, size: int, exclude: int = -1, to: int = -1
    ) -> None:
        """Send ``msg`` from ``node`` to neighbour ``to``, or flood it to every
        neighbour but ``exclude``.

        ``size`` is its modelled size, computed once where the message was
        made; ``cpb`` its critical-path bytes so far. Each copy gets a
        ``send`` record and a ``deliver`` event ``(arrival, seq, "deliver",
        send record, msg)``.
        """
        links = node.neighbors.items() if to < 0 else ((to, node.neighbors[to]),)
        src = node.nid
        t_send = self.now + self.proc
        records = self.log.records
        heap = self.heap
        mid, seq = self.mid, self.seq
        for dst, link in links:
            if dst != exclude:
                mid += 1
                seq += 1
                sent = _new_record(LogRecord, (t_send, "send", src, dst, family, size, mid, oid, "", cpb))
                records.append(sent)
                heappush(heap, (t_send + link.delay(size), seq, "deliver", sent, msg))
        self.mid, self.seq = mid, seq

    # -- lifecycle -------------------------------------------------------

    def run(self) -> EventLog:
        sc = self.sc
        for node in self.nodes:
            self._restart_mining(node)
        if sc.tx_rate > 0:
            self._schedule(self.arrivals_rng.expovariate(sc.tx_rate), "tx_arrival")
        horizon = sc.horizon_seconds
        heap = self.heap
        records = self.log.records
        nodes = self.nodes
        while heap and heap[0][0] <= horizon:
            t, _, kind, a, b = heappop(heap)
            self.now = t
            if kind == "deliver":  # a: the send record, b: the message
                _, _, src, dst, family, size, mid, oid, ref, val = a
                records.append(_new_record(LogRecord, (t, "deliver", src, dst, family, size, mid, oid, ref, val)))
                node = nodes[dst]
                # only a node's first copy of gossip is handled; txreq and
                # txresp carry the oid "", which no seen set holds
                if oid not in node.seen:
                    self._on_deliver(node, a, b)
            elif kind == "found":  # a: the finder, b: its mining session
                self._on_found(a, b)
            else:
                self._on_tx_arrival()
        return self.log

    def _own_advert(self, node: _Node) -> Advert:
        """Fix the node's next block on its tip: choose its transaction list and
        mine from it.

        The list is flooded here only under ADVERT (LATE sends it at the find,
        after the block_found record). It lives in the node's session, not in
        its registry: the registry answers for received seeds, and the node's
        own seed and advert come back only as copies that ``seen`` drops.
        """
        proto = node.proto
        advert = make_advert(proto.address, proto.chain.tip_hash, proto.mempool, self.policy)
        if self.strategy is RelayStrategy.ADVERT_PROTOCOL:
            self._announce(node, advert)
        return advert

    def _announce(self, node: _Node, advert: Advert) -> None:
        """Flood a node's own advert to all its neighbours."""
        oid = gossip_dedup_key(advert).short()
        node.seen.add(oid)
        size = serialized_size(advert)
        self._send(node, advert, "advert", oid, float(size), size)

    def _restart_mining(self, node: _Node) -> None:
        node.session += 1
        node.started = self.now
        if self.strategy is not RelayStrategy.LATE_ADVERT:
            node.advert = self._own_advert(node)
        dt = sample_mining_time(
            HashRate(node.rate), CompactTarget(self.sc.difficulty_bits), node.mining_rng
        )
        self._schedule(self.now + dt, "found", node.nid, node.session)

    def _template_from(self, node: _Node, advert: Advert, started: float) -> BlockTemplate:
        """The block a session mines: ``advert``'s transactions from the pool,
        stamped with the second the session chose them.

        Built at the find; the pool only grows within a session, so every
        advertised transaction is still in it.
        """
        mempool = node.proto.mempool
        txs = tuple(mempool.txs[h] for h in advert.tx_hashes)
        # seed the extra nonce from the parent so coinbase ids never repeat
        # across blocks by the same miner (duplicate ids would corrupt the
        # UTXO set when forks unwind)
        coinbase = CoinbaseTransaction(
            coinbase_address=node.proto.address,
            reward=self.sc.block_reward,
            extra_nonce=int.from_bytes(advert.prev_block_hash[:8], "big"),
            nominal_size_bytes=self.sc.coinbase_size_bytes,
        )
        return BlockTemplate(
            prev_block_hash=advert.prev_block_hash,
            coinbase=coinbase,
            transactions=txs,
            difficulty_target=CompactTarget(self.sc.pow_proof_bits),
            base_timestamp=int(started),
            max_size_bytes=self.sc.block_size_cap_bytes,
        )

    # -- handlers --------------------------------------------------------

    def _on_found(self, nid: int, session: int) -> None:
        node = self.nodes[nid]
        if session != node.session:
            return  # tip changed while this sample was pending
        late = self.strategy is RelayStrategy.LATE_ADVERT
        if late:
            advert, started = self._own_advert(node), self.now
        else:
            advert, started = node.advert, node.started
        block = mine(self._template_from(node, advert, started), _SIM_POW_BUDGET)
        assert block is not None, "simulation proof target missed its budget"
        bh = block_hash(block)
        oid = bh.short()
        parent = block.header.prev_block_hash
        height = node.proto.chain.heights[parent] + 1
        self.find_time[bh] = self.now
        block_size = serialized_size(block)
        self.log.records.append(
            LogRecord(
                self.now,
                "block_found",
                nid,
                -1,
                "",
                block_size,
                len(block.transactions),
                oid,
                parent.short(),
                float(height),
            )
        )
        if late:
            self._announce(node, advert)  # back to back with the seed
        if self.strategy is RelayStrategy.BASELINE_FULL_BLOCK:
            msg, family, size = block, "block", block_size
        else:
            msg = make_block_seed(block)
            family, size = "seed", serialized_size(msg)
        node.seen.add(oid)
        self._send(node, msg, family, oid, float(size), size)
        self._accept(node, block, bh, 0.0)

    def _on_tx_arrival(self) -> None:
        sc = self.sc
        rng = self.arrivals_rng
        fid = self._next_faucet()
        if fid is None:
            return  # faucet exhausted; no further arrivals
        tx = self._generated_tx(fid, rng)
        origin = self.nodes[rng.randrange(sc.node_count)]
        h = txid(tx)
        self.log.records.append(
            LogRecord(self.now, "tx_arrival", origin.nid, -1, "", tx.nominal_size_bytes, -1, h.short(), "", 0.0)
        )
        self._relay_new_tx(origin, tx)
        self._schedule(self.now + rng.expovariate(sc.tx_rate), "tx_arrival")

    def _on_deliver(self, node: _Node, sent: LogRecord, msg) -> None:
        """Handle ``msg`` at ``node``: a pull message, or the first copy of gossip.
        ``sent`` is its ``send`` record."""
        family, oid = sent.msg, sent.oid
        if family == "txreq":
            self._handle_tx_request(node, msg, sent.src)
        elif family == "txresp":
            self._handle_tx_response(node, msg)
        else:
            node.seen.add(oid)
            if family == "tx":
                self._ingest_tx(node, msg)
                self._send(node, msg, "tx", oid, 0.0, sent.size, sent.src)
            elif family == "advert":
                self._handle_advert(node, msg, sent)
                self._send(node, msg, "advert", oid, sent.val + sent.size, sent.size, sent.src)
            else:
                self._handle_relayed_block(node, msg, sent)

    def _ingest_tx(self, node: _Node, tx: Transaction) -> None:
        h = txid(tx)
        if h not in node.tx_store:
            node.tx_store[h] = tx
            node.proto.mempool.add(tx, node.proto.chain.utxo)
            self._wake(node, h)

    def _relay_new_tx(self, node: _Node, tx: Transaction) -> None:
        """Ingest and flood a faucet arrival or a pulled transaction new to ``node``
        (a faucet arrival retries no seed: no advert can name it yet)."""
        oid = gossip_dedup_key(tx).short()
        node.seen.add(oid)
        self._ingest_tx(node, tx)
        self._send(node, tx, "tx", oid, 0.0, serialized_size(tx))

    def _handle_advert(self, node: _Node, advert: Advert, sent: LogRecord) -> None:
        key = advert.key()
        pull_log = node.pull_log
        if key not in pull_log:
            pull_log[key] = [(self.now, sent.val)]
        if node.proto.registry.register(advert) is RegistrationResult.REGISTERED:  # first arrival wins
            missing = missing_txs(advert, node.tx_store)
            if missing:
                self._request_txs(node, missing, sent.src, key)
        # the seed sender already validated the block; pull stragglers from it
        self._wake(node, key, pull=True)

    def _handle_relayed_block(self, node: _Node, msg: BlockSeed | Block, sent: LogRecord) -> None:
        # the oid is the block hash, and a node marks it seen before accepting
        # the block, so the chain cannot know it yet
        pend = _PendingSeed(msg, sent)
        # a seed parks before its first try; a full block only while its parent is unknown
        if type(msg) is BlockSeed or not node.proto.chain.knows(msg.header.prev_block_hash):
            pending = node.pending
            if len(pending) >= self.sc.pending_seed_buffer:
                node.unpark(next(iter(pending)))  # FIFO eviction
            pending[header_hash(msg.header)] = pend
        self._try_seed(node, pend, pull=True)

    def _wake(self, node: _Node, arrived: Hash | tuple[Address, Hash], pull: bool = False) -> None:
        """Retry, in parking order, every parked entry whose last try lacked ``arrived``:
        an advert key, a transaction id or a block hash."""
        if arrived in node.waiting:
            for pend in [p for p in node.pending.values() if arrived in p.needs]:
                self._try_seed(node, pend, pull)

    def _try_seed(self, node: _Node, pend: _PendingSeed, pull: bool) -> None:
        """Validate, accept and forward a relayed seed or full block as far as knowledge allows."""
        proto = node.proto
        msg = pend.msg
        sent = pend.sent
        header = msg.header
        if type(msg) is Block:
            block = msg
            verdict = validate_block_baseline(block, proto.chain)
        else:
            key = (msg.coinbase_address, header.prev_block_hash)
            rec = reconstruct_block(msg, proto.registry, node.tx_store)
            if not rec.ok:
                if rec.missing:
                    node.set_needs(pend, frozenset(rec.missing))
                    if pull:  # the seed sender validated the block, so it has every tx
                        self._request_txs(node, rec.missing, sent.src, key, force=True)
                else:
                    node.set_needs(pend, (key,))
                return
            block = rec.block
            verdict = validate_block(block, proto.registry, proto.chain)
        if verdict.reason is Reason.WRONG_PREV_HASH:
            node.set_needs(pend, (header.prev_block_hash,))
            return
        bh = header_hash(header)
        node.unpark(bh)
        if not verdict.accepted:
            return
        pb = sent.val
        if sent.msg == "seed":
            # advert and pull bytes that had to move after the block was found
            found = self.find_time[bh]
            pb += sum(size for t, size in node.pull_log.get(key, ()) if t >= found)
        self._accept(node, block, bh, pb)
        # a forwarded seed carries only seed-family path bytes; advert and
        # pull bytes stay node-local (each hop accounts its own)
        self._send(node, msg, sent.msg, sent.oid, sent.val + sent.size, sent.size, sent.src)

    def _handle_tx_request(self, node: _Node, req: TxRequest, requester: int) -> None:
        store = node.tx_store
        have = tuple(store[h] for h in req.hashes if h in store)
        if have:
            resp = TxResponse(have)
            size = serialized_size(resp)
            self._send(node, resp, "txresp", "", 0.0, size, to=requester)

    def _handle_tx_response(self, node: _Node, resp: TxResponse) -> None:
        for tx in resp.txs:
            h = txid(tx)
            key = node.req_map.pop(h, None)
            if key is not None:
                node.pull_log[key].append((self.now, float(tx.nominal_size_bytes)))
            if h not in node.tx_store:
                self._relay_new_tx(node, tx)

    def _request_txs(
        self, node: _Node, missing: list[Hash] | tuple[Hash, ...], target: int, key, force: bool = False
    ) -> None:
        """Pull ``missing`` (not empty) from ``target``; unless ``force``, only
        the hashes no earlier request asked for."""
        req_map = node.req_map
        outstanding = missing
        if not force and not req_map.keys().isdisjoint(missing):
            outstanding = [h for h in missing if h not in req_map]
            if not outstanding:
                return
        req = TxRequest(tuple(outstanding))
        size = serialized_size(req)
        for h in outstanding:
            req_map[h] = key
        # the advert's arrival opened this ledger: a pull needs the registered advert
        node.pull_log[key].append((self.now + self.proc, float(size)))
        self._send(node, req, "txreq", "", 0.0, size, to=target)

    def _accept(self, node: _Node, block: Block, bh: Hash, pb: float) -> None:
        self.log.records.append(
            LogRecord(self.now, "block_accept", node.nid, -1, "", 0, -1, bh.short(), "", pb)
        )
        proto = node.proto
        if on_block_accepted(proto, block).tip_changed:
            self.log.records.append(
                LogRecord(
                    self.now,
                    "tip_adopt",
                    node.nid,
                    -1,
                    "",
                    0,
                    -1,
                    proto.chain.tip_hash.short(),
                    "",
                    float(proto.chain.height),
                )
            )
            self._restart_mining(node)
        self._wake(node, bh)
