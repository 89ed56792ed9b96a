"""Comparative quantities derived from simulation event logs.

Everything here is a pure function of the log: recomputing from a
serialized log gives exactly the live result. The eventually-best chain
is the highest block in the log (ties broken by earliest find time)
walked back to genesis; stale blocks are finds off that chain, and
wasted mining time is time spent on a tip that the eventually-best
chain had already superseded at that moment.

Orphaned blocks are excluded from a block's latency samples rather than
assigned infinite latency, keeping the means finite; the summary
records how many samples each block produced so the exclusion is
visible.
"""

from __future__ import annotations

import csv
import json
import statistics
from bisect import bisect_right
from dataclasses import dataclass, field
from operator import itemgetter

from .simnet import EventLog, LogRecord

BLOCK_CSV_COLUMNS = [
    "block",
    "height",
    "finder",
    "find_time",
    "stale",
    "adoptions",
    "mean_latency",
    "max_latency",
    "critical_path_bytes",
]


class _LogIndex:
    """What the metrics read from one log, gathered in one pass over ``EventLog.distinct()``.

    ``blocks`` maps each block id to its ``block_found`` record (find order);
    ``adopts`` holds the ``tip_adopt`` records in log order; ``sizes`` has the
    send bytes by family, each send's size times the copies it stands for,
    and the widest critical path per accepted block; ``best`` is the
    eventually-best chain. Deliveries are read by no metric. Records are
    referenced, not copied.
    """

    __slots__ = ("meta", "blocks", "adopts", "sizes", "best")

    def __init__(self, log: EventLog) -> None:
        self.meta = log.meta
        blocks: dict[str, LogRecord] = {}
        adopts: list[LogRecord] = []
        sizes = SizeStats()
        fam = sizes.bytes_by_family
        crit = sizes.critical_path_bytes
        for r, copies in log.distinct():
            kind = r.kind
            if kind == "send":
                fam[r.msg] = fam.get(r.msg, 0) + r.size * copies
            elif kind == "block_accept":
                if r.val > crit.get(r.oid, -1.0):
                    crit[r.oid] = r.val
            elif kind == "tip_adopt":
                adopts.append(r)
            elif kind == "block_found":
                blocks[r.oid] = r
        self.blocks = blocks
        self.adopts = adopts
        self.sizes = sizes
        self.best = self._best_chain()

    def _best_chain(self) -> list[str]:
        blocks = self.blocks
        if not blocks:
            return []
        # highest block, earliest find among equal heights (val is the height)
        tip = max(blocks.values(), key=lambda b: (b.val, -b.t))
        genesis = self.meta["genesis"]
        chain = []
        cur = tip.oid
        while cur != genesis:
            chain.append(cur)
            cur = blocks[cur].ref
        chain.reverse()
        return chain


def best_chain(log: EventLog) -> list[str]:
    """Block ids of the eventually-best chain, genesis excluded, by height.

    The tip is the highest block found anywhere; among equal heights the
    earliest find wins. This is the hindsight chain all metrics compare
    against.
    """
    return _LogIndex(log).best


def _adoption_times(ix: _LogIndex) -> dict[tuple[int, str], float]:
    """First time each node's adopted chain contains each block."""
    blocks = ix.blocks
    genesis = ix.meta["genesis"]
    first: dict[tuple[int, str], float] = {}
    on_chain: dict[int, set[str]] = {}
    for r in ix.adopts:
        have = on_chain.setdefault(r.src, set())
        # ``have`` holds every ancestor of each of its blocks, so the walk
        # can stop at the first block the node already has
        cur = r.oid
        while cur != genesis and cur not in have:
            have.add(cur)
            first[(r.src, cur)] = r.t
            cur = blocks[cur].ref
    return first


@dataclass
class PropagationStats:
    """Per-block tip-adoption latency samples and their summary."""

    per_block: dict[str, list[tuple[int, float]]] = field(default_factory=dict)
    empty: bool = True

    @property
    def samples(self) -> list[float]:
        return [lat for entries in self.per_block.values() for _, lat in entries]

    @property
    def mean(self) -> float | None:
        s = self.samples
        return sum(s) / len(s) if s else None

    @property
    def median(self) -> float | None:
        s = self.samples
        return statistics.median(s) if s else None

    @property
    def p90(self) -> float | None:
        s = sorted(self.samples)
        if not s:
            return None
        idx = max(0, -(-9 * len(s) // 10) - 1)  # ceil(0.9 n) - 1
        return s[idx]

    @property
    def max(self) -> float | None:
        s = self.samples
        return max(s) if s else None


def propagation_latency(log: EventLog) -> PropagationStats:
    """Seconds from each block's find to each node's adoption of it.

    Nodes that never adopt a block contribute no sample for it.
    """
    return _propagation(_LogIndex(log))


def _propagation(ix: _LogIndex) -> PropagationStats:
    blocks = ix.blocks
    stats = PropagationStats(empty=not blocks)
    if not blocks:
        return stats
    for (node, oid), t in _adoption_times(ix).items():
        stats.per_block.setdefault(oid, []).append((node, t - blocks[oid].t))
    return stats


def stale_rate(log: EventLog) -> float | None:
    """Fraction of found blocks that missed the eventually-best chain.

    None when the log contains no blocks at all.
    """
    return _stale_rate(_LogIndex(log))


def _stale_rate(ix: _LogIndex) -> float | None:
    if not ix.blocks:
        return None
    best = set(ix.best)
    stale = sum(1 for oid in ix.blocks if oid not in best)
    return stale / len(ix.blocks)


@dataclass
class WasteStats:
    """Mining time spent on an already-superseded tip, per node and overall."""

    per_node_wasted: dict[int, float] = field(default_factory=dict)
    mining_seconds_per_node: float = 0.0

    @property
    def per_node_fraction(self) -> dict[int, float]:
        if self.mining_seconds_per_node <= 0:
            return {n: 0.0 for n in self.per_node_wasted}
        return {
            n: w / self.mining_seconds_per_node for n, w in self.per_node_wasted.items()
        }

    @property
    def fraction(self) -> float:
        total = self.mining_seconds_per_node * len(self.per_node_wasted)
        if total <= 0:
            return 0.0
        return sum(self.per_node_wasted.values()) / total


def wasted_hashpower(log: EventLog) -> WasteStats:
    """Integrate, per node, the time its mining tip was already superseded.

    At any instant the reference is the highest eventually-best block
    already found; a node mining on anything else is wasting its hash
    power, whether it is behind or on a losing fork.
    """
    return _waste(_LogIndex(log))


def _waste(ix: _LogIndex) -> WasteStats:
    meta = ix.meta
    horizon = float(meta["scenario"]["horizon_seconds"])
    node_count = int(meta["scenario"]["node_count"])
    genesis = meta["genesis"]
    blocks = ix.blocks
    # step function: from its find time on, each step's block is the best tip
    steps = [(0.0, genesis)] + [(blocks[oid].t, oid) for oid in ix.best]

    adoptions: dict[int, list[tuple[float, str]]] = {n: [(0.0, genesis)] for n in range(node_count)}
    for r in ix.adopts:
        adoptions[r.src].append((r.t, r.oid))

    stats = WasteStats(mining_seconds_per_node=horizon)
    for nid in range(node_count):
        events = adoptions[nid]
        wasted = 0.0
        for i, (start, tip) in enumerate(events):
            end = events[i + 1][0] if i + 1 < len(events) else horizon
            if end <= start:
                continue
            wasted += _mismatch_time(steps, start, min(end, horizon), tip)
        stats.per_node_wasted[nid] = wasted
    return stats


def _mismatch_time(steps: list[tuple[float, str]], start: float, end: float, tip: str) -> float:
    """Length of [start, end) during which the best tip differs from ``tip``.

    Step times never decrease (each block is found after its parent), so only
    the steps from the one in force at ``start`` to the last one starting
    before ``end`` can overlap the interval.
    """
    total = 0.0
    first = max(0, bisect_right(steps, start, key=itemgetter(0)) - 1)
    for i in range(first, len(steps)):
        t_i, oid = steps[i]
        if t_i >= end:
            break
        t_next = steps[i + 1][0] if i + 1 < len(steps) else float("inf")
        lo = max(start, t_i)
        hi = min(end, t_next)
        if hi > lo and oid != tip:
            total += hi - lo
    return total


@dataclass
class SizeStats:
    """Bytes on the wire by message family, plus per-block critical paths."""

    bytes_by_family: dict[str, int] = field(default_factory=dict)
    critical_path_bytes: dict[str, float] = field(default_factory=dict)

    @property
    def total_bytes(self) -> int:
        return sum(self.bytes_by_family.values())

    @property
    def mean_critical_path(self) -> float | None:
        if not self.critical_path_bytes:
            return None
        return sum(self.critical_path_bytes.values()) / len(self.critical_path_bytes)


def size_report(log: EventLog) -> SizeStats:
    """Family byte totals over all sends, and the widest post-find relay path
    (in bytes) any node needed before accepting each block."""
    return _LogIndex(log).sizes


def summarize(log: EventLog) -> dict:
    """The versioned JSON summary document for one run."""
    ix = _LogIndex(log)
    return _summary(ix, _propagation(ix))


def _summary(ix: _LogIndex, prop: PropagationStats) -> dict:
    waste = _waste(ix)
    sizes = ix.sizes
    return {
        "schema": 1,
        "scenario": ix.meta["scenario"],
        "blocks_found": len(ix.blocks),
        "best_chain_length": len(ix.best),
        "stale_rate": _stale_rate(ix),
        "propagation": {
            "samples": len(prop.samples),
            "mean": prop.mean,
            "median": prop.median,
            "p90": prop.p90,
            "max": prop.max,
            "orphaned_blocks_excluded": True,
        },
        "waste": {
            "fraction": waste.fraction,
            "per_node_fraction": {str(k): v for k, v in waste.per_node_fraction.items()},
        },
        "bytes": {
            "by_family": dict(sorted(sizes.bytes_by_family.items())),
            "total": sizes.total_bytes,
            "mean_critical_path": sizes.mean_critical_path,
        },
    }


def write_block_csv(log: EventLog, path) -> None:
    """One row per found block; column schema in BLOCK_CSV_COLUMNS."""
    ix = _LogIndex(log)
    _write_block_csv(ix, _propagation(ix), path)


def _write_block_csv(ix: _LogIndex, prop: PropagationStats, path) -> None:
    crit = ix.sizes.critical_path_bytes
    best = set(ix.best)
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(BLOCK_CSV_COLUMNS)
        for oid, found in ix.blocks.items():
            entries = prop.per_block.get(oid, [])
            lats = [lat for _, lat in entries]
            w.writerow(
                [
                    oid,
                    int(found.val),
                    found.src,
                    repr(found.t),
                    int(oid not in best),
                    len(entries),
                    repr(sum(lats) / len(lats)) if lats else "",
                    repr(max(lats)) if lats else "",
                    repr(crit.get(oid, 0.0)),
                ]
            )


def write_summary_json(log: EventLog, path) -> dict:
    """Write ``summarize(log)`` to ``path`` as JSON and return it."""
    summary = summarize(log)
    _write_json(path, summary)
    return summary


def _write_run_outputs(log: EventLog, csv_path, summary_path) -> dict:
    """``write_block_csv`` and ``write_summary_json`` from one log index; returns the summary."""
    ix = _LogIndex(log)
    prop = _propagation(ix)
    _write_block_csv(ix, prop, csv_path)
    summary = _summary(ix, prop)
    _write_json(summary_path, summary)
    return summary


def _write_json(path, obj) -> None:
    """Write ``obj`` as indented JSON with sorted keys and a final newline."""
    with open(path, "w", encoding="utf-8") as f:
        json.dump(obj, f, indent=2, sort_keys=True)
        f.write("\n")
