"""Timers installed around the calls into each advertsim layer.

Nothing under ``src/`` is edited: every timer wraps a public function or
method in the namespaces that import it, so the program runs its own
code path with a thin shell around each boundary.

Two levels:

* phase timers (always on): the time each strategy's ``run_scenario``
  call spends before the simulator's ``run()`` starts (set-up) and inside
  ``run()`` (the event loop), and the number of log records it produced;
* tracing (``traced=True``): every function in ``SPANS`` records a span
  (name, start, end, parent, run id) and every function in ``COUNTERS``
  adds to an aggregated call counter with summed time.  Both feed the
  per-function totals in ``stats``; a wrapper's self time is its time
  minus the time of the wrapped calls it made.
"""

from __future__ import annotations

import sys
from time import perf_counter

# (metric prefix, module, attribute path). Spans are for functions called
# at most a few thousand times per strategy run; counters for the hot ones
# (up to ~10^6 calls), where a span per call would cost too much memory.
SPANS = [
    ("simnet.run_scenario", "simnet", "run_scenario"),
    ("simnet._Sim.__init__", "simnet", "_Sim.__init__"),
    ("simnet._Sim.run", "simnet", "_Sim.run"),
    ("mining.mine", "mining", "mine"),
    ("protocol.make_advert", "protocol", "make_advert"),
    ("protocol.on_block_accepted", "protocol", "on_block_accepted"),
    ("protocol.ChainState.add_block", "protocol", "ChainState.add_block"),
    ("protocol.AdvertRegistry.evict_stale", "protocol", "AdvertRegistry.evict_stale"),
    ("metrics.summarize", "metrics", "summarize"),
    ("metrics.propagation_latency", "metrics", "propagation_latency"),
    ("metrics.wasted_hashpower", "metrics", "wasted_hashpower"),
    ("metrics.best_chain", "metrics", "best_chain"),
    ("metrics.write_block_csv", "metrics", "write_block_csv"),
    ("cli.write_events", "simnet", "EventLog.write"),
    ("cli.log_sha256", "simnet", "EventLog.sha256"),
    ("cli.write_summary", "metrics", "write_summary_json"),
]
COUNTERS = [
    ("core.hash_bytes", "core", "hash_bytes"),
    ("core.Hash", "core", "Hash.__new__"),
    ("core.merkle_root", "core", "merkle_root"),
    ("core.serialized_size", "core", "serialized_size"),
    ("mining.sample_mining_time", "mining", "sample_mining_time"),
    ("protocol.reconstruct_block", "protocol", "reconstruct_block"),
    ("protocol.validate_block", "protocol", "validate_block"),
    ("protocol.validate_block_baseline", "protocol", "validate_block_baseline"),
    ("protocol.ChainState.utxo_view_at", "protocol", "ChainState.utxo_view_at"),
    ("protocol.Mempool.add", "protocol", "Mempool.add"),
    ("protocol.Mempool.insert_unchecked", "protocol", "Mempool.insert_unchecked"),
    ("simnet.gossip_dedup_key", "simnet", "gossip_dedup_key"),
]


def _mempool_size(args, kwargs, result):
    mempool = args[2] if len(args) > 2 else kwargs["mempool"]
    return len(mempool.txs)


# Per-call extra counts: name -> f(args, kwargs, result) -> number.
EXTRAS = {
    "core.merkle_root": lambda a, k, r: len(a[0]),
    "protocol.make_advert": _mempool_size,
    "protocol.validate_block": lambda a, k, r: r.accepted,
    "protocol.validate_block_baseline": lambda a, k, r: r.accepted,
    "protocol.ChainState.add_block": lambda a, k, r: r.kind == "reorged",
    "protocol.AdvertRegistry.evict_stale": lambda a, k, r: r,
}


class Stat:
    __slots__ = ("calls", "seconds", "self_seconds", "extra")

    def __init__(self) -> None:
        self.calls = 0
        self.seconds = 0.0
        self.self_seconds = 0.0
        self.extra = 0


class Probe:
    """Phase timers, plus spans and counters when ``traced``."""

    def __init__(self, traced: bool) -> None:
        self.traced = traced
        # one dict per run_scenario call: strategy, seed, call/loop_start/
        # loop_end perf_counter stamps, and the record count of the returned log
        self.strategy_runs: list[dict] = []
        self.stats: dict[str, Stat] = {}
        self.spans: list = []  # (name, start, end, parent index, "seed/strategy")
        # open wrappers, innermost last: [seconds covered by wrapped callees, span index]
        self._stack: list[list] = [[0.0, -1]]

    def snapshot(self) -> dict[str, Stat]:
        """A copy of ``stats`` that later calls leave unchanged."""
        out = {}
        for name, stat in self.stats.items():
            copy = out[name] = Stat()
            copy.calls, copy.seconds = stat.calls, stat.seconds
            copy.self_seconds, copy.extra = stat.self_seconds, stat.extra
        return out

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        import advertsim.simnet as simnet

        self._patch(simnet, "run_scenario", self._phase_call)
        self._patch(simnet, "_Sim.run", self._phase_loop)
        if not self.traced:
            return
        for name, module, attr in SPANS:
            self._patch(_module(module), attr, lambda fn, n=name: self._wrap(n, fn, span=True))
        for name, module, attr in COUNTERS:
            self._patch(_module(module), attr, lambda fn, n=name: self._wrap(n, fn, span=False))

    @staticmethod
    def _patch(module, attr: str, make) -> None:
        """Replace a class attribute, or a function in every advertsim
        namespace that holds it, with ``make(original)``."""
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            wrapped = make(cls.__dict__[meth])
            setattr(cls, meth, staticmethod(wrapped) if meth == "__new__" else wrapped)
            return
        original = getattr(module, attr)
        wrapped = make(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "advertsim" or mod_name.startswith("advertsim."):
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, wrapped)

    # -- phase timers ------------------------------------------------------

    def _phase_call(self, fn):
        runs = self.strategy_runs

        def run_scenario(scenario):
            runs.append({
                "strategy": scenario.relay_strategy.value, "seed": scenario.seed, "call": perf_counter(),
            })
            return fn(scenario)

        return run_scenario

    def _phase_loop(self, fn):
        runs = self.strategy_runs

        def run(sim):
            entry = runs[-1]
            entry["loop_start"] = perf_counter()
            log = fn(sim)
            entry["loop_end"] = perf_counter()
            entry["records"] = len(log.records)
            return log

        return run

    # -- tracing -----------------------------------------------------------

    def _wrap(self, name: str, fn, span: bool):
        stat = self.stats.setdefault(name, Stat())
        extra = EXTRAS.get(name)
        stack = self._stack
        spans = self.spans
        runs = self.strategy_runs

        def wrapper(*args, **kwargs):
            parent = stack[-1][1]
            if span:
                frame = [0.0, len(spans)]
                spans.append(None)
            else:
                frame = [0.0, parent]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dt = t1 - t0
                stack[-1][0] += dt
                stat.calls += 1
                stat.seconds += dt
                stat.self_seconds += dt - frame[0]
                if span:
                    run_id = f"{runs[-1]['seed']}/{runs[-1]['strategy']}" if runs else ""
                    spans[frame[1]] = (name, t0, t1, parent, run_id)
            if extra is not None:
                stat.extra += extra(args, kwargs, result)
            return result

        return wrapper


def _module(short: str):
    return sys.modules[f"advertsim.{short}"]
