"""One workload run in a fresh process: ``advertsim compare`` over seeds.

    python3 perfbench/child.py SCENARIO SEED COUNT SECONDS OUT_DIR RESULT_JSON TRACE

Imports advertsim from the checkout's ``src/``, installs the probe (phase
timers, plus spans and counters when TRACE is 1), and calls
``advertsim.cli.main(["compare", ...])`` for all three strategies at
seeds SEED, SEED + SEED_STRIDE, ... until COUNT compares are done and
SECONDS have passed, timing a fixed reference kernel before the first
compare and after each one.  Then it reads peak RSS, checks every output
and writes the measurements to RESULT_JSON.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

STRATEGIES = ("BASELINE_FULL_BLOCK", "ADVERT_PROTOCOL", "LATE_ADVERT")
# the i-th compare of a run uses seed + i * SEED_STRIDE
SEED_STRIDE = 1_000_003
FLOODED = ("tx", "advert", "seed", "block")
DELIVER_FAMILIES = FLOODED + ("txreq", "txresp")
# blocks found this long before the horizon must reach every node
STRANDED_MARGIN_S = 10.0
# no compare starts after this many seconds of the run
STOP_STARTING_S = 100.0
# Host speed on a shared VM drifts by 15-25% over minutes: a fixed Python
# loop took 0.082 s in one minute and 0.111 s in another, and it switches
# between a fast and a slow state within seconds. A compare's speed factor
# is REFERENCE_S over the mean of the reference kernel's median times just
# before and just after it; run.py multiplies the compare's host times by
# it, so they read as seconds at the speed where the kernel takes
# REFERENCE_S, its median on the 2-vCPU Xeon VM (2.1 GHz) the bounds in
# BENCHMARK.json were set on.
REFERENCE_S = 0.051

ROOT = Path(__file__).resolve().parent.parent


def file_sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def reference_seconds(repeats: int = 5) -> float:
    """Median time of a fixed mix of hashing, dict and loop work."""
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        table = {}
        for i in range(50_000):
            key = hashlib.sha256(i.to_bytes(8, "big")).digest()
            table[i & 4095] = (key, key[:4], i)
        total = 0
        for value in table.values():
            total += value[2]
        times.append(perf_counter() - t0)
    return statistics.median(times)


def log_stats(log) -> dict:
    """Counts a speed change must leave alone, read from one event log."""
    scenario = log.meta["scenario"]
    cutoff = float(scenario["horizon_seconds"]) - STRANDED_MARGIN_S
    deliver = dict.fromkeys(DELIVER_FAMILIES, 0)
    first_seen: set = set()
    flooded = 0
    found: dict[str, float] = {}
    acceptors: dict[str, set] = {}
    for r in log.records:
        kind = r.kind
        if kind == "deliver":
            deliver[r.msg] += 1
            if r.msg in FLOODED:
                flooded += 1
                first_seen.add((r.dst, r.oid))
        elif kind == "block_accept":
            acceptors.setdefault(r.oid, set()).add(r.src)
        elif kind == "block_found":
            found[r.oid] = r.t
    nodes = int(scenario["node_count"])
    stranded = sum(
        1 for oid, t in found.items() if t < cutoff and len(acceptors.get(oid, ())) < nodes
    )
    return {
        "records": len(log.records),
        "deliver": deliver,
        "useful": len(first_seen),
        "flooded": flooded,
        "stranded_blocks": stranded,
    }


def model_stats(summary: dict, stranded: int) -> dict:
    """The simulated statistics of one strategy run, from its summary."""
    prop = summary["propagation"]
    return {
        "blocks_found": summary["blocks_found"],
        "adoption_samples": prop["samples"],
        "latency_mean_s": prop["mean"],
        "latency_p90_s": prop["p90"],
        "stale_rate": summary["stale_rate"],
        "waste_fraction": summary["waste"]["fraction"],
        "critical_path_bytes": summary["bytes"]["mean_critical_path"],
        "total_bytes": summary["bytes"]["total"],
        "stranded_blocks": stranded,
    }


SUMMED_MODEL_STATS = ("blocks_found", "adoption_samples", "total_bytes", "stranded_blocks")


def layer_metrics(st: dict, phases: list[dict], instances: list[dict]) -> dict:
    """Per-layer metrics of a traced run, over all its compares: counts and
    times are summed, ratios pooled, simulated rates and latencies are the
    median over the compares."""
    m: dict[str, float] = {}

    def put(name, calls=False, s=False, self_s=False, extra=None):
        stat = st[name]
        if calls:
            m[f"{name}.calls"] = stat.calls
        if s:
            m[f"{name}.s"] = stat.seconds
        if self_s:
            m[f"{name}.self_s"] = stat.self_seconds
        if extra == "ratio":
            m[f"{name}.ok_ratio"] = stat.extra / stat.calls if stat.calls else 0.0
        elif extra:
            m[f"{name}.{extra}"] = stat.extra

    put("core.hash_bytes", calls=True)
    put("core.Hash", calls=True)
    put("core.merkle_root", calls=True, s=True, extra="leaves")
    put("core.serialized_size", calls=True, s=True)
    put("mining.mine", calls=True, s=True)
    put("mining.sample_mining_time", calls=True)
    put("protocol.make_advert", calls=True, s=True, extra="pool_scanned")
    put("protocol.reconstruct_block", calls=True, s=True)
    put("protocol.validate_block", calls=True, s=True, extra="ratio")
    put("protocol.validate_block_baseline", calls=True, s=True, extra="ratio")
    put("protocol.on_block_accepted", calls=True, self_s=True)
    put("protocol.ChainState.add_block", calls=True, extra="reorgs")
    put("protocol.ChainState.utxo_view_at", calls=True, s=True)
    put("protocol.AdvertRegistry.evict_stale", calls=True, extra="evicted")
    put("protocol.Mempool.add", calls=True, s=True)
    put("protocol.Mempool.insert_unchecked", calls=True, s=True)
    put("simnet.gossip_dedup_key", calls=True, s=True)
    m["simnet.self_s"] = sum(v.self_seconds for k, v in st.items() if k.startswith("simnet."))
    for strategy in STRATEGIES:
        mine = [p for p in phases if p["strategy"] == strategy]
        m[f"simnet.setup_s.{strategy}"] = sum(p["setup_s"] for p in mine)
        m[f"simnet.loop_s.{strategy}"] = sum(p["loop_s"] for p in mine)
    logs = [r["log"] for inst in instances for r in inst["strategies"].values()]
    m["simnet.records"] = sum(log["records"] for log in logs)
    for fam in DELIVER_FAMILIES:
        m[f"simnet.deliver.{fam}"] = sum(log["deliver"][fam] for log in logs)
    flooded = sum(log["flooded"] for log in logs)
    m["simnet.gossip_useful_ratio"] = sum(log["useful"] for log in logs) / flooded if flooded else 0.0
    put("metrics.summarize", calls=True, s=True)
    put("metrics.propagation_latency", s=True)
    put("metrics.wasted_hashpower", s=True)
    put("metrics.best_chain", calls=True)
    put("metrics.write_block_csv", s=True)
    for strategy in STRATEGIES:
        models = [inst["strategies"][strategy]["model"] for inst in instances]
        for key in models[0]:
            values = [model[key] for model in models]
            merged = sum(values) if key in SUMMED_MODEL_STATS else statistics.median(values)
            m[f"metrics.model.{strategy}.{key}"] = merged
    m["cli.write_events_s"] = st["cli.write_events"].seconds
    m["cli.log_sha256_s"] = st["cli.log_sha256"].seconds
    m["cli.write_summary_s"] = st["cli.write_summary"].seconds
    return m


def check_outputs(root: Path, rc: int, traced: bool) -> dict[str, dict]:
    """Digest and summary check of one compare's outputs, per strategy."""
    from advertsim.metrics import summarize
    from advertsim.simnet import EventLog

    out: dict[str, dict] = {}
    for strategy in STRATEGIES:
        failures: list[str] = []
        entry = out[strategy] = {"failures": failures, "digest": None}
        if rc != 0:
            failures.append(f"compare exited {rc}")
        events = root / strategy / "events.ndjson"
        if not events.exists():
            failures.append("events.ndjson missing")
            continue
        entry["digest"] = file_sha256(events)
        log = EventLog.read(events)
        recomputed = json.loads(json.dumps(summarize(log), sort_keys=True))
        written = json.loads((root / strategy / "summary.json").read_text(encoding="utf-8"))
        if written != recomputed:
            failures.append("summary.json differs from summarize(EventLog.read(events.ndjson))")
        entry["blocks_found"] = written["blocks_found"]
        if traced:
            entry["log"] = log_stats(log)
            entry["model"] = model_stats(written, entry["log"]["stranded_blocks"])
    return out


def main(argv: list[str]) -> int:
    scenario_path, seed, count, seconds, out_dir, result_path, trace = argv
    seed, count, seconds, traced = int(seed), int(count), float(seconds), trace == "1"
    # One thread, one CPU: the last allowed one, away from CPU 0, which takes
    # the kernel's interrupts and housekeeping. On a 2-vCPU VM this cut the
    # quartile spread of a fixed Python loop from about 0.4 to under 0.1.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path.insert(0, str(ROOT / "src"))
    import advertsim

    if Path(advertsim.__file__).resolve().parent != (ROOT / "src" / "advertsim").resolve():
        print(f"advertsim imported from {advertsim.__file__}, not this checkout", file=sys.stderr)
        return 2
    from advertsim.cli import load_scenario, main as advertsim_main

    from probe import Probe

    probe = Probe(traced)
    probe.install()
    compare_dir = load_scenario(scenario_path).name + "-compare"
    instances = []
    reference = [reference_seconds()]
    start = perf_counter()
    while len(instances) < count or min(seconds, STOP_STARTING_S) > perf_counter() - start:
        inst_seed = seed + len(instances) * SEED_STRIDE
        first_phase = len(probe.strategy_runs)
        t0 = perf_counter()
        rc = advertsim_main([
            "compare", "--scenario", scenario_path, "--strategies", ",".join(STRATEGIES),
            "--seed", str(inst_seed), "--out", str(Path(out_dir) / str(inst_seed)),
        ])
        wall = perf_counter() - t0
        reference.append(reference_seconds())
        phases = [
            {"strategy": r["strategy"], "setup_s": r["loop_start"] - r["call"],
             "loop_s": r["loop_end"] - r["loop_start"], "records": r["records"]}
            for r in probe.strategy_runs[first_phase:] if "loop_end" in r
        ]
        setups = [p["setup_s"] for p in phases]
        sim = sum(p["loop_s"] for p in phases)
        instances.append({
            "seed": inst_seed,
            "rc": rc,
            "speed": REFERENCE_S * 2 / (reference[-2] + reference[-1]),
            "wall_s": wall,
            "sim_s": sim,
            "post_s": wall - sum(setups) - sim,
            "events_per_s": sum(p["records"] for p in phases) / sim if sim > 0 else 0.0,
            "phases": phases,
        })
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # the checks below call traced functions too; keep what the compares did
    stats = probe.snapshot()
    spans = probe.spans[:]
    for inst in instances:
        root = Path(out_dir) / str(inst["seed"]) / compare_dir
        inst["strategies"] = check_outputs(root, inst["rc"], traced)
        comparison = root / "comparison.json"
        inst["comparison"] = json.loads(comparison.read_text(encoding="utf-8")) if comparison.exists() else None
    result = {"peak_rss_mb": peak_rss_mb, "reference_s": reference, "instances": instances}
    if traced:
        if all("log" in r for inst in instances for r in inst["strategies"].values()):
            phases = [p for inst in instances for p in inst["phases"]]
            result["layers"] = layer_metrics(stats, phases, instances)
        with open(Path(result_path).with_suffix(".spans.json"), "w", encoding="utf-8") as f:
            json.dump(spans, f, separators=(",", ":"))
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
