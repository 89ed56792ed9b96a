"""Benchmark of ``advertsim compare``.

    python3 perfbench/run.py --workload forky-cold --seed 1 --seconds 10 --trace 0

A workload run is one fresh child process (``child.py``) that calls
``advertsim.cli.main(["compare", ...])`` for BASELINE_FULL_BLOCK,
ADVERT_PROTOCOL and LATE_ADVERT at the workload's number of seeds,
starting from ``--seed`` (more while ``--seconds`` have not passed).
Each compare's host times are scaled by its speed factor (see
``REFERENCE_S`` in child.py); time metrics are medians over the compares,
and peak RSS is the child's.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json.
``--trace 1`` makes half the workload's compares (at least one) untraced
and then the same traced, and prints the per-layer metrics, including
``trace.overhead_ratio``.

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; an operation is one strategy
run, and it fails when any output check on it fails (see README.md).
Outputs, spans and the environment record go to ``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from child import SEED_STRIDE, STRATEGIES

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".perfbench-out"
# name -> (scenario, compares per run). The first three are the full-size
# scenarios; one compare of them takes 15-45 s and its host time varies with
# the seed by 2-3x (block count, fork and retry storms), too much for one
# run. The last two scale forky and long-ring down so that a run's median
# over several seeds is steady; BENCHMARK.json gates those. See README.md.
WORKLOADS = {
    "regime": (ROOT / "scenarios" / "regime_16node.json", 1),
    "forky": (BENCH / "workloads" / "forky.json", 1),
    "long-ring": (BENCH / "workloads" / "long-ring.json", 1),
    "forky-cold": (BENCH / "workloads" / "forky-cold.json", 5),
    "ring": (BENCH / "workloads" / "ring.json", 8),
}
END_TO_END = ("wall_s", "setup_s", "sim_s", "post_s", "events_per_s", "peak_rss_mb")
# an invocation, both child runs of a traced one included, ends within 180 s
RUN_BUDGET_S = 170.0


def source_digest() -> str:
    """sha256 over the simulator's sources: names the code under test in a
    checkout that is not a git repository."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "advertsim").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def run_child(workload: str, seed: int, count: int, seconds: float, traced: bool, tag: str, timeout: float) -> dict:
    """One workload run in a fresh process; returns child.py's result."""
    out_dir = OUT / f"run-{workload}-{tag}-{os.getpid()}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    result_path = OUT / f"result-{workload}-{tag}-{os.getpid()}.json"
    result_path.unlink(missing_ok=True)
    cmd = [
        sys.executable, str(BENCH / "child.py"), str(WORKLOADS[workload][0]), str(seed),
        str(count), str(seconds), str(out_dir), str(result_path), "1" if traced else "0",
    ]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    if proc.returncode != 0 or not result_path.exists():
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-4000:])
        raise SystemExit(f"child run failed with exit code {proc.returncode}")
    result = json.loads(result_path.read_text(encoding="utf-8"))
    result_path.unlink()
    return result


def thesis_failures(comparison: dict) -> dict[str, list[str]]:
    """The paper's ordering at the reference point, charged to the strategy
    whose claim breaks: ADVERT beats BASELINE on latency and waste, and
    critical-path bytes order ADVERT < LATE < BASELINE."""
    base, adv, late = (comparison["strategies"][s] for s in STRATEGIES)
    out: dict[str, list[str]] = {}
    if not adv["mean_latency"] < base["mean_latency"]:
        out.setdefault("ADVERT_PROTOCOL", []).append("thesis: latency not below BASELINE")
    if not adv["waste_fraction"] < base["waste_fraction"]:
        out.setdefault("ADVERT_PROTOCOL", []).append("thesis: waste not below BASELINE")
    if not adv["mean_critical_path_bytes"] < late["mean_critical_path_bytes"]:
        out.setdefault("ADVERT_PROTOCOL", []).append("thesis: critical-path bytes not below LATE")
    if not late["mean_critical_path_bytes"] < base["mean_critical_path_bytes"]:
        out.setdefault("LATE_ADVERT", []).append("thesis: critical-path bytes not below BASELINE")
    return out


class DigestCheck:
    """Event-log digests must repeat: across the runs of this invocation,
    across earlier invocations in this checkout on the same sources, and
    against ``golden.json`` at a workload's default seed."""

    def __init__(self, sources: str, workload: str, pinned: dict) -> None:
        self.path = OUT / "digests.json"
        try:
            self.seen = json.loads(self.path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            self.seen = {}
        self.prefix = f"{sources[:16]}/{workload}"
        self.pinned = pinned

    def check(self, seed: int, strategy: str, digest: str) -> list[str]:
        failures = []
        pinned = self.pinned["digests"][strategy] if seed == self.pinned["seed"] else digest
        if digest != pinned:
            failures.append(f"digest {digest[:16]} != pinned {pinned[:16]}")
        earlier = self.seen.setdefault(f"{self.prefix}/{seed}/{strategy}", digest)
        if earlier != digest:
            failures.append(f"digest {digest[:16]} != another run of this seed {earlier[:16]}")
        return failures

    def save(self) -> None:
        self.path.write_text(json.dumps(self.seen, indent=1, sort_keys=True), encoding="utf-8")


def failed_runs(workload: str, instance: dict, digests: DigestCheck) -> int:
    """Apply the output checks to one compare; returns failed strategy runs."""
    reasons = {s: list(r["failures"]) for s, r in instance["strategies"].items()}
    for s, r in instance["strategies"].items():
        if r["digest"] is not None:
            reasons[s] += digests.check(instance["seed"], s, r["digest"])
    if workload == "regime" and instance["comparison"] is not None:
        for s, why in thesis_failures(instance["comparison"]).items():
            reasons[s] += why
    for s, why in reasons.items():
        for reason in why:
            print(f"check failed: {workload} {s}: {reason}", file=sys.stderr)
    return sum(1 for why in reasons.values() if why)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "advertsim" / "__init__.py").is_file():
        print(f"no advertsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    golden = json.loads((BENCH / "golden.json").read_text(encoding="utf-8"))
    sources = source_digest()
    env = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "source_sha256": sources,
        "workload": args.workload,
        "scenario": str(WORKLOADS[args.workload][0].relative_to(ROOT)),
        "seed": args.seed,
        "seed_stride": SEED_STRIDE,
        "default_seeds": {w: g["seed"] for w, g in golden["workloads"].items()},
    }
    OUT.mkdir(exist_ok=True)
    digests = DigestCheck(sources, args.workload, golden["workloads"][args.workload])

    count = WORKLOADS[args.workload][1]
    start = perf_counter()
    if args.trace:
        # half the compares, untraced, then the same traced: their digests
        # must agree, and both fit in one invocation's time
        plain = run_child(args.workload, args.seed, (count + 1) // 2, 0, False, "plain", RUN_BUDGET_S)
        traced = run_child(args.workload, args.seed, len(plain["instances"]), 0, True, "traced",
                           RUN_BUDGET_S - (perf_counter() - start))
        runs = [plain, traced]
    else:
        runs = [run_child(args.workload, args.seed, count, args.seconds, False, "plain", RUN_BUDGET_S)]
    instances = [inst for run in runs for inst in run["instances"]]
    failed = sum(failed_runs(args.workload, inst, digests) for inst in instances)
    digests.save()

    if args.trace:
        metrics = dict(traced.get("layers", {}))
        # raw seconds: the two runs follow each other on the same host
        metrics["trace.overhead_ratio"] = (
            sum(i["wall_s"] for i in traced["instances"]) / sum(i["wall_s"] for i in plain["instances"])
        )
        names = [n for n in units if n not in END_TO_END]
    else:
        metrics = {
            k: statistics.median(i[k] * i["speed"] for i in instances) for k in ("wall_s", "sim_s", "post_s")
        }
        metrics["events_per_s"] = statistics.median(i["events_per_s"] / i["speed"] for i in instances)
        # every strategy sets up the same state; the median over all of a
        # run's set-ups resists a stall in one of them
        setups = [p["setup_s"] * i["speed"] for i in instances for p in i["phases"]]
        metrics["setup_s"] = len(STRATEGIES) * statistics.median(setups)
        metrics["peak_rss_mb"] = runs[0]["peak_rss_mb"]
        names = list(END_TO_END)
    missing = [n for n in names if n not in metrics]
    if missing:
        print(f"metrics not produced: {missing}", file=sys.stderr)
        return 1
    line = {
        "correct": failed == 0,
        "attempted": len(STRATEGIES) * len(instances),
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in names},
    }
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"environment": env, "runs": runs, "result": line}
    (OUT / f"BENCH_{tag}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    if args.trace:
        os.replace(OUT / f"result-{args.workload}-traced-{os.getpid()}.spans.json", OUT / f"spans_{tag}.json")
    print("environment: " + json.dumps(env, sort_keys=True))
    for n in names:
        print(f"{n} = {metrics[n]} {units[n]}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
