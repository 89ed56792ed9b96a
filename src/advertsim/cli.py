"""Command-line entry point: run scenarios, sweeps, and paired comparisons.

Sub-commands:

* ``run``               — execute one scenario, write log + metrics
* ``sweep``             — rerun a scenario across values of one field
* ``compare``           — run the same scenario/seed once per strategy
* ``validate-scenario`` — parse and validate a scenario file

Every output directory contains the fully-resolved scenario (defaults
filled in), the event log as newline-delimited JSON, a per-block CSV,
and a JSON summary, which together are sufficient to reproduce the run
exactly. Input files are never modified.

Exit codes: 0 success, 1 usage error, 2 invalid scenario, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields as dataclass_fields, replace
from pathlib import Path

from .metrics import _write_json, _write_run_outputs
from .simnet import RelayStrategy, Scenario, ScenarioError, collector_paused, run_scenario

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_SCENARIO = 2
EXIT_RUNTIME = 3

OUT_ROOT_ENV = "ADVERTSIM_OUT"


def load_scenario(path: str | Path) -> Scenario:
    """Parse and validate a scenario file, filling documented defaults.

    Raises ScenarioError with the offending field named, or ValueError
    with line/position diagnostics for malformed JSON.
    """
    return Scenario.from_dict(_read_scenario(path))


def _read_scenario(path: str | Path) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise ScenarioError("scenario", f"cannot read {path}: {e.strerror}") from e
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise ValueError(f"{path}: invalid JSON at line {e.lineno} column {e.colno}: {e.msg}") from e
    if not isinstance(data, dict):
        raise ScenarioError("scenario", "top level must be a JSON object")
    return data


def _load_with_overrides(args) -> Scenario:
    """The scenario file with ``--seed`` and ``--strategy`` applied, validated once."""
    data = _read_scenario(args.scenario)
    if args.seed is not None:
        data["seed"] = args.seed
    if args.strategy is not None:
        data["relay_strategy"] = args.strategy
    return Scenario.from_dict(data)


def _out_root(args) -> Path:
    if args.out:
        return Path(args.out)
    return Path(os.environ.get(OUT_ROOT_ENV, "runs"))


def _execute(sc: Scenario, outdir: Path) -> dict:
    outdir.mkdir(parents=True, exist_ok=True)
    marker = outdir / "INCOMPLETE"
    marker.write_text("run in progress or aborted\n", encoding="utf-8")
    _write_json(outdir / "scenario.resolved.json", sc.to_dict())
    log = run_scenario(sc)
    log_sha256 = log.write(outdir / "events.ndjson")
    summary = _write_run_outputs(log, outdir / "blocks.csv", outdir / "summary.json")
    marker.unlink()
    summary["log_sha256"] = log_sha256
    return summary


def _cmd_run(args) -> int:
    sc = _load_with_overrides(args)
    outdir = _out_root(args) / sc.name
    summary = _execute(sc, outdir)
    print(f"run complete: {outdir}")
    print(f"  blocks found: {summary['blocks_found']}, stale rate: {summary['stale_rate']}")
    print(f"  mean adoption latency: {summary['propagation']['mean']}")
    print(f"  log sha256: {summary['log_sha256']}")
    return EXIT_OK


# parser and its description, by the type of a field's default
_SWEEP_PARSERS = {
    int: (int, "an integer"),
    float: (float, "a number"),
    RelayStrategy: (RelayStrategy, "a relay strategy"),
    str: (str, "a string"),
}


def _parse_sweep(spec: str, sc: Scenario) -> tuple[str, list]:
    """Split ``key=v1,v2,...`` and parse each value by the type of the field's default.

    The scenario's current value does not decide: ``"tx_rate": 2`` in a
    file still sweeps as a float field.
    """
    if "=" not in spec:
        raise ScenarioError("sweep", "expected key=v1,v2,...")
    key, _, raw = spec.partition("=")
    key = key.strip()
    fields = {f.name: f for f in dataclass_fields(sc)}
    if key not in fields:
        raise ScenarioError("sweep", f"unknown scenario field {key!r}")
    parser = _SWEEP_PARSERS.get(type(fields[key].default))
    if parser is None:
        raise ScenarioError("sweep", f"field {key!r} cannot be swept from the command line")
    parse, what = parser
    values = []
    for part in raw.split(","):
        part = part.strip()
        try:
            values.append(parse(part))
        except ValueError:
            raise ScenarioError("sweep", f"value {part!r} is not {what} for {key!r}") from None
    return key, values


def _cmd_sweep(args) -> int:
    base = _load_with_overrides(args)
    key, values = _parse_sweep(args.sweep, base)
    runs = [replace(base, **{key: v}) for v in values]
    for sc in runs:
        sc.validate()  # every value before the first run writes anything
    root = _out_root(args) / f"{base.name}-sweep-{key}"
    entries = []
    for v, sc in zip(values, runs):
        tag = v.value if isinstance(v, RelayStrategy) else v
        outdir = root / f"{key}={tag}"
        summary = _execute(sc, outdir)
        entries.append({"value": tag, "dir": str(outdir), "summary": summary})
        print(f"sweep {key}={tag}: blocks={summary['blocks_found']} "
              f"mean_latency={summary['propagation']['mean']}")
    meta = {"sweep_field": key, "values": [e["value"] for e in entries], "runs": entries}
    _write_json(root / "sweep.json", meta)
    print(f"sweep complete: {root}")
    return EXIT_OK


def _cmd_compare(args) -> int:
    base = _load_with_overrides(args)
    strategies = [RelayStrategy(s.strip()) for s in args.strategies.split(",")]
    root = _out_root(args) / f"{base.name}-compare"
    per_strategy = {}
    for strat in strategies:
        sc = replace(base, relay_strategy=strat)
        outdir = root / strat.value
        summary = _execute(sc, outdir)
        per_strategy[strat.value] = summary
        print(f"{strat.value}: mean_latency={summary['propagation']['mean']} "
              f"stale={summary['stale_rate']} waste={summary['waste']['fraction']:.4f}")
    comparison = {
        "scenario": base.to_dict(),
        "strategies": {
            name: {
                "mean_latency": s["propagation"]["mean"],
                "stale_rate": s["stale_rate"],
                "waste_fraction": s["waste"]["fraction"],
                "mean_critical_path_bytes": s["bytes"]["mean_critical_path"],
                "total_bytes": s["bytes"]["total"],
            }
            for name, s in per_strategy.items()
        },
    }
    _write_json(root / "comparison.json", comparison)
    print(f"comparison written: {root / 'comparison.json'}")
    return EXIT_OK


def _cmd_validate(args) -> int:
    sc = load_scenario(args.scenario)
    print(f"scenario ok: {sc.name} ({sc.node_count} nodes, {sc.relay_strategy.value})")
    if args.print_resolved:
        print(json.dumps(sc.to_dict(), indent=2, sort_keys=True))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="advertsim",
        description="Deterministic simulator for advertise-ahead block relay.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_overrides=True):
        p.add_argument("--scenario", required=True, help="scenario JSON file")
        p.add_argument("--out", default=None, help=f"output root (default $" + OUT_ROOT_ENV + " or ./runs)")
        if with_overrides:
            p.add_argument("--seed", type=int, default=None, help="override the scenario rng seed")
            p.add_argument(
                "--strategy",
                choices=[s.value for s in RelayStrategy],
                default=None,
                help="override the relay strategy",
            )

    p_run = sub.add_parser("run", help="execute one scenario")
    add_common(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="rerun across values of one scenario field")
    add_common(p_sweep)
    p_sweep.add_argument("--sweep", required=True, metavar="KEY=V1,V2", help="field and values")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_cmp = sub.add_parser("compare", help="same scenario and seed, one run per strategy")
    add_common(p_cmp)
    p_cmp.add_argument(
        "--strategies",
        default="BASELINE_FULL_BLOCK,ADVERT_PROTOCOL",
        help="comma-separated strategies (default baseline vs advert)",
    )
    p_cmp.set_defaults(func=_cmd_compare)

    p_val = sub.add_parser("validate-scenario", help="parse and validate a scenario file")
    p_val.add_argument("--scenario", required=True, help="scenario JSON file")
    p_val.add_argument("--print-resolved", action="store_true", help="echo the resolved scenario")
    p_val.set_defaults(func=_cmd_validate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    try:
        # a command's logs make no cycles
        with collector_paused():
            return args.func(args)
    except (ScenarioError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_SCENARIO
    except Exception as e:  # noqa: BLE001 - surface anything else as runtime failure
        print(f"runtime failure: {e}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
