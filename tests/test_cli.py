"""CLI: scenario loading, run orchestration, sweeps, compare, exit codes."""

import gc
import hashlib
import json
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from advertsim import cli
from advertsim.cli import (
    EXIT_OK,
    EXIT_RUNTIME,
    EXIT_SCENARIO,
    EXIT_USAGE,
    load_scenario,
    main,
)
from advertsim.metrics import summarize
from advertsim.simnet import EventLog, RelayStrategy, Scenario, ScenarioError

REPO_ROOT = Path(__file__).resolve().parent.parent
REGIME = REPO_ROOT / "scenarios" / "regime_16node.json"
# event-log digests pinned by the benchmark; tests only read them
GOLDEN = REPO_ROOT / "perfbench" / "golden.json"

TINY = {
    "schema_version": 1,
    "name": "tiny",
    "node_count": 3,
    "topology": {"kind": "ring"},
    "hash_rate": 5.0,
    "difficulty_bits": 5,
    "tx_rate": 2.0,
    "initial_mempool_txs": 30,
    "horizon_seconds": 15.0,
    "seed": 4,
    "relay_strategy": "ADVERT_PROTOCOL",
}


@pytest.fixture
def tiny_scenario(tmp_path):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(TINY))
    return path


class TestLoadScenario:
    def test_minimal_file_fills_documented_defaults(self, tmp_path):
        path = tmp_path / "min.json"
        path.write_text(json.dumps({"node_count": 2}))
        sc = load_scenario(path)
        assert sc.node_count == 2
        assert sc.horizon_seconds == 300.0
        assert sc.tx_size_bytes == 500
        assert sc.topology == {"kind": "random_regular", "degree": 4}
        assert sc.relay_strategy is RelayStrategy.ADVERT_PROTOCOL

    def test_negative_bandwidth_names_the_field(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps({**TINY, "link_bandwidth": {"kind": "constant", "value": -1.0}})
        )
        with pytest.raises(ScenarioError) as exc:
            load_scenario(path)
        assert exc.value.field == "link_bandwidth"

    def test_unknown_field_rejected(self, tmp_path):
        path = tmp_path / "typo.json"
        path.write_text(json.dumps({**TINY, "horizon_secs": 10}))
        with pytest.raises(ScenarioError) as exc:
            load_scenario(path)
        assert exc.value.field == "horizon_secs"

    def test_malformed_json_reports_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"node_count": 2,,}')
        with pytest.raises(ValueError) as exc:
            load_scenario(path)
        assert "line" in str(exc.value)

    def test_shipped_regime_scenario_loads(self):
        sc = load_scenario(REGIME)
        assert sc.node_count == 16
        assert sc.tx_size_bytes == 500
        assert sc.block_size_cap_bytes == 1_000_000
        assert sc.coinbase_size_bytes == 200


class TestRun:
    def test_run_writes_complete_output_set(self, tiny_scenario, tmp_path):
        out = tmp_path / "out"
        assert main(["run", "--scenario", str(tiny_scenario), "--out", str(out)]) == EXIT_OK
        rundir = out / "tiny"
        assert (rundir / "events.ndjson").exists()
        assert (rundir / "blocks.csv").exists()
        assert (rundir / "summary.json").exists()
        assert not (rundir / "INCOMPLETE").exists()
        resolved = json.loads((rundir / "scenario.resolved.json").read_text())
        assert resolved["node_count"] == 3
        assert resolved["horizon_seconds"] == 15.0
        assert resolved["block_size_cap_bytes"] == 1_000_000  # defaults echoed

    def test_rerun_is_byte_identical(self, tiny_scenario, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["run", "--scenario", str(tiny_scenario), "--out", str(out1)])
        main(["run", "--scenario", str(tiny_scenario), "--out", str(out2)])
        first = (out1 / "tiny" / "events.ndjson").read_bytes()
        second = (out2 / "tiny" / "events.ndjson").read_bytes()
        assert first == second

    def test_seed_override_changes_the_log(self, tiny_scenario, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["run", "--scenario", str(tiny_scenario), "--out", str(out1)])
        main(["run", "--scenario", str(tiny_scenario), "--out", str(out2), "--seed", "99"])
        assert (out1 / "tiny" / "events.ndjson").read_bytes() != (
            out2 / "tiny" / "events.ndjson"
        ).read_bytes()

    def test_strategy_override_recorded_in_resolved_scenario(self, tiny_scenario, tmp_path):
        out = tmp_path / "out"
        assert (
            main(
                [
                    "run",
                    "--scenario",
                    str(tiny_scenario),
                    "--out",
                    str(out),
                    "--strategy",
                    "BASELINE_FULL_BLOCK",
                ]
            )
            == EXIT_OK
        )
        resolved = json.loads((out / "tiny" / "scenario.resolved.json").read_text())
        assert resolved["relay_strategy"] == "BASELINE_FULL_BLOCK"

    def test_input_file_never_modified(self, tiny_scenario, tmp_path):
        before = tiny_scenario.read_bytes()
        main(["run", "--scenario", str(tiny_scenario), "--out", str(tmp_path / "o")])
        assert tiny_scenario.read_bytes() == before


class TestSweepAndCompare:
    def test_sweep_creates_run_per_value_plus_metadata(self, tiny_scenario, tmp_path):
        out = tmp_path / "out"
        code = main(
            [
                "sweep",
                "--scenario",
                str(tiny_scenario),
                "--out",
                str(out),
                "--sweep",
                "tx_rate=1.0,2.0,4.0",
            ]
        )
        assert code == EXIT_OK
        root = out / "tiny-sweep-tx_rate"
        for v in ("1.0", "2.0", "4.0"):
            assert (root / f"tx_rate={v}" / "summary.json").exists()
        meta = json.loads((root / "sweep.json").read_text())
        assert meta["sweep_field"] == "tx_rate"
        assert meta["values"] == [1.0, 2.0, 4.0]

    def test_sweep_parses_by_field_type_not_written_value(self, tmp_path):
        # "tx_rate": 2 is written as an integer, but tx_rate is a float field
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps({**TINY, "tx_rate": 2}))
        out = tmp_path / "out"
        argv = ["sweep", "--scenario", str(path), "--out", str(out), "--sweep", "tx_rate=1.5,3"]
        assert main(argv) == EXIT_OK
        root = out / "tiny-sweep-tx_rate"
        meta = json.loads((root / "sweep.json").read_text())
        assert meta["values"] == [1.5, 3.0]
        resolved = json.loads((root / "tx_rate=1.5" / "scenario.resolved.json").read_text())
        assert resolved["tx_rate"] == 1.5

    def test_sweep_type_checks_values(self, tiny_scenario, tmp_path):
        code = main(
            [
                "sweep",
                "--scenario",
                str(tiny_scenario),
                "--out",
                str(tmp_path / "o"),
                "--sweep",
                "node_count=two,three",
            ]
        )
        assert code == EXIT_SCENARIO

    def test_sweep_checks_every_value_before_the_first_run(self, tiny_scenario, tmp_path, capsys):
        out = tmp_path / "o"
        argv = ["sweep", "--scenario", str(tiny_scenario), "--out", str(out), "--sweep", "tx_rate=1,-1"]
        assert main(argv) == EXIT_SCENARIO
        assert "tx_rate: must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_unknown_field_rejected(self, tiny_scenario, tmp_path):
        code = main(
            [
                "sweep",
                "--scenario",
                str(tiny_scenario),
                "--out",
                str(tmp_path / "o"),
                "--sweep",
                "bandwidthz=1,2",
            ]
        )
        assert code == EXIT_SCENARIO

    def test_compare_writes_paired_summaries(self, tiny_scenario, tmp_path):
        out = tmp_path / "out"
        code = main(["compare", "--scenario", str(tiny_scenario), "--out", str(out)])
        assert code == EXIT_OK
        root = out / "tiny-compare"
        assert (root / "BASELINE_FULL_BLOCK" / "summary.json").exists()
        assert (root / "ADVERT_PROTOCOL" / "summary.json").exists()
        doc = json.loads((root / "comparison.json").read_text())
        assert set(doc["strategies"]) == {"BASELINE_FULL_BLOCK", "ADVERT_PROTOCOL"}
        for entry in doc["strategies"].values():
            assert "mean_latency" in entry and "waste_fraction" in entry

    def test_compare_log_digest_is_sha256_of_written_log(self, tmp_path, monkeypatch):
        demo = json.loads(GOLDEN.read_text(encoding="utf-8"))["demo"]
        returned = {}
        execute = cli._execute

        def recording_execute(sc, outdir):
            returned[sc.relay_strategy.value] = summary = execute(sc, outdir)
            return summary

        monkeypatch.setattr(cli, "_execute", recording_execute)
        strategies = ",".join(s.value for s in RelayStrategy)
        argv = ["compare", "--scenario", str(REPO_ROOT / demo["scenario"]), "--strategies",
                strategies, "--seed", str(demo["seed"]), "--out", str(tmp_path)]
        assert main(argv) == EXIT_OK
        assert sorted(returned) == sorted(demo["digests"])
        root = tmp_path / "two-node-demo-compare"
        for strategy, summary in returned.items():
            events = root / strategy / "events.ndjson"
            digest = hashlib.sha256(events.read_bytes()).hexdigest()
            log = EventLog.read(events)
            assert summary.pop("log_sha256") == digest
            assert digest == log.sha256() == demo["digests"][strategy]
            written = json.loads((root / strategy / "summary.json").read_text(encoding="utf-8"))
            assert written == summarize(log) == summary


class TestValidateAndExitCodes:
    def test_validate_ok(self, tiny_scenario, capsys):
        assert main(["validate-scenario", "--scenario", str(tiny_scenario)]) == EXIT_OK
        assert "scenario ok" in capsys.readouterr().out

    def test_validate_shipped_scenarios(self):
        for name in ("regime_16node.json", "two_node_demo.json"):
            assert (
                main(["validate-scenario", "--scenario", str(REPO_ROOT / "scenarios" / name)])
                == EXIT_OK
            )

    def test_validate_accepts_a_high_degree_random_regular_topology(self, tmp_path, capsys):
        path = tmp_path / "dense.json"
        path.write_text(json.dumps({**TINY, "node_count": 12, "topology": {"kind": "random_regular", "degree": 8}}))
        assert main(["validate-scenario", "--scenario", str(path)]) == EXIT_OK
        assert "scenario ok" in capsys.readouterr().out

    def test_invalid_scenario_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**TINY, "tx_rate": -2.0}))
        assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "o")]) == EXIT_SCENARIO
        assert "tx_rate" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, value, message",
        [
            pytest.param(field, value, "must be an integer", id=f"{field}-{kind}")
            for field in (
                "node_count",
                "difficulty_bits",
                "pow_proof_bits",
                "tx_size_bytes",
                "coinbase_size_bytes",
                "initial_mempool_txs",
                "block_size_cap_bytes",
                "pending_seed_buffer",
                "block_reward",
            )
            for kind, value in (("float", 3.0), ("bool", True))
        ]
        + [
            # the seed only labels rng streams, so any value would run
            pytest.param("seed", value, "must be an integer", id=f"seed-{kind}")
            for kind, value in (("str", "abc"), ("float", 1.5), ("bool", True), ("null", None), ("list", [1]))
        ]
        + [
            pytest.param("schema_version", value, "must be 1", id=f"schema_version-{kind}")
            for kind, value in (("7", 7), ("bool", True), ("str", "1"))
        ]
        + [
            pytest.param(field, value, "must be a finite number", id=f"{field}-{kind}")
            for field in ("tx_rate", "horizon_seconds", "processing_delay_seconds")
            for kind, value in (("str", "10"), ("bool", True), ("null", None), ("inf", float("inf")))
        ]
        + [
            pytest.param("hash_rate", value, "must be a finite number or a list of them", id=f"hash_rate-{kind}")
            for kind, value in (
                ("str", "10"),
                ("bool", True),
                ("nan", float("nan")),
                ("list-str", [5.0, "5", 5.0]),
                ("list-bool", [5.0, 5.0, True]),
            )
        ]
        + [
            # each list but the bad edge connects the three nodes
            pytest.param(
                "topology",
                {"kind": "edges", "edges": edges},
                "each edge must be a pair of integer node ids",
                id=f"edges-{kind}",
            )
            for kind, edges in (
                ("short", [[1, 2], [0]]),
                ("not-a-list", [[1, 2], 0]),
                ("str", [["0", "1"], [1, 2]]),
                ("float", [[0.7, 1.2], [1, 2]]),
                ("triple", [[0, 1, 2], [1, 2]]),
                ("bool", [[False, True], [1, 2]]),
            )
        ]
        + [
            pytest.param(
                "topology",
                {"kind": "random_regular", "degree": True},
                "random_regular needs an integer 'degree' >= 1",
                id="degree-bool",
            ),
        ]
        + [
            pytest.param("name", value, "must be a non-empty string that is one path component", id=f"name-{kind}")
            for kind, value in (
                ("int", 5),
                ("empty", ""),
                ("slash", "a/b"),
                ("backslash", "a\\b"),
                ("dot", "."),
                ("dotdot", ".."),
            )
        ]
        + [
            pytest.param(field, {"kind": "constant", "value": value},
                         "constant distribution needs a finite numeric 'value'", id=f"{field}-constant-{kind}")
            for field in ("link_latency", "link_bandwidth")
            for kind, value in (("inf", float("inf")), ("nan", float("nan")), ("bool", True))
        ]
        + [
            pytest.param(field, {"kind": "uniform", "low": low, "high": high},
                         "uniform distribution needs finite numeric 'low' and 'high'", id=f"{field}-uniform-{kind}")
            for field in ("link_latency", "link_bandwidth")
            for kind, low, high in (("high-nan", 1, float("nan")), ("high-inf", 1, float("inf")), ("low-bool", True, 2))
        ],
    )
    def test_non_integer_field_exit_2(self, field, value, message, tmp_path, capsys):
        # each value is in range for its field or not comparable at all, so only
        # the type check can reject it by name
        data = {**TINY, field: value}
        with pytest.raises(ScenarioError) as exc:
            Scenario.from_dict(data)
        assert exc.value.field == field
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        assert main(["validate-scenario", "--scenario", str(path)]) == EXIT_SCENARIO
        assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "o")]) == EXIT_SCENARIO
        assert f"{field}: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, floor",
        # a faucet transaction's and a coinbase's serialized sizes; a header and the default coinbase
        [("tx_size_bytes", 77), ("coinbase_size_bytes", 41), ("block_size_cap_bytes", 80 + 200)],
    )
    def test_size_a_run_cannot_build_exit_2(self, field, floor, tiny_scenario, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**TINY, field: floor - 1}))
        assert main(["validate-scenario", "--scenario", str(path)]) == EXIT_SCENARIO
        assert f"{field}: must be >= {floor}" in capsys.readouterr().err
        out = tmp_path / "o"
        sweep = ["sweep", "--scenario", str(tiny_scenario), "--out", str(out),
                 "--sweep", f"{field}={floor},{floor - 1}"]
        assert main(sweep) == EXIT_SCENARIO
        assert not out.exists()
        path.write_text(json.dumps({**TINY, field: floor}))
        assert main(["run", "--scenario", str(path), "--out", str(out)]) == EXIT_OK

    @pytest.mark.parametrize("strategies", ["FOO", "ADVERT_PROTOCOL,ADVERT_PROTOCOL", "BASELINE_FULL_BLOCK,"])
    def test_bad_strategies_list_exit_1(self, strategies, tiny_scenario, tmp_path):
        out = tmp_path / "o"
        argv = ["compare", "--scenario", str(tiny_scenario), "--out", str(out), "--strategies", strategies]
        assert main(argv) == EXIT_USAGE
        assert not out.exists()

    def test_compare_takes_no_strategy_flag(self, tiny_scenario, tmp_path):
        # compare names its runs with --strategies; --strategy would change none
        out = tmp_path / "o"
        argv = ["compare", "--scenario", str(tiny_scenario), "--out", str(out), "--strategy", "LATE_ADVERT"]
        assert main(argv) == EXIT_USAGE
        assert not out.exists()

    def test_missing_file_exit_2(self, tmp_path):
        assert (
            main(["run", "--scenario", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
            == EXIT_SCENARIO
        )

    def test_file_that_is_not_utf8_exit_2_naming_the_file(self, tmp_path, capsys):
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe" + json.dumps(TINY).encode("utf-16-le"))
        assert main(["validate-scenario", "--scenario", str(path)]) == EXIT_SCENARIO
        assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "o")]) == EXIT_SCENARIO
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2 and all(f"scenario: cannot read {path}: not UTF-8" in line for line in err)

    def test_faucet_size_a_run_cannot_build_exit_2(self, tmp_path, capsys):
        # tx_rate * horizon_seconds * 3 overflows to inf, which the run
        # cannot turn into a faucet output count
        path = tmp_path / "long.json"
        path.write_text(json.dumps({"node_count": 2, "topology": {"kind": "ring"}, "horizon_seconds": 1e308,
                                    "tx_rate": 10.0, "name": "h"}))
        out = tmp_path / "o"
        assert main(["validate-scenario", "--scenario", str(path)]) == EXIT_SCENARIO
        assert main(["run", "--scenario", str(path), "--out", str(out)]) == EXIT_SCENARIO
        message = "horizon_seconds: tx_rate * horizon_seconds * 3, the run's faucet size, must be finite"
        assert capsys.readouterr().err.count(message) == 2
        assert not out.exists()

    def test_value_error_inside_a_run_exit_3(self, tiny_scenario, tmp_path, monkeypatch, capsys):
        # only a ScenarioError is an invalid scenario; any other fault is the run's
        def failing_run(sc):
            raise ValueError("internal fault inside the run")

        monkeypatch.setattr(cli, "run_scenario", failing_run)
        assert main(["run", "--scenario", str(tiny_scenario), "--out", str(tmp_path / "o")]) == EXIT_RUNTIME
        assert "runtime failure: internal fault inside the run" in capsys.readouterr().err

    def test_usage_error_exit_1(self, capsys):
        assert main(["run"]) == EXIT_USAGE
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_help_exit_0(self, capsys):
        assert main(["--help"]) == EXIT_OK
        assert main(["compare", "--help"]) == EXIT_OK
        assert "usage: advertsim" in capsys.readouterr().out


# Ten in-process compares in a fresh interpreter; prints, per command, its
# exit code, the collector's tracked-object count and the frozen count, then
# how many argparse help formatters and their sections are still tracked.
_REPEATED_COMPARES = """
import argparse, gc, json, sys
sys.path.insert(0, sys.argv[1])
from advertsim.cli import main
counts = []
for _ in range(10):
    rc = main(["compare", "--scenario", sys.argv[2], "--out", sys.argv[3]])
    counts.append((rc, len(gc.get_objects()), gc.get_freeze_count()))
print(json.dumps(counts))
formatting = (argparse.HelpFormatter, argparse.HelpFormatter._Section)
print(json.dumps(sum(isinstance(o, formatting) for o in gc.get_objects())))
"""


class TestCollectorPause:
    @pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
    def test_main_restores_the_collector_setting(self, enabled, tiny_scenario, tmp_path, monkeypatch):
        (gc.enable if enabled else gc.disable)()
        # a caller's frozen objects stay frozen: main freezes nothing more and
        # unfreezes nothing (a frozen object may still die by reference count)
        kept = [object()]
        gc.freeze()
        frozen = gc.get_freeze_count()

        def check_pause_undone():
            assert gc.isenabled() is enabled
            assert gc.get_freeze_count() <= frozen
            assert gc.is_tracked(kept) and not any(o is kept for o in gc.get_objects())

        out = ["--out", str(tmp_path / "o")]
        assert main(["run", "--scenario", str(tiny_scenario)] + out) == EXIT_OK
        check_pause_undone()
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**TINY, "tx_rate": -2.0}))
        assert main(["run", "--scenario", str(bad)] + out) == EXIT_SCENARIO
        check_pause_undone()
        during = []

        def failing_run(sc):
            during.append(gc.isenabled())
            raise RuntimeError("simulated failure")

        monkeypatch.setattr(cli, "run_scenario", failing_run)
        assert main(["run", "--scenario", str(tiny_scenario)] + out) == EXIT_RUNTIME
        check_pause_undone()
        assert during == [False]  # paused while the command ran

    @pytest.mark.parametrize("caller_froze", [True, False], ids=["caller-froze", "none-frozen"])
    def test_cycle_made_by_a_command_is_freed_when_main_returns(
        self, caller_froze, tiny_scenario, tmp_path, monkeypatch
    ):
        # the suite's per-test pause has frozen the heap, as a caller may;
        # unfrozen, main freezes it itself
        if not caller_froze:
            gc.unfreeze()
        refs = []
        execute = cli._execute

        class Sentinel:
            pass

        def cyclic_execute(sc, outdir):
            sentinel = Sentinel()
            refs.append(weakref.ref(sentinel))
            cycle = {"sentinel": sentinel}
            cycle["self"] = cycle
            return execute(sc, outdir)

        monkeypatch.setattr(cli, "_execute", cyclic_execute)
        assert main(["run", "--scenario", str(tiny_scenario), "--out", str(tmp_path)]) == EXIT_OK
        assert len(refs) == 1 and refs[0]() is None
        assert (gc.get_freeze_count() > 0) is caller_froze

    def test_repeated_commands_leave_nothing_behind(self, tmp_path):
        # a fresh interpreter: the suite's own per-test pause would freeze,
        # and so hide, whatever a command leaves uncollected
        proc = subprocess.run(
            [sys.executable, "-c", _REPEATED_COMPARES, str(REPO_ROOT / "src"),
             str(REPO_ROOT / "scenarios" / "two_node_demo.json"), str(tmp_path)],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        counts, formatting = map(json.loads, proc.stdout.splitlines()[-2:])
        assert [rc for rc, _, _ in counts] == [EXIT_OK] * 10
        assert [frozen for _, _, frozen in counts] == [0] * 10
        # a parser built per command left about 200 objects behind each time
        settled = counts[1][1]
        assert all(abs(n - settled) <= 40 for _, n, _ in counts[1:]), counts
        # the cached parser's one build makes help formatters, cyclic garbage
        # that a build outside the pause would leave for every later command
        # to freeze
        assert formatting == 0
