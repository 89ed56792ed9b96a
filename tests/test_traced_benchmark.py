"""A traced benchmark run completes and reports every per-layer metric.

``tests/test_probe_targets.py`` only checks that the wrapped names exist. The
probe's per-call extras also read what the wrapped functions return (a
verdict's ``.accepted``, an ``AddOutcome``'s ``.kind``, the mempool argument's
``.txs``, the count ``evict_stale`` returns); if one of those breaks, a traced
run crashes only after all its compares. One short traced compare finds it.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_child_run_reports_every_layer(tmp_path):
    result_path = tmp_path / "result.json"
    proc = subprocess.run(
        [sys.executable, "perfbench/child.py", "scenarios/two_node_demo.json", "42", "1", "0",
         str(tmp_path), str(result_path), "1"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(result_path.read_text(encoding="utf-8"))
    for inst in result["instances"]:
        assert inst["rc"] == 0
        assert all(not s["failures"] for s in inst["strategies"].values())
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
    # trace.overhead_ratio compares a traced run with an untraced one, so run.py adds it
    names = {m["name"] for m in declared} - {"trace.overhead_ratio"}
    assert sorted(names - set(result["layers"])) == []
