"""The benchmark probe wraps program functions by name: each target must still exist.

A traced benchmark run otherwise fails with AttributeError after a rename.
"""

import importlib.util
import inspect
import json
from pathlib import Path

import pytest

import advertsim.cli
import advertsim.simnet

PROBE = Path(__file__).resolve().parent.parent / "perfbench" / "probe.py"
_spec = importlib.util.spec_from_file_location("perfbench_probe", PROBE)
probe = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(probe)


@pytest.mark.parametrize(
    "module, attr", [pytest.param(module, attr, id=name) for name, module, attr in probe.SPANS + probe.COUNTERS]
)
def test_probe_target_resolves(module, attr):
    mod = probe._module(module)
    if "." in attr:
        # as Probe._patch: a class attribute, read through the class __dict__
        cls_name, meth = attr.split(".")
        assert meth in getattr(mod, cls_name).__dict__
    else:
        assert callable(getattr(mod, attr))


def test_phase_timer_targets():
    # the phase timers wrap run_scenario in every namespace that holds it,
    # and _Sim.run for the event loop
    assert advertsim.cli.run_scenario is advertsim.simnet.run_scenario
    assert "run" in advertsim.simnet._Sim.__dict__
    # the wrappers call run_scenario(scenario) and _Sim.run(sim), positionally
    assert list(inspect.signature(advertsim.simnet.run_scenario).parameters) == ["scenario"]
    assert list(inspect.signature(advertsim.simnet._Sim.run).parameters) == ["self"]
    # and count a run's records as len(log.records): one entry per record line written
    demo = json.loads((Path(__file__).resolve().parent.parent / "scenarios" / "two_node_demo.json").read_text())
    log = advertsim.simnet.run_scenario(advertsim.simnet.Scenario.from_dict(demo))
    assert len(log.records) == len(list(log.lines())) - 1 > 0  # the first line is the meta
