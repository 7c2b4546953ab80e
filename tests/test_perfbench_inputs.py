"""The benchmark's hooks and inputs still fit the package.

perfbench/tracer.py wraps geobft entry points by name, and
perfbench/workloads.py generates the scenarios it runs. A renamed method
or a newly rejected scenario key would break perfbench/run.py; these
tests read both files as they are and check them against geobft.
"""
import importlib
import importlib.util
from pathlib import Path

import pytest

from geobft.scenario import load_scenario

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _module(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _module("tracer")
workloads = _module("workloads")


@pytest.mark.parametrize("modname,clsname,attr,layer", tracer._ENTRY_POINTS)
def test_entry_point_resolves(modname, clsname, attr, layer):
    owner = importlib.import_module(modname)
    if clsname:
        owner = getattr(owner, clsname)
    assert callable(getattr(owner, attr))


@pytest.mark.parametrize("modname,clsname,attr,index", tracer._CALLBACK_ARGS)
def test_callback_argument_target_resolves(modname, clsname, attr, index):
    method = getattr(getattr(importlib.import_module(modname), clsname), attr)
    # the index counts self, so the method takes at least index + 1 arguments
    assert method.__code__.co_argcount > index


@pytest.mark.parametrize("modname", sorted(tracer._MODULE_LAYER))
def test_layer_module_imports(modname):
    importlib.import_module(modname)


SCENARIO_WORKLOADS = sorted(name for name, (kind, _) in workloads.WORKLOADS.items()
                            if kind == "scenario")


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("workload", SCENARIO_WORKLOADS)
def test_generated_scenario_loads(workload, seed):
    _, generate = workloads.WORKLOADS[workload]
    load_scenario(generate(seed))
