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

from geobft.checkpoint import CheckpointComponent
from geobft.core import ReplicaId
from geobft.core.messages import CpAnnounce
from geobft.scenario import load_scenario
from geobft.simnet import FaultPlan, Node, NodeFault
from tests.test_checkpoint import build_group

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _module(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _module("tracer")
workloads = _module("workloads")
worker = _module("worker")

# the names Tracer.install gives the entry-point spans, and hooks are keyed by
SPAN_NAMES = {f"{cls}.{attr}" if cls else attr for _, cls, attr, _ in tracer._ENTRY_POINTS}


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


@pytest.mark.parametrize("hooks", ["_scenario_hooks", "_channel_hooks"])
def test_every_hook_names_an_entry_point_span(hooks):
    names = set(getattr(worker, hooks)(tracer.Tracer()))
    assert names and names <= SPAN_NAMES, names - SPAN_NAMES


def test_announce_hook_counts_a_useful_announce_on_a_real_component(monkeypatch):
    """The hook reads latest_stable(), fetching and the Node.net_send span
    around CheckpointComponent.on_announce: an announce that makes the
    receiver query counts as useful, a second one of the same checkpoint
    does not."""
    t = tracer.Tracer()
    hook = worker._scenario_hooks(t)["CheckpointComponent.on_announce"]
    monkeypatch.setattr(CheckpointComponent, "on_announce", t.span(
        "CheckpointComponent.on_announce", "checkpoint",
        CheckpointComponent.on_announce, hook))
    monkeypatch.setattr(Node, "net_send", t.span("Node.net_send", "simnet", Node.net_send))
    c_id = ReplicaId("ex", 1, 2)
    sim, (a, b, c) = build_group(
        fault_plan=FaultPlan({c_id: NodeFault("partition", 0.0, 50.0)}))
    a.cp.gen_cp(10, b"ten")
    b.cp.gen_cp(10, b"ten")
    sim.run_until(60)  # c missed round 10
    a.send_signed(c.nid, CpAnnounce("ex", 1, 10))
    sim.run_until(100)
    a.send_signed(c.nid, CpAnnounce("ex", 1, 10))
    sim.run_until(150)
    assert c.stable_calls == [(10, b"ten")]
    assert t.stats["CheckpointComponent.on_announce"].calls == 2
    assert t.counts == {"checkpoint.useful_announces": 1}


SCENARIO_WORKLOADS = sorted(name for name, (kind, _) in workloads.WORKLOADS.items()
                            if kind == "scenario")


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("workload", SCENARIO_WORKLOADS)
def test_generated_scenario_loads(workload, seed):
    _, generate = workloads.WORKLOADS[workload]
    load_scenario(generate(seed))
