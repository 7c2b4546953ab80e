"""Scenario schema validation and the shipped catalogue."""
import copy
import json
import re

import pytest

from geobft import cli
from geobft.agreement import AG_WIN, COMMIT_CAPACITY, K_A
from geobft.execution import K_E
from geobft.scenario import (
    ADMIN_KEYS,
    CLIENT_KEYS,
    DEFAULT_PARAMS,
    FAULT_KEYS,
    GROUP_KEYS,
    MIX_KEYS,
    SCENARIO_DIR,
    SCENARIO_KEYS,
    TOPOLOGY_KEYS,
    ScenarioError,
    load_scenario,
    shipped_scenarios,
)
from tests.test_perfbench_inputs import SCENARIO_WORKLOADS, workloads

BASE = {
    "name": "x", "mode": "spider", "irmc": "rc", "duration_ms": 1000,
    "f_a": 1, "f_e": 1,
    "topology": {"regions": {"V": 4, "O": 3}, "wan_ms": {"V-O": 35}},
    "agreement_region": "V",
    "groups": [{"id": 1, "region": "V"}, {"id": 2, "region": "O"}],
    "clients": [{"count": 1, "region": "V", "rate_per_s": 5}],
}


def variant(**overrides):
    raw = dict(BASE)
    raw.update(overrides)
    return raw


def test_base_loads():
    cfg = load_scenario(variant())
    assert cfg.fault_params.agreement_size == 4
    assert cfg.fault_params.execution_size == 3


def test_commit_capacity_must_exceed_k_e():
    # execution liveness: a commit window holds more than one checkpoint interval
    assert COMMIT_CAPACITY > K_E


def test_ag_win_must_cover_k_a():
    # the agreement window forces a checkpoint before it fills
    assert AG_WIN >= K_A


# the protocol parameters that are constants of their modules now
REMOVED_PARAMS = ("k_a", "k_e", "ag_win", "req_capacity", "commit_capacity",
                  "batch_cap", "cp_gossip_ms", "fetch_poll_ms", "progress_ms",
                  "collector_timeout_ms", "view_timeout_ms", "retry_limit",
                  "weak_rounds")


def test_params_hold_exactly_the_varied_knobs():
    assert set(DEFAULT_PARAMS) == {"z", "retransmit_ms", "flat_view_timeout_ms"}


@pytest.mark.parametrize("key", REMOVED_PARAMS)
def test_removed_param_is_rejected_by_name(key):
    with pytest.raises(ScenarioError, match=f"params: unknown field '{key}'"):
        load_scenario(variant(params={key: 10}))


@pytest.mark.parametrize("params", [{"z": 1}, {"retransmit_ms": 250},
                                    {"flat_view_timeout_ms": 700}])
def test_kept_params_load(params):
    cfg = load_scenario(variant(params=params))
    (key, value), = params.items()
    assert cfg.params[key] == value
    assert cfg.params == {**DEFAULT_PARAMS, **params}


# the client and topology knobs that no workload varied, now constants
# (client.VALUE_SIZE, client.KEY_SPACE) or gone (proc_ms)
REMOVED_KEYS = [(("clients", 0, "value_size"), r"clients\[0\]: unknown field 'value_size'"),
                (("clients", 0, "key_space"), r"clients\[0\]: unknown field 'key_space'"),
                (("topology", "proc_ms"), r"topology: unknown field 'proc_ms'")]


@pytest.mark.parametrize("path,named", REMOVED_KEYS, ids=[p[-1] for p, _ in REMOVED_KEYS])
def test_removed_key_is_rejected_by_name(path, named):
    with pytest.raises(ScenarioError, match=named):
        load_scenario(_set(BASE, path, 1))


def _keys_in_use():
    """(schema table name, key) for every key that a shipped scenario or a
    perfbench-generated scenario sets."""
    raws = [json.loads((SCENARIO_DIR / f"{name}.json").read_text())
            for name in shipped_scenarios()]
    raws += [workloads.WORKLOADS[w][1](seed) for w in SCENARIO_WORKLOADS for seed in (1, 2, 3)]
    used = set()
    for raw in raws:
        used |= {("scenario", k) for k in raw}
        used |= {("topology", k) for k in raw["topology"]}
        used |= {("params", k) for k in raw.get("params", {})}
        for spec in raw["clients"]:
            used |= {("client", k) for k in spec}
            used |= {("mix", k) for k in spec.get("mix", {})}
        for table, entries in (("group", raw["groups"] + raw.get("pending_groups", [])),
                               ("fault", raw.get("faults", [])),
                               ("admin", raw.get("admin", []))):
            used |= {(table, k) for entry in entries for k in entry}
    return used


# Keys no shipped or generated scenario sets, with the reason each stays.
UNUSED_KEYS_KEPT = {
    # lossy links: test_lossy_links_recover_with_retransmission sets it, and
    # a generator of valid scenarios will draw it
    ("fault", "rate"),
}


def test_every_scenario_key_is_set_by_some_workload():
    """A knob that no workload sets has one value in use: it becomes a constant."""
    tables = {"scenario": SCENARIO_KEYS, "topology": TOPOLOGY_KEYS, "params": DEFAULT_PARAMS,
              "client": CLIENT_KEYS, "mix": MIX_KEYS, "group": GROUP_KEYS,
              "fault": FAULT_KEYS, "admin": ADMIN_KEYS}
    schema = {(table, k) for table, keys in tables.items() for k in keys}
    used = _keys_in_use()
    assert used <= schema
    assert schema - used == UNUSED_KEYS_KEPT


def test_z_bounded_by_group_count():
    with pytest.raises(ScenarioError, match="z"):
        load_scenario(variant(params={"z": 2}))


def test_unknown_region_rejected():
    with pytest.raises(ScenarioError, match="unknown region"):
        load_scenario(variant(agreement_region="Q"))


def test_fault_counts_over_threshold_rejected():
    faults = [{"node": "ex:1:0", "kind": "crash"},
              {"node": "ex:1:1", "kind": "crash"}]
    with pytest.raises(ScenarioError, match="threshold"):
        load_scenario(variant(faults=faults))
    # explicitly marked scenarios are allowed
    cfg = load_scenario(variant(faults=faults, beyond_threshold=True))
    assert cfg.fault_plan.beyond_threshold


def test_shipped_scenarios_all_load():
    names = shipped_scenarios()
    assert len(names) >= 10
    for name in names:
        cfg = load_scenario(name)
        assert cfg.name == name


def test_unknown_mode_rejected():
    with pytest.raises(ScenarioError, match="mode"):
        load_scenario(variant(mode="hybrid"))


def _set(raw, path, value):
    """A deep copy of raw with the value at path (keys and list indices) set."""
    raw = copy.deepcopy(raw)
    node = raw
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return raw


FAULT = {"node": "ex:1:0", "kind": "crash"}
MALFORMED = [
    (("f_a",), "x", "f_a"),
    (("duration_ms",), "long", "duration_ms"),
    (("topology", "wan_ms"), {"V-O-X": 35}, "topology"),
    (("clients",), 5, "clients"),
    (("groups",), "x", "groups"),
    (("faults",), [dict(FAULT, node="bogus")], "faults"),
    (("faults",), [dict(FAULT, kind="explode")], "faults: unknown kind 'explode'"),
    (("faults",), [dict(FAULT, kind="byzantine", strategy="nope")],
     "faults: unknown byzantine strategy 'nope'"),
    (("faults",), [dict(FAULT, kind="byzantine")], "faults: unknown byzantine strategy"),
    (("faults",), [dict(FAULT, node="ex:9:0")], "faults: ex9:0 is not a node"),
    (("faults",), [dict(FAULT, node="client:1")], "faults: c1 is not a node"),
    (("admin",), [{"at_ms": 100, "group": 2}], "admin"),
    (("admin",), [{"at_ms": 100, "action": "grow", "group": 2}], "admin"),
    (("admin",), [{"at_ms": "soon", "action": "remove", "group": 2}], "admin"),
    (("admin",), [{"at_ms": 100, "action": "add", "group": 7}], "admin"),
    (("surprise",), 1, "scenario: unknown field 'surprise'"),
    (("topology", "regions"), {"V": "four", "O": 3}, "topology"),
    (("topology", "regions"), {"V": 0, "O": 3}, "topology: every region"),
    (("topology", "wan_ms"), {"V-Q": 35}, "topology: latency entry"),
    (("params",), {"z": "one"}, "params: .*'one'"),
    (("params",), [], "params"),
    (("beyond_threshold",), "yes", "beyond_threshold"),
    # unknown keys below the top level are named with their entry
    (("topology", "latency_ms"), 1, r"topology: unknown field 'latency_ms'"),
    (("clients", 0, "rate"), 5, r"clients\[0\]: unknown field 'rate'"),
    (("clients", 0, "mix"), {"write": 0.5, "reads": 0.5},
     r"clients\[0\]\.mix: unknown field 'reads'"),
    (("clients", 0), "c0", r"clients\[0\]: expected an object"),
    (("groups", 1, "zone"), 0, r"groups\[1\]: unknown field 'zone'"),
    (("pending_groups",), [{"id": 3, "region": "O", "size": 3}],
     r"pending_groups\[0\]: unknown field 'size'"),
    (("faults",), [dict(FAULT, at=5)], r"faults\[0\]: unknown field 'at'"),
    (("admin",), [{"at_ms": 100, "action": "remove", "group": 2, "when": 1}],
     r"admin\[0\]: unknown field 'when'"),
    # each mix fraction lies in [0, 1] and together they sum to 1
    (("clients", 0, "mix"), {"read_weak": 1.5}, r"clients\[0\]\.mix: fractions"),
    (("clients", 0, "mix"), {"write": 0.2, "read_strong": 0.2}, r"clients\[0\]\.mix: fractions"),
    (("clients", 0, "mix"), {"write": -0.5, "read_weak": 1.5}, r"clients\[0\]\.mix: fractions"),
    # group id 0 names the agreement group
    (("groups", 0, "id"), 0, r"groups\[0\]\.id: execution group ids start at 1"),
]


@pytest.mark.parametrize("path,value,named", MALFORMED,
                         ids=[f"{'.'.join(map(str, p))}={v!r}"[:40] for p, v, _ in MALFORMED])
def test_malformed_scenario_raises_scenario_error(path, value, named):
    with pytest.raises(ScenarioError, match=named):
        load_scenario(_set(BASE, path, value))


@pytest.mark.parametrize("selector", ["ex:1:0:9", "client:0:x", "ex:1", "ag:0:1:*",
                                      "xx:1:0", "ex:one:0", "client"])
def test_malformed_fault_selector_is_rejected_by_field(selector):
    with pytest.raises(ScenarioError, match=r"faults\[0\]\.node: bad node selector"):
        load_scenario(variant(faults=[dict(FAULT, node=selector)]))


def test_client_with_misspelt_rate_does_not_load():
    """Before, "rate" was ignored and the client ran at the default rate."""
    clients = [{"count": 1, "region": "V", "rate": 5}]
    with pytest.raises(ScenarioError, match=r"clients\[0\]: unknown field 'rate'"):
        load_scenario(variant(clients=clients))


def _paths(node, prefix=()):
    """Every key and index path into a parsed JSON value."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def test_any_wrong_value_raises_only_scenario_error():
    raw = variant(faults=[dict(FAULT)], admin=[{"at_ms": 10, "action": "add", "group": 3}],
                  pending_groups=[{"id": 3, "region": "O"}])
    load_scenario(raw)
    for path in _paths(raw):
        for value in ("x", -1, 1.5, None, True, [], {}, [1], {"a": 1}):
            try:
                load_scenario(_set(raw, path, value))
            except ScenarioError:
                pass


def test_run_command_reports_a_malformed_scenario(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(variant(params={"k_a": 10})))
    assert cli.main(["run", str(path)]) == 2
    assert "params: unknown field 'k_a'" in capsys.readouterr().err


THREE_REGIONS = {"V": 4, "O": 3, "S": 3}
BAD_TOPOLOGIES = [
    # a missing pair used to load and end the run with a KeyError at its first send
    ({"regions": THREE_REGIONS, "wan_ms": {"V-O": 35, "V-S": 60}},
     "topology: no WAN delay between O and S"),
    ({"regions": {"V": 4, "O": 3}, "wan_ms": {}}, "topology: no WAN delay between O and V"),
    ({"regions": {"V": 4, "O": 3}, "wan_ms": {"V-O": 35, "V-V": 35}},
     "topology: latency entry {'V'} names one region twice"),
    # a negative delay would schedule events in the past
    ({"regions": {"V": 4, "O": 3}, "wan_ms": {"V-O": 35}, "jitter_ms": -1},
     "topology: jitter_ms is negative"),
    ({"regions": {"V": 4, "O": 3}, "wan_ms": {"V-O": 35}, "inter_zone_ms": -1},
     "topology: inter_zone_ms is negative"),
    ({"regions": {"V": 4, "O": 3}, "wan_ms": {"V-O": 35}, "intra_zone_ms": -0.1},
     "topology: intra_zone_ms is negative"),
]


@pytest.mark.parametrize("topology,named", BAD_TOPOLOGIES,
                         ids=[named.split(": ", 1)[1] for _, named in BAD_TOPOLOGIES])
def test_bad_topology_raises_scenario_error_naming_it(topology, named):
    with pytest.raises(ScenarioError, match=re.escape(named)):
        load_scenario(variant(topology=topology))


def test_every_region_pair_with_a_delay_loads():
    topology = {"regions": THREE_REGIONS, "wan_ms": {"V-O": 35, "S-V": 60, "O-S": 45},
                "jitter_ms": 0.0, "intra_zone_ms": 0.0}
    cfg = load_scenario(variant(topology=topology))
    assert cfg.topology.latency(("S", 0), ("O", 1)) == 45.0


def test_single_region_topology_needs_no_wan_delay():
    raw = variant(topology={"regions": {"V": 4}, "wan_ms": {}},
                  groups=[{"id": 1, "region": "V"}])
    assert load_scenario(raw).topology.wan_ms == {}


def test_benchmark_scenario_without_one_pair_does_not_load():
    """Before, it loaded and the run died with a KeyError at its first I-T send."""
    raw = workloads.writes_rc(1)
    del raw["topology"]["wan_ms"]["I-T"]
    with pytest.raises(ScenarioError, match="topology: no WAN delay between I and T"):
        load_scenario(raw)
