"""Scenario files: schema, validation, and the shipped catalogue.

A scenario is a JSON object (see README for the field-by-field schema)
describing topology, group layout, protocol parameters, client
workloads, the fault plan and reconfiguration timeline for one run.
"""
from __future__ import annotations

import json
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from .core import AGREEMENT, EXECUTION, ClientId, FaultParams, ReplicaId
from .irmc import VARIANTS
from .simnet import BYZANTINE_STRATEGIES, FAULT_KINDS, FaultPlan, NodeFault, Topology

SCENARIO_DIR = Path(__file__).parent / "scenarios"
MODES = ("spider", "flat-bft", "oracle")

# The protocol parameters a scenario may set; the other protocol constants
# are fixed in the modules that use them (see README).
DEFAULT_PARAMS = {"z": 0, "retransmit_ms": 0.0, "flat_view_timeout_ms": 600.0}

SCENARIO_KEYS = ("name", "mode", "irmc", "duration_ms", "issue_until_ms", "warmup_ms",
                 "f_a", "f_e", "topology", "agreement_region", "groups", "pending_groups",
                 "clients", "params", "faults", "beyond_threshold", "admin")
TOPOLOGY_KEYS = ("regions", "wan_ms", "inter_zone_ms", "intra_zone_ms", "jitter_ms")
CLIENT_KEYS = ("count", "region", "rate_per_s", "zone", "mix", "start_ms")
MIX_KEYS = ("write", "read_strong", "read_weak")
GROUP_KEYS = ("id", "region")
FAULT_KEYS = ("node", "kind", "at_ms", "until_ms", "strategy", "rate")
ADMIN_KEYS = ("at_ms", "action", "group")


class ScenarioError(ValueError):
    pass


@dataclass
class ClientSpec:
    region: str
    zone: int
    strong_rate_per_s: float
    weak_rate_per_s: float
    write_fraction: float
    start_ms: float = 0.0


@dataclass
class ScenarioConfig:
    name: str
    mode: str              # one of MODES
    irmc: str              # a key of irmc.VARIANTS
    duration_ms: float
    issue_until_ms: float
    warmup_ms: float
    fault_params: FaultParams
    topology: Topology
    agreement_region: str
    groups: dict           # gid -> region (initial)
    pending_groups: dict   # gid -> region (available for AddGroup)
    clients: list          # list[ClientSpec]
    params: dict
    fault_plan: FaultPlan = field(default_factory=FaultPlan)
    admin_actions: list = field(default_factory=list)

    # -- derived layout -----------------------------------------------------

    def agreement_members(self) -> tuple:
        return tuple(ReplicaId(AGREEMENT, 0, i)
                     for i in range(self.fault_params.agreement_size))

    def group_members(self, gid: int) -> tuple:
        return tuple(ReplicaId(EXECUTION, gid, i)
                     for i in range(self.fault_params.execution_size))

    def all_group_ids(self):
        return sorted(set(self.groups) | set(self.pending_groups))

    def region_of_group(self, gid: int) -> str:
        return self.groups.get(gid) or self.pending_groups[gid]

    def client_ids(self):
        return [ClientId(i) for i in range(len(self.clients))]

    @property
    def admin_id(self):
        return ClientId(len(self.clients))

    def validate(self) -> None:
        issues = []
        if self.mode not in MODES:
            issues.append(f"mode: unknown mode {self.mode!r}")
        if self.irmc not in VARIANTS:
            issues.append(f"irmc: unknown variant {self.irmc!r}")
        n_e = len(self.groups)
        if self.mode != "flat-bft" and not (0 <= self.params["z"] < max(n_e, 1)):
            issues.append(f"z: must satisfy 0 <= z < n_e (= {n_e})")
        with _field("topology"):
            self.topology.validate()
        if self.agreement_region not in self.topology.regions:
            issues.append(f"agreement_region: unknown region {self.agreement_region}")
        for gid, region in {**self.groups, **self.pending_groups}.items():
            if region not in self.topology.regions:
                issues.append(f"group {gid}: unknown region {region}")
        for spec in self.clients:
            if spec.region not in self.topology.regions:
                issues.append(f"client region {spec.region}: unknown")
        nodes = set(self.agreement_members()) | set(self.client_ids()) | {
            nid for gid in self.all_group_ids() for nid in self.group_members(gid)}
        faulty = Counter()  # (role, group) -> faulty replicas
        for nid, fault in self.fault_plan.faults.items():
            if nid not in nodes:
                issues.append(f"faults: {nid} is not a node of the scenario")
            if fault.kind not in FAULT_KINDS:
                issues.append(f"faults: unknown kind {fault.kind!r}")
            elif fault.kind == "byzantine" and fault.strategy not in BYZANTINE_STRATEGIES:
                issues.append(f"faults: unknown byzantine strategy {fault.strategy!r}")
            if isinstance(nid, ReplicaId):
                faulty[(nid.role, nid.group)] += 1
        for a in self.admin_actions:
            if a.get("action") not in ("add", "remove") or type(a.get("group")) is not int \
                    or type(a.get("at_ms")) not in (int, float) \
                    or a["action"] == "add" and a["group"] not in self.all_group_ids():
                issues.append(f"admin: {a} needs at_ms, action add|remove and a known group")
        for (role, gid), n in faulty.items():
            bound = self.fault_params.f_a if role == AGREEMENT else self.fault_params.f_e
            if n > bound and not self.fault_plan.beyond_threshold:
                issues.append(
                    f"fault plan: {n} faulty replicas in {role}{gid} exceeds "
                    f"threshold {bound} (mark beyond_threshold to allow)")
        if issues:
            raise ScenarioError("; ".join(issues))


def load_scenario(source) -> ScenarioConfig:
    """Accepts a path, a shipped scenario name, or a parsed dict. Any
    malformed input raises ScenarioError naming the field at fault."""
    if isinstance(source, dict):
        raw = source
    else:
        path = Path(source)
        if not path.exists():
            candidate = SCENARIO_DIR / f"{source}.json"
            if candidate.exists():
                path = candidate
            else:
                raise ScenarioError(f"no scenario at {source}")
        with _field(str(path)):
            raw = json.loads(path.read_text())
    with _field("scenario"):
        cfg = _from_dict(raw)
        cfg.validate()
    return cfg


def shipped_scenarios():
    return sorted(p.stem for p in SCENARIO_DIR.glob("*.json"))


@contextmanager
def _field(name: str):
    """Re-raise a malformed value as a ScenarioError that names its field."""
    try:
        yield
    except ScenarioError:
        raise
    except KeyError as missing:
        raise ScenarioError(f"{name}: missing field {missing}") from None
    except (AttributeError, IndexError, TypeError, ValueError) as exc:
        raise ScenarioError(f"{name}: {exc}") from None


def _known_keys(obj: dict, allowed, name: str) -> dict:
    if not isinstance(obj, dict):
        raise ScenarioError(f"{name}: expected an object")
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise ScenarioError(f"{name}: unknown field {unknown[0]!r}")
    return obj


def _from_dict(raw: dict) -> ScenarioConfig:
    _known_keys(raw, SCENARIO_KEYS, "scenario")
    with _field("topology"):
        topo_raw = _known_keys(raw["topology"], TOPOLOGY_KEYS, "topology")
        wan = {}
        for pair, delay in topo_raw.get("wan_ms", {}).items():
            a, b = pair.split("-")
            wan[frozenset((a, b))] = float(delay)
        topology = Topology(
            regions={region: int(zones) for region, zones in topo_raw["regions"].items()},
            wan_ms=wan,
            inter_zone_ms=float(topo_raw.get("inter_zone_ms", 1.0)),
            intra_zone_ms=float(topo_raw.get("intra_zone_ms", 0.1)),
            jitter_ms=float(topo_raw.get("jitter_ms", 0.0)),
        )
    params = dict(DEFAULT_PARAMS)
    with _field("params"):
        for key, value in _known_keys(raw.get("params", {}), DEFAULT_PARAMS, "params").items():
            params[key] = type(DEFAULT_PARAMS[key])(value)
    with _field("duration_ms"):
        duration = float(raw["duration_ms"])
    with _field("issue_until_ms/warmup_ms"):
        issue_until = float(raw.get("issue_until_ms", duration * 0.7))
        warmup = float(raw.get("warmup_ms", 0.0))
    clients = []
    with _field("clients"):
        for n, spec in enumerate(raw["clients"]):
            _known_keys(spec, CLIENT_KEYS, f"clients[{n}]")
            count = int(spec.get("count", 1))
            rate = float(spec.get("rate_per_s", 10.0))
            mix = _known_keys(spec.get("mix", {"write": 1.0}), MIX_KEYS, f"clients[{n}].mix")
            with _field(f"clients[{n}].mix"):
                fracs = {key: float(mix.get(key, 0.0)) for key in MIX_KEYS}
                if not all(0.0 <= x <= 1.0 for x in fracs.values()) \
                        or abs(sum(fracs.values()) - 1.0) > 1e-9:
                    raise ValueError(f"fractions {fracs} must each lie in [0, 1] "
                                     "and sum to 1")
            weak_frac = fracs["read_weak"]
            strong_frac = 1.0 - weak_frac
            write_frac_of_strong = 1.0
            if strong_frac > 0:
                write_frac_of_strong = fracs["write"] / strong_frac
            for i in range(count):
                clients.append(ClientSpec(
                    region=str(spec["region"]),
                    zone=int(spec.get("zone", 0)),
                    strong_rate_per_s=rate * strong_frac,
                    weak_rate_per_s=rate * weak_frac,
                    write_fraction=min(1.0, write_frac_of_strong),
                    start_ms=float(spec.get("start_ms", 0.0)),
                ))
    if not isinstance(raw.get("beyond_threshold", False), bool):
        raise ScenarioError("beyond_threshold: expected true or false")
    plan = FaultPlan(beyond_threshold=raw.get("beyond_threshold", False))
    with _field("f_a/f_e"):
        fp = FaultParams(int(raw["f_a"]), int(raw["f_e"]))
    with _field("faults"):
        for n, f in enumerate(raw.get("faults", [])):
            _known_keys(f, FAULT_KEYS, f"faults[{n}]")
            for nid in _expand_selector(f["node"], fp, f"faults[{n}].node"):
                plan.faults[nid] = NodeFault(
                    kind=f["kind"],
                    at_ms=float(f.get("at_ms", 0.0)),
                    until_ms=float(f.get("until_ms", float("inf"))),
                    strategy=f.get("strategy"),
                    rate=float(f.get("rate", 0.0)),
                )
    with _field("admin"):
        admin = [dict(_known_keys(a, ADMIN_KEYS, f"admin[{n}]"))
                 for n, a in enumerate(raw.get("admin", []))]
    with _field("groups"):
        groups = _group_regions(raw["groups"], "groups")
    with _field("pending_groups"):
        pending = _group_regions(raw.get("pending_groups", []), "pending_groups")
    return ScenarioConfig(
        name=str(raw.get("name", "unnamed")),
        mode=str(raw.get("mode", "spider")),
        irmc=str(raw.get("irmc", "rc")),
        duration_ms=duration,
        issue_until_ms=issue_until,
        warmup_ms=warmup,
        fault_params=fp,
        topology=topology,
        agreement_region=str(raw["agreement_region"]),
        groups=groups,
        pending_groups=pending,
        clients=clients,
        params=params,
        fault_plan=plan,
        admin_actions=admin,
    )


def _group_regions(entries, name: str) -> dict:
    groups = {}
    for n, g in enumerate(entries):
        _known_keys(g, GROUP_KEYS, f"{name}[{n}]")
        gid = int(g["id"])
        if gid < 1:
            raise ScenarioError(f"{name}[{n}].id: execution group ids start at 1 "
                                "(0 names the agreement group)")
        groups[gid] = str(g["region"])
    return groups


def _expand_selector(sel: str, fp: FaultParams, name: str):
    """'ag:0:1', 'ex:2:*', 'client:3' or 'leader'; anything else raises
    ScenarioError naming the field."""
    if sel == "leader":
        return [ReplicaId(AGREEMENT, 0, 0)]
    parts = str(sel).split(":")
    try:
        if parts[0] == "client" and len(parts) == 2:
            return [ClientId(int(parts[1]))]
        if parts[0] in (AGREEMENT, EXECUTION) and len(parts) == 3:
            role, gid, idx = parts[0], int(parts[1]), parts[2]
            size = fp.agreement_size if role == AGREEMENT else fp.execution_size
            if idx == "*":
                return [ReplicaId(role, gid, i) for i in range(size)]
            return [ReplicaId(role, gid, int(idx))]
    except ValueError:
        pass
    raise ScenarioError(f"{name}: bad node selector {sel!r}")
