"""Builds a running system from a scenario and drives it to completion."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .agreement import COMMIT_CAPACITY, AgreementReplica
from .client import AdminAction, ClientNode
from .core import AGREEMENT, AGREEMENT_GROUP, BoundCrypto, CryptoProvider, ReplicaId
from .core.messages import ChannelId
from .execution import ExecutionReplica
from .flatbft import FlatBftReplica
from .irmc import VARIANTS
from .irmc.base import ChannelConfig
from .ordering import MiniBft, SequencerOracle
from .protocol import group_key
from .scenario import ClientSpec, ScenarioConfig
from .simnet import Simulator

REQ_CAPACITY = 2  # request-channel window per client subchannel


class EndpointFactory:
    """Builds the request/commit channel endpoints for one IRMC variant."""

    def __init__(self, variant: str, cfg: ScenarioConfig):
        self.sender_cls, self.receiver_cls = VARIANTS[variant]
        self.cfg = cfg

    def channel_configs(self, gid: int, group_members: tuple):
        retransmit_ms = self.cfg.params["retransmit_ms"]
        fp = self.cfg.fault_params
        ag = self.cfg.agreement_members()
        req_fs, req_fr = fp.request_channel()
        com_fs, com_fr = fp.commit_channel()
        req = ChannelConfig(ChannelId("req", gid), tuple(group_members), ag,
                            req_fs, req_fr, REQ_CAPACITY, retransmit_ms=retransmit_ms)
        com = ChannelConfig(ChannelId("commit", gid), ag, tuple(group_members),
                            com_fs, com_fr, COMMIT_CAPACITY, retransmit_ms=retransmit_ms)
        return req, com


@dataclass
class System:
    sim: Simulator
    cfg: ScenarioConfig
    agreement: list
    executions: dict   # gid -> list of ExecutionReplica
    clients: list
    admin: Optional[ClientNode]
    flat: list

    def run(self):
        self.sim.run_until(self.cfg.duration_ms)
        return self.sim.trace


def build(cfg: ScenarioConfig, seed: int, mode: Optional[str] = None,
          irmc: Optional[str] = None) -> System:
    mode = mode or cfg.mode
    irmc = irmc or cfg.irmc
    sim = Simulator(cfg.topology, seed, cfg.fault_plan)
    provider = CryptoProvider()

    admin_id = cfg.admin_id
    authorized = frozenset(cfg.client_ids()) | {admin_id}
    for c in list(authorized):
        provider.register_principal(c)

    if mode == "flat-bft":
        return _build_flat(cfg, seed, sim, provider, authorized)

    ag_members = cfg.agreement_members()
    provider.register_group(group_key(AGREEMENT_GROUP), ag_members)
    for gid in cfg.all_group_ids():
        provider.register_group(group_key(gid), cfg.group_members(gid))

    factory = EndpointFactory(irmc, cfg)
    zone_count = cfg.topology.regions[cfg.agreement_region]
    initial = {gid: (cfg.groups[gid], cfg.group_members(gid))
               for gid in sorted(cfg.groups)}

    ordering_cls = SequencerOracle if mode == "oracle" else MiniBft
    agreement = []
    for i, nid in enumerate(ag_members):
        node = AgreementReplica(
            nid, sim, BoundCrypto(provider, nid), ag_members,
            cfg.fault_params.f_a, authorized, admin_id, ordering_cls, factory, initial,
            z=cfg.params["z"])
        sim.register(nid, node, cfg.agreement_region, i % zone_count)
        agreement.append(node)

    executions: dict = {}
    for gid in cfg.all_group_ids():
        region = cfg.region_of_group(gid)
        zones = cfg.topology.regions[region]
        group_members = cfg.group_members(gid)
        executions[gid] = []
        for i, nid in enumerate(group_members):
            node = ExecutionReplica(
                nid, sim, BoundCrypto(provider, nid), gid, group_members,
                authorized, admin_id, cfg.fault_params.f_e, cfg.fault_params.f_a,
                ag_members, factory)
            sim.register(nid, node, region, i % zones)
            executions[gid].append(node)

    client_nodes = _build_clients(cfg, seed, sim, provider, ag_members)
    admin_node = client_nodes.pop() if cfg.admin_actions else None
    return System(sim, cfg, agreement, executions, client_nodes, admin_node, [])


def _build_flat(cfg, seed, sim, provider, authorized):
    n = cfg.fault_params.agreement_size
    members = tuple(ReplicaId(AGREEMENT, 0, i) for i in range(n))
    provider.register_group(group_key(AGREEMENT_GROUP), members)
    regions = [cfg.agreement_region] + sorted(r for r in cfg.topology.regions
                                              if r != cfg.agreement_region)
    flat = []
    for i, nid in enumerate(members):
        region = regions[i % len(regions)]
        node = FlatBftReplica(nid, sim, BoundCrypto(provider, nid), members,
                              cfg.fault_params.f_a, authorized,
                              view_timeout_ms=cfg.params["flat_view_timeout_ms"])
        sim.register(nid, node, region, i // len(regions) % cfg.topology.regions[region])
        flat.append(node)

    client_nodes = _build_clients(
        cfg, seed, sim, provider, members,
        static_group=(AGREEMENT_GROUP, members, cfg.fault_params.f_a + 1))
    return System(sim, cfg, [], {}, client_nodes, None, flat)


def _build_clients(cfg, seed, sim, provider, contacts, static_group=None):
    """One ClientNode per client spec, registered in spec order. contacts
    answer registry queries; flat mode also pins the group (static_group).
    A spider or oracle run with admin actions then adds the admin client,
    which issues no workload, in the agreement region's zone 0; flat
    replicas order no admin requests."""
    specs = list(zip(cfg.client_ids(), cfg.clients, [()] * len(cfg.clients)))
    if cfg.admin_actions and static_group is None:
        script = tuple(
            AdminAction(at_ms=a["at_ms"], action=a["action"], group=int(a["group"]),
                        region=cfg.region_of_group(int(a["group"]))
                        if a["action"] == "add" else "",
                        members=cfg.group_members(int(a["group"]))
                        if a["action"] == "add" else ())
            for a in cfg.admin_actions)
        idle = ClientSpec(region=cfg.agreement_region, zone=0, strong_rate_per_s=0.0,
                          weak_rate_per_s=0.0, write_fraction=1.0)
        specs.append((cfg.admin_id, idle, script))
    client_nodes = []
    for nid, spec, script in specs:
        node = ClientNode(nid, sim, BoundCrypto(provider, nid),
                          cfg.fault_params.f_a, cfg.fault_params.f_e, contacts,
                          spec, cfg.issue_until_ms, seed,
                          static_group=static_group, admin_script=script)
        sim.register(nid, node, spec.region, spec.zone % cfg.topology.regions[spec.region])
        client_nodes.append(node)
    return client_nodes
