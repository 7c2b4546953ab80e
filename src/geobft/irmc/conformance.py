"""Implementation-agnostic IRMC conformance suite.

Runs randomized schedules of scripted correct senders/receivers plus
injected faulty endpoints against any endpoint factory, then audits the
trace for the channel contract's correctness and liveness properties,
C1, C2, L1, L2 and MON (defined in contract.py), and for receivers the
schedule left waiting.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..core import CryptoProvider, BoundCrypto, ReplicaId
from ..core.messages import ChannelId
from ..protocol import CHANNEL_MSGS
from ..simnet import FaultPlan, Node, NodeFault, Simulator, Topology
from . import contract
from .base import ChannelConfig, TooOld

SENDER_STRATEGIES = ("withhold", "equivocate-send", "garbage-inject", "lying-collector")
RECEIVER_STRATEGIES = ("withhold", "inflate-move")
POSITIONS = 8  # positions each schedule sends on its one subchannel
CAPACITY = 4   # the schedule channel's window


@dataclass
class ConformanceReport:
    schedules: int = 0
    deliveries: int = 0
    too_olds: int = 0
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


class ChannelNode(Node):
    """Hosts exactly one endpoint plus a scripted driver."""

    def __init__(self, nid, sim, crypto):
        super().__init__(nid, sim, crypto)
        self.endpoint = None
        self.driver = None

    def on_payload(self, src, env):
        if isinstance(env.payload, CHANNEL_MSGS) and self.endpoint is not None:
            self.endpoint.handle(src, env.payload, env.first_sig())

    def start(self):
        super().start()
        if self.driver is not None:
            self.driver()


def run_schedule(make_endpoints, f_s, f_r, seed, report: ConformanceReport = None) -> list:
    """One randomized schedule; returns the list of property violations."""
    rng = random.Random(seed)
    n_s = rng.choice((2 * f_s + 1, 3 * f_s + 1))
    n_r = rng.choice((2 * f_r + 1, 3 * f_r + 1))
    topo = Topology(
        regions={"S": n_s, "R": n_r},
        wan_ms={frozenset(("S", "R")): rng.uniform(5.0, 40.0)},
        inter_zone_ms=1.0,
        intra_zone_ms=0.1,
        jitter_ms=rng.choice((0.0, 2.0)),
    )
    senders = tuple(ReplicaId("ex", 1, i) for i in range(n_s))
    receivers = tuple(ReplicaId("ag", 0, i) for i in range(n_r))
    faulty_s = set(rng.sample(range(n_s), f_s))
    faulty_r = set(rng.sample(range(n_r), f_r))
    plan = FaultPlan()
    for members, faulty, strategies in ((senders, faulty_s, SENDER_STRATEGIES),
                                        (receivers, faulty_r, RECEIVER_STRATEGIES)):
        for i in faulty:
            plan.faults[members[i]] = NodeFault("byzantine", strategy=rng.choice(strategies))
    sim = Simulator(topo, seed, plan)
    provider = CryptoProvider()
    for nid in senders + receivers:
        provider.register_principal(nid)

    cfg = ChannelConfig(ChannelId("req", 1), senders, receivers, f_s, f_r,
                        capacity=CAPACITY, progress_ms=20.0, collector_timeout_ms=80.0)
    tag = seed & 0xFFFF
    # a schedule may skip one position: correct senders move past it instead
    skipped = rng.randrange(2, POSITIONS) if rng.random() < 0.35 else None

    nodes = {}
    for region, members in (("S", senders), ("R", receivers)):
        for i, nid in enumerate(members):
            nodes[nid] = ChannelNode(nid, sim, BoundCrypto(provider, nid))
            sim.register(nid, nodes[nid], region, i)
    endpoints = make_endpoints(cfg, [nodes[s] for s in senders],
                               [nodes[r] for r in receivers])
    for nid, ep in endpoints.items():
        nodes[nid].endpoint = ep

    correct_s = {senders[i] for i in range(n_s) if i not in faulty_s}
    correct_r = {receivers[i] for i in range(n_r) if i not in faulty_r}
    outstanding = {r: POSITIONS for r in receivers if r in correct_r}
    drain = [False]

    def check_done():
        # drain window lets blocked sends flush before the schedule ends
        if not drain[0] and all(v == 0 for v in outstanding.values()):
            drain[0] = True
            sim.after(receivers[0], 500.0, sim.stop)

    def sender_script(node):
        def step(p):
            if p > POSITIONS:
                return
            ep = node.endpoint
            if skipped is not None and p == skipped:
                ep.move_window(0, p + 1)
                node.after(rng.uniform(0.1, 3.0), lambda: step(p + 1))
                return
            ep.send(0, p, b"payload-%d-%d" % (tag, p),
                    on_complete=lambda: node.after(rng.uniform(0.1, 3.0),
                                                   lambda: step(p + 1)))
        return lambda: node.after(rng.uniform(0.0, 2.0), lambda: step(1))

    def receiver_script(node):
        def step(p):
            if p > POSITIONS:
                return
            ep = node.endpoint

            def resolved(outcome):
                if isinstance(outcome, TooOld):
                    nxt = max(p + 1, outcome.start)
                else:
                    nxt = p + 1
                outstanding[node.nid] = max(0, POSITIONS - nxt + 1)
                check_done()

                def advance():
                    ep.move_window(0, nxt)
                    step(nxt)
                node.after(rng.uniform(0.1, 3.0), advance)

            ep.receive(0, p, resolved)
        return lambda: node.after(rng.uniform(0.0, 2.0), lambda: step(1))

    def faulty_receiver_script(node):
        # arbitrary signed-by-itself traffic: wild moves and junk requests
        def misbehave():
            ep = node.endpoint
            p = rng.randrange(1, POSITIONS * 20)
            ep.move_window(0, p)
            node.after(rng.uniform(1.0, 10.0), misbehave)
        return lambda: node.after(rng.uniform(0.0, 5.0), misbehave)

    for nid in senders:
        nodes[nid].driver = sender_script(nodes[nid])
    for i, nid in enumerate(receivers):
        script = faulty_receiver_script if i in faulty_r else receiver_script
        nodes[nid].driver = script(nodes[nid])

    sim.run_until(30_000.0)
    return audit_schedule(sim.trace, cfg, correct_s, correct_r, outstanding, report)


def audit_schedule(trace, cfg, correct_s, correct_r, outstanding, report):
    """The schedule's violations of the IRMC contract (contract.py), from one
    grouping of its records, and the correct receivers it left waiting."""
    by_event = contract.group_records(trace.records)
    correct = {str(n) for n in correct_s | correct_r}
    channels = {str(cfg.channel): (cfg.f_s, cfg.f_r, cfg.capacity)}
    sent = contract.correct_sends(by_event, correct)
    delivered, c1_deliveries = contract.c1(by_event, correct, channels, sent)
    too_old, c2_too_olds = contract.c2(by_event, correct)
    violations = delivered + too_old + contract.mon(by_event)[0] \
        + contract.l1_l2(by_event, correct, channels, sent)
    if report is not None:
        report.deliveries += c1_deliveries
        report.too_olds += c2_too_olds
    for r, remaining in outstanding.items():
        if remaining > 0:
            violations.append(f"L1 receiver {r} left {remaining} positions unresolved")
    return violations


def make_factory(sender_cls, receiver_cls):
    def factory(cfg, sender_nodes, receiver_nodes):
        return {**{node.nid: sender_cls(cfg, node) for node in sender_nodes},
                **{node.nid: receiver_cls(cfg, node) for node in receiver_nodes}}
    return factory


def run_conformance(factory, f_s, f_r, seed, schedules) -> ConformanceReport:
    report = ConformanceReport()
    rng = random.Random(seed)
    for _ in range(schedules):
        sched_seed = rng.randrange(1 << 30)
        violations = run_schedule(factory, f_s, f_r, sched_seed, report)
        report.schedules += 1
        report.failures += [f"seed={sched_seed}: {v}" for v in violations]
    return report
