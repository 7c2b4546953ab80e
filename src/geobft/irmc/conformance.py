"""Implementation-agnostic IRMC conformance suite.

Runs randomized schedules of scripted correct senders/receivers plus
injected faulty endpoints against any endpoint factory, then audits the
trace for the channel correctness and liveness properties:

  C1  a delivered message was sent by at least one correct sender and
      carried an f_s+1 quorum
  C2  every TooOld was preceded by a sufficient move_window call at a
      correct endpoint
  L1  a position sent identically by f_s+1 correct senders resolves
      (message or TooOld) at every correct receiver that asked
  L2  once f_r+1 correct receivers move to p, correct sends below the
      quorum position + capacity complete
  MON window starts never decrease at any endpoint
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..core import CryptoProvider, BoundCrypto, ReplicaId
from ..core.messages import ChannelId
from ..protocol import CHANNEL_MSGS
from ..simnet import FaultPlan, Node, NodeFault, Simulator, Topology
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
        msg = env.payload
        if isinstance(msg, CHANNEL_MSGS):
            if self.endpoint is not None:
                self.endpoint.handle(src, msg, env.first_sig())

    def start(self):
        super().start()
        if self.driver is not None:
            self.driver()


def _payload(tag: int, p: int) -> bytes:
    return b"payload-%d-%d" % (tag, p)


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
    for i in faulty_s:
        plan.faults[senders[i]] = NodeFault("byzantine",
                                            strategy=rng.choice(SENDER_STRATEGIES))
    for i in faulty_r:
        plan.faults[receivers[i]] = NodeFault("byzantine",
                                              strategy=rng.choice(RECEIVER_STRATEGIES))
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
    for i, nid in enumerate(senders):
        node = ChannelNode(nid, sim, BoundCrypto(provider, nid))
        sim.register(nid, node, "S", i)
        nodes[nid] = node
    for i, nid in enumerate(receivers):
        node = ChannelNode(nid, sim, BoundCrypto(provider, nid))
        sim.register(nid, node, "R", i)
        nodes[nid] = node
    endpoints = make_endpoints(cfg, [nodes[s] for s in senders],
                               [nodes[r] for r in receivers])
    for nid, ep in endpoints.items():
        nodes[nid].endpoint = ep

    outstanding = {r: POSITIONS for r in receivers if r not in
                   {receivers[i] for i in faulty_r}}
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
            ep.send(0, p, _payload(tag, p),
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
                if node.nid in outstanding:
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

    for i, nid in enumerate(senders):
        nodes[nid].driver = sender_script(nodes[nid])
    for i, nid in enumerate(receivers):
        if i in faulty_r:
            nodes[nid].driver = faulty_receiver_script(nodes[nid])
        else:
            nodes[nid].driver = receiver_script(nodes[nid])

    sim.run_until(30_000.0)

    correct_s = {senders[i] for i in range(n_s) if i not in faulty_s}
    correct_r = {receivers[i] for i in range(n_r) if i not in faulty_r}
    return audit_schedule(sim.trace, cfg, correct_s, correct_r, outstanding, report)


def audit_schedule(trace, cfg, correct_s, correct_r, outstanding, report):
    violations = []
    sent = {}        # (sc, p) -> {digest: set(correct senders)}
    send_calls = {}  # sender -> set((sc, p))
    send_done = {}   # sender -> set((sc, p))
    moved_to = {}    # sc -> highest move so far by a correct endpoint
    recv_moves_by = {}  # (sc,) -> {receiver: max p}
    win_last = {}
    asked = set()     # (receiver, sc, p) a correct receiver asked for
    resolved = set()  # (receiver, sc, p) answered by a message or TooOld
    chan = str(cfg.channel)
    cs = {str(n) for n in correct_s}
    cr = {str(n) for n in correct_r}
    correct = cs | cr

    for t, event, src, dst, kind, digest, data in trace.records:
        if kind != chan:
            continue
        nid = src
        if event == "ch_send_call" and nid in cs:
            key = (data["sc"], data["p"])
            sent.setdefault(key, {}).setdefault(digest, set()).add(nid)
            send_calls.setdefault(nid, set()).add(key)
        elif event == "ch_send_done" and nid in cs:
            send_done.setdefault(nid, set()).add((data["sc"], data["p"]))
        elif event == "ch_move_call" and nid in correct:
            moved_to[data["sc"]] = max(moved_to.get(data["sc"], 0), data["p"])
            if data.get("side") == "r" and nid in cr:
                held = recv_moves_by.setdefault(data["sc"], {})
                held[nid] = max(held.get(nid, 0), data["p"])
        elif event == "win_move":
            key = (nid, data["sc"])
            if data["start"] < win_last.get(key, 0):
                violations.append(f"MON window moved backwards at {nid}")
            win_last[key] = data["start"]
        elif event == "irmc_deliver" and nid in cr:
            if report is not None:
                report.deliveries += 1
            key = (data["sc"], data["p"])
            contributors = data["senders"].split(";")
            if len(contributors) < cfg.f_s + 1:
                violations.append(f"C1 delivery at {key} with quorum {contributors}")
            senders_of = sent.get(key, {}).get(digest, set())
            if not senders_of:
                violations.append(f"C1 delivery at {key} not sent by any correct sender")
        elif event == "ch_recv_call" and nid in cr:
            asked.add((nid, data["sc"], data["p"]))
        elif event == "ch_recv_msg" and nid in cr:
            resolved.add((nid, data["sc"], data["p"]))
        elif event == "ch_recv_tooold" and nid in cr:
            resolved.add((nid, data["sc"], data["p"]))
            if report is not None:
                report.too_olds += 1
            new_start = data["new_start"]
            # C2: the moves seen so far are exactly those before this TooOld
            if data["p"] < new_start and moved_to.get(data["sc"], 0) < new_start:
                violations.append(
                    f"C2 TooOld({new_start}) at {nid} without a correct move")

    # L1: quorum-sent positions resolve at every correct receiver that asked
    for (sc, p), by_digest in sent.items():
        if max(len(s) for s in by_digest.values()) < cfg.f_s + 1:
            continue
        done_enough = [s for s, keys in send_done.items() if (sc, p) in keys]
        if len(done_enough) < cfg.f_s + 1:
            continue
        for r, rsc, rp in asked:
            if (rsc, rp) == (sc, p) and (r, sc, p) not in resolved:
                violations.append(f"L1 receiver {r} stuck at ({sc},{p})")

    # L2: sends below the f_r+1 move quorum + capacity must have completed
    for sc, held in recv_moves_by.items():
        if len(held) < cfg.f_r + 1:
            continue
        tilde = sorted(held.values(), reverse=True)[cfg.f_r]
        for snd, keys in send_calls.items():
            for (csc, cp) in keys:
                if csc == sc and cp < tilde + cfg.capacity:
                    if (csc, cp) not in send_done.get(snd, set()):
                        violations.append(f"L2 send by {snd} at ({csc},{cp}) never returned")

    for r, remaining in outstanding.items():
        if remaining > 0:
            violations.append(f"L1 receiver {r} left {remaining} positions unresolved")
    return violations


def make_factory(sender_cls, receiver_cls):
    def factory(cfg, sender_nodes, receiver_nodes):
        eps = {}
        for node in sender_nodes:
            eps[node.nid] = sender_cls(cfg, node)
        for node in receiver_nodes:
            eps[node.nid] = receiver_cls(cfg, node)
        return eps
    return factory


def run_conformance(factory, f_s, f_r, seed, schedules) -> ConformanceReport:
    report = ConformanceReport()
    rng = random.Random(seed)
    for _ in range(schedules):
        sched_seed = rng.randrange(1 << 30)
        violations = run_schedule(factory, f_s, f_r, sched_seed, report)
        report.schedules += 1
        for v in violations:
            report.failures.append(f"seed={sched_seed}: {v}")
    return report
